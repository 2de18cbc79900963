"""The drivers' list state and the kind rule of a generated _step.

Up to WIDE_N the drivers carry the state as a list of floats.  A generated
_step is marked ``lists``: it returns the kind of y it was given, so it
takes the drivers' list and returns two lists.  Any other kernel gets float
arrays, and each of its results must be N floats.  Either way the runs keep
the bits of the array form, and the API boundary hands back float arrays.
"""
import math
import re
import zlib
from dataclasses import replace

import numpy as np
import pytest

from rkforge import shipped_methods, stepcontrol
from rkforge.generated import METHODS
from rkforge.problems import PROBLEM_NAMES, benchmark_case
from rkforge.stepcontrol import (
    WIDE_N,
    DivergenceError,
    IntegrationOptions,
    MaxStepsExceeded,
    ODEProblem,
    StepKernel,
    StepSizeUnderflow,
    Tolerances,
    _entry_check,
    adaptive_integrate,
    error_norm,
    fixed_integrate,
    interpreted_kernel,
)
from test_list_rhs import list_system, run_bytes

TABLEAUS = {t.name: t for t in shipped_methods()}
KERNELS = ["generated", "interpreted", "user-lists", "unmarked"]


def unmarked(k):
    """k behind a plain wrapper, which the drivers hand float arrays."""
    return replace(k, step=lambda f, t, y, h, reuse=None: k.step(f, t, y, h, reuse))


def returning_lists(k):
    """A user kernel that steps with k and hands back lists."""
    def step(f, t, y, h, reuse=None):
        return [v.tolist() for v in k.step(f, t, y, h, reuse)]

    return replace(k, step=step)


def make_kernel(kind, name="DOPRI5"):
    generated = METHODS[name].KERNEL
    return {"generated": generated,
            "interpreted": interpreted_kernel(TABLEAUS[name]),
            "user-lists": returning_lists(generated),
            "unmarked": unmarked(generated)}[kind]


def slot_bytes(reuse):
    return [None if v is None else np.asarray(v, dtype=float).tobytes() for v in reuse]


def assert_float_state(y, n):
    assert type(y) is np.ndarray and y.dtype == np.float64 and y.shape == (n,)


def test_every_generated_step_is_marked():
    for module in METHODS.values():
        assert module.KERNEL.step.lists is True
    assert not hasattr(interpreted_kernel(TABLEAUS["DOPRI5"]).step, "lists")


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("n", [1, 2, 4, WIDE_N])
@pytest.mark.parametrize("list_rhs", [False, True], ids=["array-rhs", "list-rhs"])
def test_a_list_in_gives_lists_with_the_bits_of_the_array_call(name, n, list_rhs):
    # two steps, the second from the first's end point and reuse slots, so
    # the list body also starts from a k1 it was handed
    rhs, y = list_system(n)
    step = METHODS[name]._step
    f, _ = _entry_check(ODEProblem(n, rhs, list_rhs=list_rhs), y, 0.3, 0.4, 0.05)
    want_reuse, got_reuse = [None, None], [None, None]
    want, got = (y, y), (y.tolist(), None)
    for t in (0.3, 0.35):
        want = step(rhs, t, want[0], 0.05, want_reuse)
        got = step(f, t, got[0], 0.05, got_reuse)
        assert [type(v) for v in want] == [np.ndarray, np.ndarray]
        assert [type(v) for v in got] == [list, list]
        assert all(type(x) is float for v in got for x in v)
        assert [np.array(v).tobytes() for v in got] == [v.tobytes() for v in want]
        assert [type(v) for v in got_reuse] == [type(v) for v in want_reuse]
        assert slot_bytes(got_reuse) == slot_bytes(want_reuse)
        want_reuse[0], got_reuse[0] = want_reuse[1], got_reuse[1]
    assert rhs.kinds == ({list, np.ndarray} if list_rhs else {np.ndarray})


@pytest.mark.parametrize("name", sorted(METHODS))
def test_a_list_longer_than_wide_n_runs_the_list_body(monkeypatch, name):
    # the kind of y alone picks the body, so a list of any length runs the
    # list body; it has the bits of the array call that runs that body too
    n = WIDE_N + 1
    rhs, y = list_system(n)
    step = METHODS[name]._step
    f, _ = _entry_check(ODEProblem(n, rhs, list_rhs=True), y, 0.3, 0.35, 0.05)
    got = step(f, 0.3, y.tolist(), 0.05)
    assert rhs.kinds == {list}
    assert [type(v) for v in got] == [list, list]
    monkeypatch.setattr(stepcontrol, "WIDE_N", n)
    want = step(f, 0.3, y, 0.05)
    assert [np.array(v).tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.parametrize("kind", ["generated", "interpreted", "user", "unmarked"])
@pytest.mark.parametrize("n", [2, WIDE_N + 1])
def test_what_the_drivers_hand_each_kernel(kind, n):
    # only a step marked lists gets the list state, and only up to WIDE_N
    rhs, y_0 = list_system(n)
    seen = set()

    def recorded(step, marked=False):
        def wrapper(f, t, y, h, reuse=None):
            seen.add(type(y))
            return step(f, t, y, h, reuse)

        if marked:
            wrapper.lists = True
        return wrapper

    dopri5 = METHODS["DOPRI5"].KERNEL
    if kind == "generated":
        k = replace(dopri5, step=recorded(dopri5.step, marked=True))
    elif kind == "interpreted":
        interpreted = interpreted_kernel(TABLEAUS["DOPRI5"])
        k = replace(interpreted, step=recorded(interpreted.step))
    elif kind == "user":
        def heun(f, t, y, h, reuse=None):
            k1 = f(t, y)
            k2 = f(t + h, y + h * k1)
            return y + h * k1, y + 0.5 * h * (k1 + k2)

        k = StepKernel(name="Heun", order=1, stages=2, step=recorded(heun))
    else:
        k = unmarked(replace(dopri5, step=recorded(dopri5.step)))
    prob = ODEProblem(n, rhs, list_rhs=True)
    adaptive_integrate(k, prob, Tolerances(1e-3, 1e-3), y_0, 0.0, 0.5)
    fixed_integrate(k, prob, 0.1, y_0, 0.0, 0.5)
    assert seen == ({list} if kind == "generated" and n <= WIDE_N else {np.ndarray})


def module_bytes(module, name, prob, y_0, t_stop):
    """run_bytes through the module's own five drivers."""
    drivers = [getattr(module, name + suffix)
               for suffix in ("", "_last", "_info", "_fixed", "_fixed_last")]
    traj, (t_n, y_n), log = (d(prob, 1e-6, 1e-6, y_0, 0.0, t_stop) for d in drivers[:3])
    fixed, (t_f, y_f) = (d(prob, t_stop / 500, y_0, 0.0, t_stop / 10) for d in drivers[3:])
    arrays = (traj.times, traj.states, np.float64(t_n), y_n, log.accepted_t, log.accepted_h,
              log.rejected_t, log.rejected_h, log.errors, fixed.times, fixed.states,
              np.float64(t_f), y_f)
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("problem", PROBLEM_NAMES)
def test_marked_and_unmarked_steps_give_the_same_bits(name, problem):
    case = benchmark_case(problem)
    module = METHODS[name]
    want = module_bytes(module, name, case.problem, case.y_0, case.t_stop)
    assert run_bytes(unmarked(module.KERNEL), case.problem, case.y_0, case.t_stop) == want


def error_norm_inputs(n):
    """Seeded (y, y_hat, tol) triples of n components, with NaN and inf
    differences, overflowing squares, zero differences and zero scales."""
    rng = np.random.default_rng(zlib.crc32(f"error norm lists {n}".encode()))
    specials = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324]
    for trial in range(120):
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        y_hat = y + rng.standard_normal(n) * 10.0 ** rng.uniform(-14, 0, n)
        where = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
        if trial % 4 == 1:
            target = y if rng.integers(2) else y_hat
            target[where] = rng.choice(specials, size=where.size)
        elif trial % 4 == 2:
            y[where] = y_hat[where] = rng.choice([0.0, -0.0, 1.0], size=where.size)
        elif trial % 4 == 3:
            y[where] = 0.0
            y_hat[where] = rng.choice([0.0, -0.0, 1e-300], size=where.size)
        a_tol = 0.0 if trial % 2 else float(10.0 ** rng.uniform(-12, -3))
        yield y, y_hat, Tolerances(a_tol, float(10.0 ** rng.uniform(-12, -3)))


def array_formula(y, y_hat, tol):
    """E by numpy on whole arrays, as error_norm's docstring states it."""
    d = y - y_hat
    sc = tol.a_tol + np.maximum(np.abs(y), np.abs(y_hat)) * tol.r_tol
    if not np.all(np.isfinite(d)) or np.any((sc == 0.0) & (d != 0.0)):
        return math.inf
    q = d / np.where(sc == 0.0, 1.0, sc)
    s = float(np.mean(q * q))
    return math.sqrt(s) if math.isfinite(s) else math.inf


@pytest.mark.parametrize("n", range(1, WIDE_N + 1))
def test_error_norm_on_lists_has_the_bits_of_the_array_call(n):
    # lists of fewer than 8 floats take the float loop, longer ones the
    # array path
    for y, y_hat, tol in error_norm_inputs(n):
        want = np.float64(error_norm(y, y_hat, tol)).tobytes()
        assert np.float64(error_norm(y.tolist(), y_hat.tolist(), tol)).tobytes() == want
        assert np.float64(array_formula(y, y_hat, tol)).tobytes() == want


@pytest.mark.parametrize("y, y_hat", [([], []), ([1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0]),
                                      ([0.0] * (WIDE_N + 1), [0.0] * WIDE_N),
                                      ([[1.0], [2.0]], [[1.0], [2.0]])])
def test_error_norm_refuses_unequal_empty_or_nested_lists(y, y_hat):
    with pytest.raises(ValueError, match="equal-length nonempty vectors"):
        error_norm(y, y_hat, Tolerances(1e-6, 1e-6))


@pytest.mark.parametrize("n", [2, WIDE_N + 1])
@pytest.mark.parametrize("shape", [(2, 2), (3,), (1,)])
@pytest.mark.parametrize("form", [np.ones, lambda shape: np.ones(shape).tolist()],
                         ids=["array", "list"])
@pytest.mark.parametrize("driver", ["adaptive", "fixed"])
def test_a_kernel_result_that_is_not_n_floats_is_a_value_error(n, shape, form, driver):
    # the bad result comes on the third step, after two good ones
    calls = []

    def step(f, t, y, h, reuse=None):
        calls.append(t)
        good = np.asarray(y) + h
        return (form(shape) if len(calls) == 3 else good), good

    k = StepKernel(name="bad", order=1, stages=1, step=step)
    expected = rf"kernel 'bad' returned shape {re.escape(str(shape))}, expected \({n},\)"
    with pytest.raises(ValueError, match=expected):
        if driver == "adaptive":
            adaptive_integrate(k, lambda t, y: y, Tolerances(1e-6, 1e-6), np.zeros(n), 0.0,
                               100.0, options=IntegrationOptions(h0=0.1))
        else:
            fixed_integrate(k, lambda t, y: y, 0.1, np.zeros(n), 0.0, 1.0)
    assert len(calls) == 3


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("n", [2, WIDE_N + 1])
def test_the_api_boundary_hands_back_float_arrays(kind, n):
    k = make_kernel(kind)
    rhs, y_0 = list_system(n)
    for prob in (ODEProblem(n, rhs), ODEProblem(n, rhs, list_rhs=True)):
        for run in (lambda **kw: adaptive_integrate(k, prob, Tolerances(1e-6, 1e-6), y_0,
                                                    0.0, 1.0, **kw),
                    lambda **kw: fixed_integrate(k, prob, 0.1, y_0, 0.0, 1.0, **kw)):
            traj = run()
            assert traj.states.dtype == np.float64 and traj.states.shape[1:] == (n,)
            assert traj.times.dtype == np.float64
            t_n, y_n = run(last=True)
            assert type(t_n) is float
            assert_float_state(y_n, n)
            assert y_n.tobytes() == traj.states[-1].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("n", [2, WIDE_N + 1])
def test_every_integration_error_carries_a_float_state(kind, n):
    k = make_kernel(kind)
    rhs, y_0 = list_system(n)
    with pytest.raises(MaxStepsExceeded) as info:
        adaptive_integrate(k, rhs, Tolerances(1e-6, 1e-6), y_0, 0.0, 1.0,
                           options=IntegrationOptions(max_steps=3))
    assert_float_state(info.value.y, n)

    # every step across t = 0.5 meets a NaN, so h falls below its floor
    with pytest.raises(StepSizeUnderflow) as info:
        adaptive_integrate(k, lambda t, y: y * math.nan if t > 0.5 else -y,
                           Tolerances(1e-6, 1e-6), y_0, 0.0, 1.0)
    assert_float_state(info.value.y, n)
    assert info.value.t <= 0.5 and np.all(np.isfinite(info.value.y))

    # y' = y^2 from y_0 = 1 blows up at t = 1
    with pytest.raises(DivergenceError) as info:
        fixed_integrate(k, lambda t, y: y * y, 0.05, np.ones(n), 0.0, 10.0)
    assert_float_state(info.value.y, n)
    assert np.all(np.isfinite(info.value.y))


def test_an_array_only_rhs_in_a_list_rhs_problem_is_named():
    # dataclasses.replace keeps list_rhs, so this rhs is handed lists
    case = benchmark_case("vdp")
    prob = replace(case.problem, rhs=lambda t, y: -y)
    with pytest.raises(TypeError) as info:
        METHODS["Fehlberg45"].Fehlberg45_last(prob, 1e-6, 1e-6, case.y_0, 0.0, 1.0)
    assert str(info.value) == ("the rhs of a list_rhs problem must take a list of 2 floats, "
                               "or be built with list_rhs=False")
    assert isinstance(info.value.__cause__, TypeError)
    assert "unary -" in str(info.value.__cause__)
