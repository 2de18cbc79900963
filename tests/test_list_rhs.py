"""The plain-float rhs form (ODEProblem.list_rhs) against the array form.

A problem that opts in gives every driver the same bits as the same rhs
used through arrays, with the same number of rhs calls.  Up to WIDE_N a
generated _step passes such an rhs its stage lists; the interpreted kernel,
any other StepKernel and every system above WIDE_N still call it with float
arrays and get float arrays back.
"""
import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from rkforge import shipped_methods
from rkforge.generated import METHODS
from rkforge.problems import PROBLEM_NAMES, benchmark_case
from rkforge.stepcontrol import (
    WIDE_N,
    ODEProblem,
    StepKernel,
    Tolerances,
    _entry_check,
    adaptive_integrate,
    fixed_integrate,
    integrate_info,
    interpreted_kernel,
)
from test_stage_reuse import Counted

TABLEAUS = {t.name: t for t in shipped_methods()}
SIZES = [1, 2, 4, WIDE_N, WIDE_N + 1]
T_STOP = 2.0


def kernel(name, body):
    return METHODS[name].KERNEL if body == "generated" else interpreted_kernel(TABLEAUS[name])


def list_system(n, seed=0):
    """A seeded non-autonomous nonlinear system of n components on plain
    floats, in both forms: a list in gives a list out, an array an array.
    Returns (rhs, y_0); rhs.kinds records the type of every input and
    rhs.calls counts them."""
    rng = np.random.default_rng(zlib.crc32(f"list rhs {n} {seed}".encode()))
    mat = (rng.standard_normal((n, n)) / (2.0 * n)).tolist()
    phase = rng.uniform(0.0, 1.0, n).tolist()

    def rhs(t, y):
        rhs.kinds.add(type(y))
        rhs.calls += 1
        yl = y if type(y) is list else y.tolist()
        dy = [sum(m * v for m, v in zip(row, yl)) - 0.1 * u ** 3 + math.sin(t + p)
              for row, u, p in zip(mat, yl, phase)]
        return dy if yl is y else np.array(dy)

    rhs.kinds, rhs.calls = set(), 0
    return rhs, rng.uniform(-1.0, 1.0, n)


def run_bytes(k, prob, y_0, t_stop, tol=(1e-6, 1e-6)):
    """Every output of the four drivers, as bytes; the fixed-step runs take
    50 steps over the first tenth of the interval."""
    tol = Tolerances(*tol)
    traj = adaptive_integrate(k, prob, tol, y_0, 0.0, t_stop)
    t_n, y_n = adaptive_integrate(k, prob, tol, y_0, 0.0, t_stop, last=True)
    log = integrate_info(k, prob, tol, y_0, 0.0, t_stop)
    fixed = fixed_integrate(k, prob, t_stop / 500, y_0, 0.0, t_stop / 10)
    t_f, y_f = fixed_integrate(k, prob, t_stop / 500, y_0, 0.0, t_stop / 10, last=True)
    arrays = (traj.times, traj.states, np.float64(t_n), y_n, log.accepted_t, log.accepted_h,
              log.rejected_t, log.rejected_h, log.errors, fixed.times, fixed.states,
              np.float64(t_f), y_f)
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("n", SIZES)
def test_same_bits_as_the_array_form(name, body, n):
    rhs, y_0 = list_system(n)
    k = kernel(name, body)
    want = run_bytes(k, ODEProblem(n, rhs), y_0, T_STOP)
    assert rhs.kinds == {np.ndarray}
    rhs.kinds.clear()
    assert run_bytes(k, ODEProblem(n, rhs, list_rhs=True), y_0, T_STOP) == want
    # only a generated kernel up to WIDE_N passes lists
    assert rhs.kinds == ({list} if body == "generated" and n <= WIDE_N else {np.ndarray})


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("problem", PROBLEM_NAMES)
def test_shipped_problems_same_bits_as_the_array_form(name, problem):
    case = benchmark_case(problem)
    assert case.problem.list_rhs
    args = (METHODS[name].KERNEL, case.y_0, case.t_stop)
    want = run_bytes(args[0], replace(case.problem, list_rhs=False), *args[1:])
    assert run_bytes(args[0], case.problem, *args[1:]) == want


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("problem", ["arenstorf:1", "vdp"])
def test_rhs_calls_counted_exactly(name, problem):
    # the list path reuses stages exactly as the array path does
    case = benchmark_case(problem)
    counts = []
    for list_rhs in (False, True):
        f = Counted(case.problem.rhs)
        prob = replace(case.problem, rhs=f, list_rhs=list_rhs)
        log = integrate_info(METHODS[name].KERNEL, prob, Tolerances(1e-7, 1e-7),
                             case.y_0, case.t_start, case.t_stop)
        counts.append((f.calls, log.accepted_t.size, log.rejected_t.size))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("bad", [lambda dy: dy[:-1], lambda dy: dy + [0.0],
                                 lambda dy: np.zeros(len(dy) + 1), lambda dy: dy[0]],
                         ids=["short", "long", "array", "scalar"])
def test_wrong_length_is_a_value_error_mid_run(body, bad):
    rhs, y_0 = list_system(4)
    calls = []

    def failing(t, y):
        calls.append(t)
        dy = rhs(t, y)
        return bad(list(dy)) if len(calls) > 10 else dy

    prob = ODEProblem(4, failing, list_rhs=True)
    with pytest.raises(ValueError, match=r"rhs returned shape \(\d*,?\), expected \(4,\)"):
        adaptive_integrate(kernel("DOPRI5", body), prob, Tolerances(1e-6, 1e-6),
                           y_0, 0.0, T_STOP)
    assert len(calls) == 11


def test_a_user_kernel_calling_with_arrays_gets_arrays():
    rhs, y_0 = list_system(3)
    seen = []

    def heun_step(f, t, y, h, reuse=None):
        k1 = f(t, y)
        k2 = f(t + h, y + h * k1)
        seen.extend((k1, k2))
        return y + h * k1, y + 0.5 * h * (k1 + k2)

    heun = StepKernel(name="Heun", order=1, stages=2, step=heun_step)
    prob = ODEProblem(3, rhs, list_rhs=True)
    got = run_bytes(heun, prob, y_0, T_STOP, tol=(1e-3, 1e-3))
    assert seen and all(type(k) is np.ndarray and k.dtype == np.float64 and k.shape == (3,)
                        for k in seen)
    assert got == run_bytes(heun, ODEProblem(3, rhs), y_0, T_STOP, tol=(1e-3, 1e-3))


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("n", [2, WIDE_N + 1])
def test_direct_step_with_an_array_f_is_unchanged(name, n):
    # criterion 3 calls _step with a bare f on arrays: k1 gets y itself,
    # every stage an array, and the result equals the list path's bits
    rhs, y = list_system(n)
    inputs = []

    def f(t, y_):
        inputs.append(y_)
        return rhs(t, y_)

    step = METHODS[name]._step
    reuse = [None, None]
    y_next, y_hat_next = step(f, 0.3, y, 0.05, reuse)
    assert inputs[0] is y and all(type(v) is np.ndarray for v in inputs)
    assert len(inputs) == TABLEAUS[name].s

    marked, _ = _entry_check(ODEProblem(n, rhs, list_rhs=True), y, 0.3, 0.35, 0.05)
    assert marked.lists
    rhs.kinds.clear()
    marked_reuse = [None, None]
    got = step(marked, 0.3, y, 0.05, marked_reuse)
    assert rhs.kinds == ({list} if n <= WIDE_N else {np.ndarray})
    assert [a.tobytes() for a in got] == [y_next.tobytes(), y_hat_next.tobytes()]
    assert type(reuse[0]) is (list if n <= WIDE_N else np.ndarray)
    assert [type(v) for v in marked_reuse] == [type(v) for v in reuse]
    assert [None if v is None else np.asarray(v).tobytes() for v in marked_reuse] == \
        [None if v is None else np.asarray(v).tobytes() for v in reuse]


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("n", [1, 2, WIDE_N])
def test_direct_step_hands_the_drivers_f_of_an_array_rhs_lists(name, n):
    # the drivers' f carries the one mark, lists, for every problem, so a
    # _step given an array hands it the stage lists; the array rhs behind it
    # still gets float arrays, and two steps keep the bare call's bits
    rhs, y_0 = list_system(n)
    f, _ = _entry_check(ODEProblem(n, rhs), y_0, 0.3, 0.4, 0.05)
    seen = set()

    def spy(t, y):
        seen.add(type(y))
        return f(t, y)

    spy.lists = getattr(f, "lists", False)
    step = METHODS[name]._step

    def two_steps(g):
        y, reuse, out = y_0, [None, None], []
        for t in (0.3, 0.35):
            y_next, y_hat_next = step(g, t, y, 0.05, reuse)
            out += [type(v) for v in reuse]
            out += [np.asarray(v).tobytes() for v in (y_next, y_hat_next, *reuse)
                    if v is not None]
            y, reuse[0] = y_next, reuse[1]
        return out

    want = two_steps(rhs)
    rhs.kinds.clear()
    assert two_steps(spy) == want
    assert seen == {list}
    assert rhs.kinds == {np.ndarray}


def test_marked_f_returns_lists_as_is_and_anything_else_as_a_float_array():
    f, y = _entry_check(ODEProblem(2, lambda t, y: [1, 2] if type(y) is list else (1, 2),
                                   list_rhs=True), [0.0, 0.0], 0.0, 1.0, 0.1)
    out = f(0.0, y)
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.tolist() == [1.0, 2.0]
    assert f(0.0, [0.0, 0.0]) == [1, 2]


@pytest.mark.parametrize("name", ["DOPRI5", "Fehlberg45"])
@pytest.mark.parametrize("form", [tuple, np.array], ids=["tuple", "array"])
def test_a_list_rhs_may_return_any_sequence(name, form):
    rhs, y_0 = list_system(3)
    want = run_bytes(METHODS[name].KERNEL, ODEProblem(3, rhs), y_0, T_STOP)
    prob = ODEProblem(3, lambda t, y: form(rhs(t, y)), list_rhs=True)
    assert run_bytes(METHODS[name].KERNEL, prob, y_0, T_STOP) == want
