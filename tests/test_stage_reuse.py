"""The drivers evaluate the rhs once per distinct (t, y).

A retried attempt starts from the k1 its rejected predecessor computed, and
the three first-same-as-last (FSAL) methods start each accepted step from the
last stage of the one before.  The oracle for every run is a reuse-free twin:
the same kernel behind a step that drops ``reuse`` and evaluates every stage,
which must give the same bits.
"""
import zlib
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from rkforge import shipped_methods
from rkforge.generated import METHODS
from rkforge.problems import benchmark_case
from rkforge.stepcontrol import (
    WIDE_N,
    DivergenceError,
    Tolerances,
    adaptive_integrate,
    fixed_integrate,
    integrate_info,
    interpreted_kernel,
)
from rkforge.tableau import ButcherTableau

TABLEAUS = {t.name: t for t in shipped_methods()}
# first same as last in exact arithmetic: c_s = 1, the last row of a is b and b_s = 0
FSAL = {name for name, t in TABLEAUS.items()
        if t.c[-1] == 1 and tuple(t.a[-1]) == tuple(t.b) and t.b[-1] == 0}
# the stages that the fixed form of a generated list body skips, since
# neither y_next nor the reuse hand-over reads them: Fehlberg45's stage 6 and
# DVERK65's stage 6 feed only b_hat, Fehlberg78B's stages 12 and 13 only b_hat
# and stage 13's row of a
FIXED_SKIPS = {"Fehlberg45": 1, "DVERK65": 1, "Fehlberg78B": 2}

_RNG = np.random.default_rng(zlib.crc32(b"stage reuse"))
_MAT = _RNG.standard_normal((40, 40)) / 8.0
Y40 = _RNG.uniform(-1.0, 1.0, 40)


def system40(t, y):
    """A seeded non-autonomous nonlinear system of 40 components."""
    return _MAT @ y - 0.1 * y ** 3 + np.sin(2.0 * t)


def case(name):
    """(rhs, y_0, t_start, t_stop) of a shipped problem or of system40."""
    if name == "system40":
        return system40, Y40, 0.0, 3.0
    c = benchmark_case(name)
    return c.problem.rhs, c.y_0, c.t_start, c.t_stop


def kernel(name, body):
    return METHODS[name].KERNEL if body == "generated" else interpreted_kernel(TABLEAUS[name])


BS32 = ButcherTableau(
    name="BS32", description="", s=4, p=3, p_hat=2,
    a=((0, 0, 0, 0), (F(1, 2), 0, 0, 0), (0, F(3, 4), 0, 0),
       (F(2, 9), F(1, 3), F(4, 9), 0)),
    b=(F(2, 9), F(1, 3), F(4, 9), 0), b_hat=(F(7, 24), F(1, 4), F(1, 3), F(1, 8)),
    c=(0, F(1, 2), F(3, 4), 1))


def reuse_free(k):
    """k behind a step that ignores ``reuse`` and evaluates every stage."""
    step = k.step
    return replace(k, step=lambda f, t, y, h, reuse=None: step(f, t, y, h))


class Counted:
    def __init__(self, rhs):
        self.rhs, self.calls = rhs, 0

    def __call__(self, t, y):
        self.calls += 1
        return self.rhs(t, y)


def test_fsal_set():
    assert FSAL == {"ERK43b", "DPRK547S", "DOPRI5"}


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("body, problem", [("generated", "arenstorf:1"),
                                           ("generated", "system40"),
                                           ("interpreted", "arenstorf:1"),
                                           ("interpreted", "system40")])
def test_rhs_calls_counted_exactly(name, body, problem):
    # s calls per attempt, less one per retry and, for FSAL methods, one per
    # accepted step that has a successor
    rhs, y_0, t_start, t_stop = case(problem)
    f = Counted(rhs)
    log = integrate_info(kernel(name, body), f, Tolerances(1e-7, 1e-7), y_0, t_start, t_stop)
    accepted, rejected = log.accepted_t.size, log.rejected_t.size
    if problem == "arenstorf:1":
        assert rejected > 0
    s = TABLEAUS[name].s
    expected = s * (accepted + rejected) - rejected - (name in FSAL) * (accepted - 1)
    assert f.calls == expected


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("body, n", [("generated", 4), ("generated", 40), ("interpreted", 4)])
def test_which_kernels_hand_back_the_last_stage(name, body, n):
    rng = np.random.default_rng(zlib.crc32(f"{name} {n}".encode()))
    mat = rng.standard_normal((n, n))
    f = lambda t, y: mat @ y + np.cos(t + y)
    y, t, h = rng.standard_normal(n), 0.3, 0.05
    step = kernel(name, body).step
    reuse = [None, None]
    y_next, y_hat_next = step(f, t, y, h, reuse)
    assert np.asarray(reuse[0]).tobytes() == f(t, y).tobytes()
    assert (reuse[1] is not None) == (name in FSAL)
    if reuse[1] is not None:
        assert np.asarray(reuse[1]).tobytes() == f(t + h, y_next).tobytes()
    # a k1 handed in replaces the first rhs call and changes no bit
    counted = Counted(f)
    again = step(counted, t, y, h, [reuse[0], None])
    assert counted.calls == TABLEAUS[name].s - 1
    reference = step(f, t, y, h)
    for got in (again, (y_next, y_hat_next)):
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, reference))


@pytest.mark.parametrize("name", ["DOPRI5", "ERK43b"])
def test_patched_weight_turns_the_reuse_off(monkeypatch, name):
    # the check reads the constants at call time: with B_1 moved, the last
    # stage is no longer f(t + h, y_next) and must not be handed back (BH_1
    # moves with it, so that the error estimate and the step sizes stay sane)
    module = METHODS[name]
    monkeypatch.setattr(module, "B_1", module.B_1 + 1e-3)
    monkeypatch.setattr(module, "BH_1", module.BH_1 + 1e-3)
    f = lambda t, y: np.array([y[1], -y[0] + t])
    reuse = [None, None]
    module._step(f, 0.0, np.array([1.0, 0.5]), 0.1, reuse)
    assert reuse[0] is not None and reuse[1] is None
    rhs, y_0, t_start, t_stop = case("brusselator")
    tol = Tolerances(1e-6, 1e-6)
    runs = [adaptive_integrate(k, rhs, tol, y_0, t_start, t_stop)
            for k in (module.KERNEL, reuse_free(module.KERNEL))]
    assert runs[0].times.tobytes() == runs[1].times.tobytes()
    assert runs[0].states.tobytes() == runs[1].states.tobytes()


def test_fsal_tableau_of_four_stages_on_the_array_path():
    # the last row of a is b and c_4 = 1, so the array kernel takes y_next as
    # the last stage's input and hands that stage back at every step; a BLAS
    # product over all 4 stages with a zero weight could round otherwise
    step = interpreted_kernel(BS32).step
    rng = np.random.default_rng(zlib.crc32(b"BS32"))
    for _ in range(200):
        y, t, h = rng.standard_normal(40), rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.1)
        reuse = [None, None]
        y_next, _ = step(system40, t, y, h, reuse)
        assert reuse[1].tobytes() == system40(t + h, y_next).tobytes()


def test_fsal_tableau_of_four_stages_meets_the_rhs_count():
    # the count of test_rhs_calls_counted_exactly, for a tableau outside the
    # shipped file on the array path
    f = Counted(system40)
    log = integrate_info(interpreted_kernel(BS32), f, Tolerances(1e-7, 1e-7), Y40, 0.0, 3.0)
    accepted, rejected = log.accepted_t.size, log.rejected_t.size
    assert rejected > 0
    assert f.calls == 4 * (accepted + rejected) - rejected - (accepted - 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fsal_divergence_is_seen_at_one_time_by_every_body():
    # y' = y^2 from y_0 = 1 blows up at t = 1; ERK43b's last stage there is
    # infinite, and its zero weight must not make y_next NaN on the array path
    def diverges_at(k, n):
        with pytest.raises(DivergenceError) as info:
            fixed_integrate(k, lambda t, y: y * y, 0.01, np.ones(n), 0.0, 2.0)
        return info.value.t

    list_body = diverges_at(kernel("ERK43b", "generated"), 1)
    assert list_body == 1.02
    assert diverges_at(kernel("ERK43b", "interpreted"), 1) == list_body
    assert diverges_at(kernel("ERK43b", "interpreted"), WIDE_N + 1) == list_body
    assert diverges_at(kernel("ERK43b", "generated"), WIDE_N + 1) == list_body


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("body", ["generated", "interpreted"])
def test_fixed_step_time_guard(name, body):
    # on this grid the second step ends at t_next = 0.23, but its last stage
    # ran at 0.105 + (0.23 - 0.105) = 0.22999999999999998, so that stage is
    # not the third step's k1
    t_start, t_stop, h = -0.02, 1.0, 0.125
    grid = t_start + h * np.arange(1, 9)
    assert grid[0] + (grid[1] - grid[0]) != grid[1]
    rhs = lambda t, y: np.array([t * y[0] - y[1], y[0] + np.sin(t) * y[1]])
    y_0 = np.array([1.0, 0.5])
    f = Counted(rhs)
    got = fixed_integrate(kernel(name, body), f, h, y_0, t_start, t_stop)
    want = fixed_integrate(reuse_free(kernel(name, body)), rhs, h, y_0, t_start, t_stop)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    steps = got.times.size - 1
    live = TABLEAUS[name].s - FIXED_SKIPS.get(name, 0) * (body == "generated")
    assert f.calls == live * steps - (name in FSAL) * (steps - 2)
