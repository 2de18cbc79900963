"""Replay of every step sequence against the documented policies.

Adaptive runs: a recording kernel keeps (t, h, y_next, y_hat_next) of each
attempt.  The test computes E itself and replays Hairer-Norsett-Wanner II.4
as the stepcontrol module docstring states it; the driver's StepLog must
match bit for bit, and the run must end as the replay says: at t_stop, in
MaxStepsExceeded or in StepSizeUnderflow.  It uses none of error_norm,
propose_step_size, rescale_rejected or ControllerParams.

Fixed-step runs: the test builds the grid that fixed_integrate documents,
and the times, the h handed to each step and the states must match it bit
for bit.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from rkforge import shipped_methods
from rkforge.generated import METHODS
from rkforge.problems import PROBLEM_NAMES, benchmark_case
from rkforge.stepcontrol import (IntegrationOptions, MaxStepsExceeded, StepSizeUnderflow,
                                 Tolerances, fixed_integrate, integrate_info,
                                 interpreted_kernel)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    st = None

F_S, F_MIN, F_MAX, E_PREV_FLOOR = 0.9, 0.1, 5.0, 1e-4
TABLEAUS = {t.name: t for t in shipped_methods()}


def rms_error(y, y_hat, a_tol, r_tol):
    # For N <= 7 numpy's pairwise sum is one running sum from 0.0.  q * q, not
    # q ** 2, whose pow may differ; += and not sum(), which compensates.
    s = 0.0
    for u, v in zip(y, y_hat):
        d = u - v
        sc = a_tol + max(abs(u), abs(v)) * r_tol
        if not math.isfinite(d) or (sc == 0.0 and d != 0.0):
            return math.inf
        q = d / sc if sc else 0.0
        s += q * q
    return math.sqrt(s / len(y))


def kernel_of(name, body):
    return METHODS[name].KERNEL if body == "generated" else interpreted_kernel(TABLEAUS[name])


def check_replay(name, body, rhs, y_0, t_stop, tol, max_steps=3000, h0=None):
    """Replay the run of (rhs, y_0) over [0, t_stop]; return how it ended."""
    assert len(y_0) <= 7
    kernel = kernel_of(name, body)
    attempts, step = [], kernel.step

    def recording(f, t, y, h, reuse=None):
        y_next, y_hat_next = step(f, t, y, h, reuse)
        attempts.append((t, h, y_next.tolist(), y_hat_next.tolist()))
        return y_next, y_hat_next

    stop = None
    try:
        log = integrate_info(replace(kernel, step=recording), rhs, tol, y_0, 0.0, t_stop,
                             options=IntegrationOptions(h0, max_steps))
    except (MaxStepsExceeded, StepSizeUnderflow) as exc:
        log, stop = exc.log, type(exc)
    h_min = 1e4 * np.finfo(float).eps * max(t_stop, 1.0)
    b = 0.4 / kernel.order
    a = 0.7 / kernel.order - 0.75 * b
    t, h, e_prev = 0.0, h0 or t_stop / 100.0, 1.0
    accepted, rejected = [], []
    for t_m, h_m, y, y_hat in attempts:
        h_use = min(h, t_stop - t)
        assert (t_m, h_m) == (t, h_use)
        assert not (h < t_stop - t and h < h_min and t + h < t_stop)
        e = rms_error(y, y_hat, tol.a_tol, tol.r_tol)
        if e <= 1.0:
            t = t_stop if h_use >= t_stop - t else min(t + h_use, t_stop)
            accepted.append((t, h_use, e))
            h = h_use / (F_MIN if e == 0.0
                         else max(F_MIN, min(F_MAX, e ** a * e_prev ** (-b) / F_S)))
            e_prev = max(e, E_PREV_FLOOR)
        else:
            rejected.append((t, h_use))
            h = h_use / min(F_MAX, e ** a / F_S)
    acc = np.array(accepted, dtype=float).reshape(-1, 3)
    rej = np.array(rejected, dtype=float).reshape(-1, 2)
    for want, got in ((acc[:, 0], log.accepted_t), (acc[:, 1], log.accepted_h),
                      (acc[:, 2], log.errors), (rej[:, 0], log.rejected_t),
                      (rej[:, 1], log.rejected_h)):
        assert want.tobytes() == got.tobytes()
    if stop is MaxStepsExceeded:
        assert len(attempts) == max_steps and t < t_stop
    elif stop is StepSizeUnderflow:
        assert h < t_stop - t and h < h_min and t + h < t_stop
    else:
        assert t == t_stop
    return stop


@pytest.mark.parametrize("tol", [Tolerances(1e-5, 1e-5), Tolerances(0.0, 1e-6)],
                         ids=["mixed", "relative"])
@pytest.mark.parametrize("problem", PROBLEM_NAMES)
@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_benchmark_runs_replay(name, body, problem, tol):
    case = benchmark_case(problem)
    check_replay(name, body, case.problem, case.y_0, case.t_stop, tol)


@pytest.mark.parametrize("t_stop", [6.3, 0.3], ids=["rounds-short", "rounds-past"])
@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_last_step_lands_on_t_stop(name, body, t_stop):
    # y' = 0 gives E = 0, so h grows by 1/f_min: span/100, span/10, then the
    # rest, where t + (t_stop - t) rounds below t_stop (6.3) or past it (0.3).
    assert check_replay(name, body, lambda t, y: 0.0 * y, np.array([1.0, -2.0]), t_stop,
                        Tolerances(1e-6, 1e-6)) is None


@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_last_step_below_h_min_is_taken(name, body):
    # The first step stops 2**-45 short of t_stop; the step that reaches it is
    # below h_min but is taken, since it does not end before t_stop.
    assert check_replay(name, body, lambda t, y: 0.0 * y, np.array([1.0]), 1.0,
                        Tolerances(1e-6, 1e-6), h0=1.0 - 2.0 ** -45) is None


@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_error_of_exactly_one_is_accepted(name, body):
    # a_tol is the first attempt's own |y - y_hat|, so its E is exactly 1.
    y_0, t_stop = np.array([1.0]), 50.0
    y, y_hat = kernel_of(name, body).step(lambda t, y: np.array(y, dtype=float), 0.0, y_0,
                                          t_stop / 100.0)
    d = abs(y[0] - y_hat[0])
    assert d > 0.0
    check_replay(name, body, lambda t, y: y, y_0, t_stop, Tolerances(d, 0.0), max_steps=50)


@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_step_size_underflow(name, body):
    # From t = 1 on every stage is NaN, so E = inf and h shrinks below h_min.
    assert check_replay(name, body, lambda t, y: -y if t < 1.0 else y * math.nan,
                        np.array([1.0]), 2.0, Tolerances(1e-6, 1e-6)) is StepSizeUnderflow


def fixed_grid(h, t_start, t_stop):
    """The grid fixed_integrate documents: step m of n = max(1, ceil(span / h
    - 1e-9)) ends at t_start + m * h, or at t_stop if it is step n or would
    end past t_stop; the run stops once it reaches t_stop."""
    n = max(1, math.ceil((t_stop - t_start) / h - 1e-9))
    grid = [t_start]
    for m in range(1, n + 1):
        end = t_start + m * h
        grid.append(t_stop if m == n or end > t_stop else end)
        if grid[-1] == t_stop:
            break
    return grid


@pytest.mark.parametrize("t_start", [0.0, 1000.1], ids=["from-0", "from-1000.1"])
@pytest.mark.parametrize("problem", PROBLEM_NAMES)
@pytest.mark.parametrize("body", ["generated", "interpreted"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_fixed_runs_replay(name, body, problem, t_start):
    # a tenth of the case's span in steps of span / 367: 36 steps of h and a
    # truncated 37th, on a grid that rounds differently from t_start on
    case = benchmark_case(problem)
    span = (case.t_stop - case.t_start) / 10.0
    t_stop, h = t_start + span, span / 36.7
    kernel = kernel_of(name, body)
    steps, step = [], kernel.step

    def recording(f, t, y, h, reuse=None):
        y_next, y_hat_next = step(f, t, y, h, reuse)
        steps.append((t, h, np.array(y, dtype=float), np.array(y_next, dtype=float)))
        return y_next, y_hat_next

    recording.lists = getattr(step, "lists", False)  # the drivers' state stays as it is
    traced = replace(kernel, step=recording)
    traj = fixed_integrate(traced, case.problem, h, case.y_0, t_start, t_stop)
    grid = np.array(fixed_grid(h, t_start, t_stop))
    assert len(grid) == 38
    assert traj.times.tobytes() == grid.tobytes()
    t_h = np.array([(t, h_m) for t, h_m, *_ in steps])
    assert t_h.tobytes() == np.column_stack((grid[:-1], grid[1:] - grid[:-1])).tobytes()
    states = np.array([case.y_0] + [y_next for *_, y_next in steps])
    assert traj.states.tobytes() == states.tobytes()
    assert np.array([y for *_, y, _ in steps]).tobytes() == states[:-1].tobytes()
    t_n, y_n = fixed_integrate(traced, case.problem, h, case.y_0, t_start, t_stop, last=True)
    assert t_n == grid[-1] and y_n.tobytes() == states[-1].tobytes()


if st is None:
    @pytest.mark.skip(reason="needs hypothesis")
    def test_linear_systems_replay():
        pass
else:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(sorted(METHODS)), st.sampled_from(["generated", "interpreted"]),
           st.sampled_from([(1e-4, 1e-4), (1e-8, 1e-8), (0.0, 1e-6), (1e-7, 0.0)]),
           st.integers(1, 7).flatmap(lambda n: st.tuples(
               st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n),
               st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))))
    def test_linear_systems_replay(name, body, tol, system):
        entries, y_0 = system
        mat = np.array(entries).reshape(len(y_0), len(y_0))
        check_replay(name, body, lambda t, y: mat @ y, np.array(y_0), 2.0, Tolerances(*tol))
