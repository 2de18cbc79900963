"""Property: every adaptive run equals its reuse-free twin bit for bit.

Over method, kernel body, tolerance pair and problem, the trajectory and the
StepLog of a run with stage reuse equal those of the same kernel evaluating
every stage (test_stage_reuse.reuse_free), and the run keeps the drivers'
contract: strictly increasing times that end exactly at t_stop, accepted
errors E <= 1 and at most max_steps attempts.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rkforge.generated import METHODS  # noqa: E402
from rkforge.problems import PROBLEM_NAMES  # noqa: E402
from rkforge.stepcontrol import (  # noqa: E402
    IntegrationOptions,
    MaxStepsExceeded,
    Tolerances,
    adaptive_integrate,
    integrate_info,
)
from test_stage_reuse import case, kernel, reuse_free  # noqa: E402


MAX_STEPS = 1500


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(METHODS)), st.sampled_from(["generated", "interpreted"]),
       st.sampled_from([(1e-4, 1e-4), (1e-7, 1e-7), (1e-8, 0.0)]),
       st.sampled_from(PROBLEM_NAMES + ("system40",)))
def test_driver_matches_reuse_free_twin(name, body, tol, problem):
    rhs, y_0, t_start, t_stop = case(problem)
    options = IntegrationOptions(max_steps=MAX_STEPS)
    runs = []
    for k in (kernel(name, body), reuse_free(kernel(name, body))):
        args = (k, rhs, Tolerances(*tol), y_0, t_start, t_stop)
        try:
            runs.append((adaptive_integrate(*args, options=options),
                         integrate_info(*args, options=options)))
        except MaxStepsExceeded as exc:
            runs.append((exc, exc.log))
    (got, log), (want, want_log) = runs
    for field in ("accepted_t", "accepted_h", "rejected_t", "rejected_h", "errors"):
        assert getattr(log, field).tobytes() == getattr(want_log, field).tobytes()
    attempts = log.accepted_t.size + log.rejected_t.size
    assert np.all(log.errors <= 1.0)
    if isinstance(got, MaxStepsExceeded):
        assert isinstance(want, MaxStepsExceeded) and attempts == MAX_STEPS
        assert (got.t, got.y.tobytes()) == (want.t, want.y.tobytes())
        return
    assert attempts <= MAX_STEPS
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert np.all(np.diff(got.times) > 0) and got.times[-1] == t_stop
