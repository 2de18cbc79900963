"""Properties of the step-size controller: propose_step_size is monotone in
E_m and clamped, rescale_rejected always shrinks h, never below h / f_max.

The parameters are those the drivers use, ControllerParams.for_order(p).
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rkforge.stepcontrol import (  # noqa: E402
    ControllerParams,
    propose_step_size,
    rescale_rejected,
)

PARAMS = st.integers(1, 12).map(ControllerParams.for_order)
# normal floats, so that h / f_s-sized divisors cannot round back to h
STEPS = st.floats(1e-300, 1e300)
ERRORS = st.floats(0.0, 1e300)
PREVIOUS = st.floats(1e-300, 1e300)

# derandomized, so every run draws the same examples
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@PROPERTY
@given(PARAMS, STEPS, ERRORS, ERRORS, PREVIOUS)
def test_proposal_non_increasing_in_error(cp, h, e1, e2, e_prev):
    small, large = sorted((e1, e2))
    assert propose_step_size(h, small, e_prev, cp) >= propose_step_size(h, large, e_prev, cp)


@PROPERTY
@given(PARAMS, STEPS, ERRORS, PREVIOUS)
def test_proposal_clamped(cp, h, e_m, e_prev):
    assert h / cp.f_max <= propose_step_size(h, e_m, e_prev, cp) <= h / cp.f_min


@PROPERTY
@given(PARAMS, STEPS, st.floats(1.0, exclude_min=True, allow_nan=False))
def test_rejection_shrinks_within_clamp(cp, h, e_m):
    assert h / cp.f_max <= rescale_rejected(h, e_m, cp) < h
