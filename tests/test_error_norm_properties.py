"""Properties of stepcontrol.error_norm on both of its paths.

A list of fewer than 8 floats takes the float loop, anything else the
array path.  Each property is drawn on both sides of WIDE_N and checked on
the arrays and on the same values as lists.
"""
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rkforge.stepcontrol import WIDE_N, Tolerances, error_norm  # noqa: E402

SIZES = st.one_of(st.integers(1, WIDE_N), st.integers(WIDE_N + 1, 3 * WIDE_N))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
TOLERANCES = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
    lambda pair: pair[0] + pair[1] > 0).map(lambda pair: Tolerances(*pair))

# derandomized, so every run draws the same examples
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def vectors(n):
    return st.lists(FINITE, min_size=n, max_size=n).map(np.array)


def norms(y, y_hat, tol):
    """error_norm on the arrays and on the same values as lists, neither of
    which may warn, for a non-finite or overflowing input either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [error_norm(y, y_hat, tol), error_norm(y.tolist(), y_hat.tolist(), tol)]


@st.composite
def pairs(draw):
    n = draw(SIZES)
    return draw(vectors(n)), draw(vectors(n))


@PROPERTY
@given(pairs(), TOLERANCES, st.data())
def test_inf_for_nonfinite_difference(pair, tol, data):
    y, y_hat = pair
    which = y if data.draw(st.booleans()) else y_hat
    which[data.draw(st.integers(0, y.size - 1))] = data.draw(
        st.sampled_from([math.inf, -math.inf, math.nan]))
    assert norms(y, y_hat, tol) == [math.inf] * 2


@PROPERTY
@given(pairs(), st.floats(1e-12, 1e-3), st.data())
def test_inf_for_nonzero_difference_at_zero_scale(pair, r_tol, data):
    # at a_tol = 0 a subnormal component has scale |y|*r_tol = 0
    y, y_hat = pair
    k = data.draw(st.integers(0, y.size - 1))
    y[k], y_hat[k] = 0.0, data.draw(st.sampled_from([1, -1])) * data.draw(
        st.integers(1, 400)) * 5e-324
    assert norms(y, y_hat, Tolerances(0.0, r_tol)) == [math.inf] * 2


@PROPERTY
@given(SIZES.flatmap(vectors), TOLERANCES)
def test_zero_when_equal(y, tol):
    assert norms(y, y.copy(), tol) == [0.0] * 2


@PROPERTY
@given(pairs(), TOLERANCES)
def test_nonnegative(pair, tol):
    e, e_list = norms(*pair, tol)
    assert e >= 0.0 and e_list == e
