"""The array path above WIDE_N against the formulas it replaced, bit for bit.

error_norm and array_step compute their results in place, with fewer
temporaries than the textbook formulas.  The formulas are kept here as the
reference: the rewrite must perform the same IEEE operations in the same
order, so every result has the same bytes.
"""
import math
import zlib

import numpy as np
import pytest

from rkforge.generated import METHODS
from rkforge.stepcontrol import WIDE_N, Tolerances, array_step, error_norm
import test_stepcontrol

TOLERANCES = [Tolerances(1e-8, 1e-8), Tolerances(0.0, 1e-6), Tolerances(1e-10, 0.0)]
SPECIALS = [math.nan, math.inf, -math.inf]

# error_norm's array formula from before the in-place rewrite, as
# test_stepcontrol keeps it
reference_norm = test_stepcontrol.TestErrorNorm.array_formula

# non-finite entries and squares that overflow are part of the cases
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def reference_step(coefficients, f, t_m, y_m, h):
    """array_step's stage sums as they stood before the in-place rewrite."""
    a, b, b_hat, c = coefficients
    k = np.empty((a.shape[0], y_m.shape[0]))
    k[0] = f(t_m, y_m)
    for i in range(1, a.shape[0]):
        k[i] = f(t_m + c[i] * h, y_m + h * (a[i, :i] @ k[:i]))
    return y_m + h * (b @ k), y_m + h * (b_hat @ k)


def same_bits(got, expected):
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


def norm_cases(seed, count):
    """Seeded (y, y_hat) pairs with N = WIDE_N + 1 .. 2999, each with one of
    the edge cases the norm must map like the reference."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(WIDE_N + 1, 3000))
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
        y_hat = y + rng.standard_normal(n) * 10.0 ** rng.uniform(-14, -2) * np.abs(y)
        idx = rng.integers(0, n, int(rng.integers(1, 6)))
        kind = case % 6
        if kind == 1:    # exact zeros: a zero scale at a_tol = 0, zero difference
            y[idx] = y_hat[idx] = 0.0
        elif kind == 2:  # subnormal components: zero scale, nonzero difference
            y[idx] = 0.0
            y_hat[idx] = rng.integers(1, 400, idx.size) * 5e-324
        elif kind == 3:  # NaN or an infinity in either argument
            (y if rng.integers(2) else y_hat)[idx] = rng.choice(SPECIALS, idx.size)
        elif kind == 4:  # squared ratios that overflow (where r_tol = 0)
            y[idx] = 1e300
            y_hat[idx] = -1e300
        elif kind == 5:  # finite entries whose difference overflows
            y[idx] = rng.choice([1.7e308, -1.7e308], idx.size)
            y_hat[idx] = -y[idx]
        yield y, y_hat


@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"{t.a_tol:g},{t.r_tol:g}")
def test_norm_matches_reference(tol):
    results = set()
    for y, y_hat in norm_cases(zlib.crc32(repr(tol).encode()), 300):
        expected = reference_norm(y, y_hat, tol)
        got = error_norm(y, y_hat, tol)
        assert same_bits(got, expected), (y.size, got, expected)
        results.add("inf" if got == math.inf else "finite")
    assert results == {"inf", "finite"}  # both outcomes were exercised


@pytest.mark.parametrize("n", [WIDE_N, WIDE_N + 1, 3 * WIDE_N, 1000])
@pytest.mark.parametrize("tol", TOLERANCES, ids=lambda t: f"{t.a_tol:g},{t.r_tol:g}")
def test_norm_leaves_its_arguments_alone(n, tol):
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n)
    y_hat = y + 1e-7 * rng.standard_normal(n)
    y[0] = y_hat[0] = 0.0  # a zero scale at a_tol = 0
    before = y.tobytes(), y_hat.tobytes()
    error_norm(y, y_hat, tol)
    assert (y.tobytes(), y_hat.tobytes()) == before


@pytest.mark.parametrize("name", sorted(METHODS))
def test_kernel_matches_reference(name):
    coefficients = METHODS[name]._ARRAYS
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for n in (WIDE_N + 1, 40, 257, 2999):
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        h = 10.0 ** rng.uniform(-4, -1)
        t0 = rng.uniform(-5, 5)
        w = rng.standard_normal(n)
        f = lambda t, yy: w * yy + np.cos(t + yy)
        got = array_step(coefficients, f, t0, y, h)[:2]
        expected = reference_step(coefficients, f, t0, y, h)
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes(), (name, n)
