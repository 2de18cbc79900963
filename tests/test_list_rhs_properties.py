"""Property: on random nonlinear systems of at most WIDE_N components, the
plain-float rhs form (ODEProblem.list_rhs) gives every method's generated
drivers the bits of the array form, with the same number of rhs calls."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rkforge.generated import METHODS  # noqa: E402
from rkforge.stepcontrol import WIDE_N, ODEProblem  # noqa: E402
from test_list_rhs import T_STOP, list_system, run_bytes  # noqa: E402


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(METHODS)), st.integers(1, WIDE_N), st.integers(0, 2 ** 16),
       st.sampled_from([(1e-4, 1e-4), (1e-8, 1e-8), (1e-9, 0.0)]))
def test_list_form_matches_array_form(name, n, seed, tol):
    rhs, y_0 = list_system(n, seed)
    k = METHODS[name].KERNEL
    want = run_bytes(k, ODEProblem(n, rhs), y_0, T_STOP, tol)
    calls = rhs.calls
    assert run_bytes(k, ODEProblem(n, rhs, list_rhs=True), y_0, T_STOP, tol) == want
    assert rhs.calls == 2 * calls
