"""Checks of the generated kernels that share no code with the renderer.

Criterion 3 and the kernel-equivalence tests compare each generated kernel
with erk_step_generic, and both read their coefficients through
render_coefficient_literal, so a rendering fault would pass them all.  The
oracles here start from the exact tableau or from scipy instead.
"""
import ast
import math
import re
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rkforge import shipped_methods
from rkforge.generated import METHODS
from rkforge.problems import benchmark_case
from rkforge.stepcontrol import WIDE_N

TABLEAUS = {t.name: t for t in shipped_methods()}

# One step with h * ||A|| about 1/4 stays within 1 ulp of max|y| on these
# seeds, and within 2.7 ulp on other seeds tried, for all nine methods on both
# bodies; 8 ulp leaves room for a different BLAS summation order.  A
# single coefficient rendered to 12 significant digits fails it.
ULP_BOUND = 8


def exact_step(tableau, a_mat, y, h):
    """One embedded step of y' = A y in Fraction arithmetic from the exact
    tableau; returns (y_next, y_hat_next) as lists of Fractions."""
    def f(v):
        return [sum(row[j] * v[j] for j in range(len(v))) for row in a_mat]

    def combine(weights, k):
        return [y[r] + h * sum((w * k_j[r] for w, k_j in zip(weights, k) if w), Fraction(0))
                for r in range(len(y))]

    k = []
    for i in range(tableau.s):
        k.append(f(combine(tableau.a[i][:i], k)))
    return combine(tableau.b, k), combine(tableau.b_hat, k)


@pytest.mark.parametrize("n", [4, 20])  # the float body, and the array body
@pytest.mark.parametrize("name", sorted(METHODS))
def test_step_matches_exact_arithmetic(name, n):
    assert (n <= WIDE_N) == (n == 4)
    rng = np.random.default_rng(zlib.crc32(f"{name}:{n}".encode()))
    a_float = rng.standard_normal((n, n)) / math.sqrt(n)
    y_float = rng.standard_normal(n)
    h = 0.25
    a_exact = [[Fraction(x) for x in row] for row in a_float.tolist()]
    exact = exact_step(TABLEAUS[name], a_exact, [Fraction(x) for x in y_float.tolist()],
                       Fraction(h))
    got = METHODS[name]._step(lambda t, v: a_float @ v, 0.0, y_float, h)
    bound = ULP_BOUND * Fraction(math.ulp(float(np.max(np.abs(y_float)))))
    for label, values, reference in zip(("y_next", "y_hat_next"), got, exact):
        worst = max(abs(Fraction(v) - r) for v, r in zip(values.tolist(), reference))
        assert worst <= bound, (name, n, label, float(worst / bound * ULP_BOUND))


def test_dopri5_coefficients_match_scipy():
    rk45 = pytest.importorskip("scipy.integrate").RK45
    a, b, b_hat, c = METHODS["DOPRI5"]._ARRAYS
    s = rk45.n_stages  # scipy keeps the FSAL stage out of A, B and C
    assert np.array_equal(a[:s, :s - 1], rk45.A)
    assert np.array_equal(b[:s], rk45.B) and b[s] == 0.0
    assert np.array_equal(c[:s], rk45.C) and c[s] == 1.0
    tableau = TABLEAUS["DOPRI5"]
    e = [float(bj - bhj) for bj, bhj in zip(tableau.b, tableau.b_hat)]
    assert np.array_equal(e, -rk45.E)  # scipy's E is b_hat - b


# Global error exceeds the local tolerance by the problem's error growth over
# its interval: measured differences reach 21 tolerances for rigid-body and
# 5e4 for the Arenstorf orbit, which passes close to the moon.  The bounds are
# five to ten times the largest measured difference.
END_STATE_GROWTH = {"vdp": 100.0, "rigid-body": 100.0, "arenstorf:1": 5e5}
TOL = 1e-10


@pytest.mark.parametrize("problem", sorted(END_STATE_GROWTH))
@pytest.mark.parametrize("name, scipy_method", [("DOPRI5", "RK45"), ("DOPRI8", "DOP853")])
def test_end_state_matches_scipy(name, scipy_method, problem):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    case = benchmark_case(problem)
    rhs, span = case.problem.rhs, (case.t_start, case.t_stop)
    t_end, y_end = getattr(METHODS[name], f"{name}_last")(rhs, TOL, TOL, case.y_0, *span)
    ref = solve_ivp(rhs, span, case.y_0, method=scipy_method, rtol=TOL, atol=TOL)
    assert ref.success and t_end == ref.t[-1] == case.t_stop
    bound = END_STATE_GROWTH[problem] * (TOL + TOL * np.abs(ref.y[:, -1]))
    assert np.all(np.abs(y_end - ref.y[:, -1]) <= bound), (y_end, ref.y[:, -1])


GENERATED_CONSTANT = re.compile(r"(A_\d+_\d+|B_\d+|BH_\d+|C_\d+)\Z")


def module_constants(path):
    """The A_i_j, B_j, BH_j and C_i assignments of a generated module, read
    from its syntax tree as a list of (name, value)."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return [(node.targets[0].id, ast.literal_eval(node.value)) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and GENERATED_CONSTANT.match(node.targets[0].id)]


def nonzero_coefficients(tableau):
    """Constant name -> exact coefficient, for every nonzero one."""
    named = [(f"A_{i}_{j}", x) for i, row in enumerate(tableau.a, 1)
             for j, x in enumerate(row, 1)]
    for prefix, weights in (("B", tableau.b), ("BH", tableau.b_hat), ("C", tableau.c)):
        named += [(f"{prefix}_{j}", x) for j, x in enumerate(weights, 1)]
    return {name: x for name, x in named if x != 0}


@pytest.mark.parametrize("name", sorted(METHODS))
def test_generated_constants_are_the_nearest_doubles(name):
    # float(Fraction) rounds correctly, so this needs neither the renderer
    # nor its float coefficients
    constants = module_constants(METHODS[name].__file__)
    got = dict(constants)
    assert len(got) == len(constants), "a constant is assigned twice"
    expected = nonzero_coefficients(TABLEAUS[name])
    assert sorted(got) == sorted(expected), "constants and nonzero coefficients differ"
    for constant, exact in expected.items():
        assert type(got[constant]) is float, constant
        assert got[constant].hex() == float(exact).hex(), (constant, exact)
