"""DPRK547S: embedded Runge-Kutta pair of orders 5(4), 7 stages.

Dormand-Prince 5(4) pair, 7 stages, first-same-as-last, stability-optimised weights. Coefficients from Dormand and Prince, J. Comput. Appl. Math. 6 (1980); stage row 6 reconstructed as the unique exact-rational solution of the order-5(4) conditions given the published rows, then verified against the full order conditions.

Generated from the method table; regenerate with `forge generate` instead of
editing by hand.
"""
import numpy as np

from rkforge.stepcontrol import (
    WIDE_N,
    StepKernel,
    Tolerances,
    adaptive_integrate,
    array_step,
    fixed_integrate,
    integrate_info,
)

A_2_1 = 0.22222222222222221
A_3_1 = 0.083333333333333329
A_3_2 = 0.25
A_4_1 = 0.16975308641975309
A_4_2 = -0.23148148148148148
A_4_3 = 0.61728395061728392
A_5_1 = 0.25151515151515152
A_5_2 = -0.59090909090909094
A_5_3 = 0.9242424242424242
A_5_4 = 0.081818181818181818
A_6_1 = -0.6785714285714286
A_6_2 = 2.25
A_6_3 = 0.14285714285714285
A_6_4 = -3.8571428571428572
A_6_5 = 3.1428571428571428
A_7_1 = 0.095
A_7_3 = 0.6
A_7_4 = -0.6075
A_7_5 = 0.825
A_7_6 = 0.0875
B_1 = 0.095
B_3 = 0.6
B_4 = -0.6075
B_5 = 0.825
B_6 = 0.0875
BH_1 = 0.0862
BH_3 = 0.666
BH_4 = -0.7857
BH_5 = 0.957
BH_6 = 0.0965
BH_7 = -0.02
C_2 = 0.22222222222222221
C_3 = 0.33333333333333331
C_4 = 0.55555555555555558
C_5 = 0.66666666666666663
C_6 = 1.0
C_7 = 1.0

# The constants as array_step's coefficient arrays (a, b, b_hat, c).
_ARRAYS = (
    np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_2_1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_3_1, A_3_2, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_4_1, A_4_2, A_4_3, 0.0, 0.0, 0.0, 0.0],
        [A_5_1, A_5_2, A_5_3, A_5_4, 0.0, 0.0, 0.0],
        [A_6_1, A_6_2, A_6_3, A_6_4, A_6_5, 0.0, 0.0],
        [A_7_1, 0.0, A_7_3, A_7_4, A_7_5, A_7_6, 0.0],
    ]),
    np.array([B_1, 0.0, B_3, B_4, B_5, B_6, 0.0]),
    np.array([BH_1, 0.0, BH_3, BH_4, BH_5, BH_6, BH_7]),
    np.array([0.0, C_2, C_3, C_4, C_5, C_6, C_7]),
)


def _step(f, t, y, h, reuse=None):
    """One embedded step from (t, y); returns the main and companion updates.

    y is a float array; f takes and returns float arrays, or float lists and
    sequences when it is marked list_rhs (the drivers guarantee either).
    WIDE_N, list_rhs and ``reuse`` are described in rkforge.stepcontrol.
    """
    if y.shape[0] > WIDE_N:
        return array_step(_ARRAYS, f, t, y, h, reuse)[:2]
    r = range(y.shape[0])
    yl = y.tolist()
    if getattr(f, "list_rhs", False):
        put, get, y_1 = list, list, yl
    else:
        put, get, y_1 = np.array, np.ndarray.tolist, y
    k1 = get(f(t, y_1)) if reuse is None or reuse[0] is None else reuse[0]
    k2 = get(f(t + C_2 * h, put([yl[a] + h * (A_2_1 * k1[a]) for a in r])))
    k3 = get(f(t + C_3 * h, put([yl[a] + h * (A_3_1 * k1[a] + A_3_2 * k2[a]) for a in r])))
    k4 = get(f(t + C_4 * h, put([yl[a] + h * (A_4_1 * k1[a] + A_4_2 * k2[a] + A_4_3 * k3[a]) for a in r])))
    k5 = get(f(t + C_5 * h, put([yl[a] + h * (A_5_1 * k1[a] + A_5_2 * k2[a] + A_5_3 * k3[a] + A_5_4 * k4[a]) for a in r])))
    k6 = get(f(t + C_6 * h, put([yl[a] + h * (A_6_1 * k1[a] + A_6_2 * k2[a] + A_6_3 * k3[a] + A_6_4 * k4[a] + A_6_5 * k5[a]) for a in r])))
    k7 = get(f(t + C_7 * h, put([yl[a] + h * (A_7_1 * k1[a] + A_7_3 * k3[a] + A_7_4 * k4[a] + A_7_5 * k5[a] + A_7_6 * k6[a]) for a in r])))
    y_next = np.array([yl[a] + h * (B_1 * k1[a] + B_3 * k3[a] + B_4 * k4[a] + B_5 * k5[a] + B_6 * k6[a]) for a in r])
    y_hat_next = np.array([yl[a] + h * (BH_1 * k1[a] + BH_3 * k3[a] + BH_4 * k4[a] + BH_5 * k5[a] + BH_6 * k6[a] + BH_7 * k7[a]) for a in r])
    if reuse is not None:
        reuse[:] = k1, k7 if (A_7_1, A_7_3, A_7_4, A_7_5, A_7_6, C_7) == (B_1, B_3, B_4, B_5, B_6, 1.0) else None
    return y_next, y_hat_next


KERNEL = StepKernel(name="DPRK547S", order=5, stages=7, step=_step)


def DPRK547S(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def DPRK547S_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def DPRK547S_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def DPRK547S_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def DPRK547S_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
