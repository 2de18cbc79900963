"""DPRK546S: embedded Runge-Kutta pair of orders 5(4), 6 stages.

Dormand-Prince 5(4) pair, 6 stages. Coefficients from Dormand and Prince, A family of embedded Runge-Kutta formulae, J. Comput. Appl. Math. 6 (1980).

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

A_2_1 = 0.2
A_3_1 = 0.075
A_3_2 = 0.225
A_4_1 = 0.3
A_4_2 = -0.9
A_4_3 = 1.2
A_5_1 = 0.31001371742112482
A_5_2 = -0.92592592592592593
A_5_3 = 1.2071330589849107
A_5_4 = 0.075445816186556922
A_6_1 = -0.67037037037037039
A_6_2 = 2.5
A_6_3 = -0.89562289562289565
A_6_4 = -3.3703703703703702
A_6_5 = 3.4363636363636365
B_1 = 0.087962962962962965
B_3 = 0.48100048100048098
B_4 = -0.57870370370370372
B_5 = 0.92045454545454541
B_6 = 0.089285714285714288
BH_1 = 0.057407407407407407
BH_3 = 0.63973063973063971
BH_4 = -1.3425925925925926
BH_5 = 1.5954545454545455
BH_6 = 0.05
C_2 = 0.2
C_3 = 0.3
C_4 = 0.6
C_5 = 0.66666666666666663
C_6 = 1.0

# The constants as array_step's coefficient arrays (a, b, b_hat, c).
_ARRAYS = (
    np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_2_1, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_3_1, A_3_2, 0.0, 0.0, 0.0, 0.0],
        [A_4_1, A_4_2, A_4_3, 0.0, 0.0, 0.0],
        [A_5_1, A_5_2, A_5_3, A_5_4, 0.0, 0.0],
        [A_6_1, A_6_2, A_6_3, A_6_4, A_6_5, 0.0],
    ]),
    np.array([B_1, 0.0, B_3, B_4, B_5, B_6]),
    np.array([BH_1, 0.0, BH_3, BH_4, BH_5, BH_6]),
    np.array([0.0, C_2, C_3, C_4, C_5, C_6]),
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
    y_next = np.array([yl[a] + h * (B_1 * k1[a] + B_3 * k3[a] + B_4 * k4[a] + B_5 * k5[a] + B_6 * k6[a]) for a in r])
    y_hat_next = np.array([yl[a] + h * (BH_1 * k1[a] + BH_3 * k3[a] + BH_4 * k4[a] + BH_5 * k5[a] + BH_6 * k6[a]) for a in r])
    if reuse is not None:
        reuse[:] = k1, None
    return y_next, y_hat_next


KERNEL = StepKernel(name="DPRK546S", order=5, stages=6, step=_step)


def DPRK546S(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def DPRK546S_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def DPRK546S_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def DPRK546S_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def DPRK546S_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
