"""DOPRI5: embedded Runge-Kutta pair of orders 5(4), 7 stages.

Dormand-Prince 5(4) pair, 7 stages, first-same-as-last, locally minimised error coefficients (the classic DOPRI5). Coefficients from Dormand and Prince, J. Comput. Appl. Math. 6 (1980).

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
A_4_1 = 0.97777777777777775
A_4_2 = -3.7333333333333334
A_4_3 = 3.5555555555555554
A_5_1 = 2.9525986892242035
A_5_2 = -11.595793324188385
A_5_3 = 9.8228928516994358
A_5_4 = -0.29080932784636487
A_6_1 = 2.8462752525252526
A_6_2 = -10.757575757575758
A_6_3 = 8.9064227177434727
A_6_4 = 0.27840909090909088
A_6_5 = -0.2735313036020583
A_7_1 = 0.091145833333333329
A_7_3 = 0.44923629829290207
A_7_4 = 0.65104166666666663
A_7_5 = -0.322376179245283
A_7_6 = 0.13095238095238096
B_1 = 0.091145833333333329
B_3 = 0.44923629829290207
B_4 = 0.65104166666666663
B_5 = -0.322376179245283
B_6 = 0.13095238095238096
BH_1 = 0.089913194444444441
BH_3 = 0.45348906858340821
BH_4 = 0.6140625
BH_5 = -0.27151238207547168
BH_6 = 0.089047619047619042
BH_7 = 0.025
C_2 = 0.2
C_3 = 0.3
C_4 = 0.8
C_5 = 0.88888888888888884
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


KERNEL = StepKernel(name="DOPRI5", order=5, stages=7, step=_step)


def DOPRI5(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def DOPRI5_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def DOPRI5_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def DOPRI5_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def DOPRI5_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
