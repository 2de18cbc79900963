"""Fehlberg78B: embedded Runge-Kutta pair of orders 7(8), 13 stages.

Fehlberg 7(8) pair, 13 stages; seventh-order solution propagated, eighth-order companion estimates the error. Coefficients from Fehlberg, NASA TR R-287 (1968), as tabulated in Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I.

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

A_2_1 = 0.07407407407407407
A_3_1 = 0.027777777777777776
A_3_2 = 0.083333333333333329
A_4_1 = 0.041666666666666664
A_4_3 = 0.125
A_5_1 = 0.41666666666666669
A_5_3 = -1.5625
A_5_4 = 1.5625
A_6_1 = 0.05
A_6_4 = 0.25
A_6_5 = 0.2
A_7_1 = -0.23148148148148148
A_7_4 = 1.1574074074074074
A_7_5 = -2.4074074074074074
A_7_6 = 2.3148148148148149
A_8_1 = 0.10333333333333333
A_8_5 = 0.27111111111111114
A_8_6 = -0.22222222222222221
A_8_7 = 0.014444444444444444
A_9_1 = 2.0
A_9_4 = -8.8333333333333339
A_9_5 = 15.644444444444444
A_9_6 = -11.888888888888889
A_9_7 = 0.74444444444444446
A_9_8 = 3.0
A_10_1 = -0.84259259259259256
A_10_4 = 0.21296296296296297
A_10_5 = -7.2296296296296294
A_10_6 = 5.7592592592592595
A_10_7 = -0.31666666666666665
A_10_8 = 2.8333333333333335
A_10_9 = -0.083333333333333329
A_11_1 = 0.58121951219512191
A_11_4 = -2.0792682926829267
A_11_5 = 4.3863414634146345
A_11_6 = -3.6707317073170733
A_11_7 = 0.52024390243902441
A_11_8 = 0.54878048780487809
A_11_9 = 0.27439024390243905
A_11_10 = 0.43902439024390244
A_12_1 = 0.014634146341463415
A_12_6 = -0.14634146341463414
A_12_7 = -0.014634146341463415
A_12_8 = -0.073170731707317069
A_12_9 = 0.073170731707317069
A_12_10 = 0.14634146341463414
A_13_1 = -0.43341463414634146
A_13_4 = -2.0792682926829267
A_13_5 = 4.3863414634146345
A_13_6 = -3.524390243902439
A_13_7 = 0.53487804878048784
A_13_8 = 0.62195121951219512
A_13_9 = 0.20121951219512196
A_13_10 = 0.29268292682926828
A_13_12 = 1.0
B_1 = 0.04880952380952381
B_6 = 0.32380952380952382
B_7 = 0.25714285714285712
B_8 = 0.25714285714285712
B_9 = 0.03214285714285714
B_10 = 0.03214285714285714
B_11 = 0.04880952380952381
BH_6 = 0.32380952380952382
BH_7 = 0.25714285714285712
BH_8 = 0.25714285714285712
BH_9 = 0.03214285714285714
BH_10 = 0.03214285714285714
BH_12 = 0.04880952380952381
BH_13 = 0.04880952380952381
C_2 = 0.07407407407407407
C_3 = 0.1111111111111111
C_4 = 0.16666666666666666
C_5 = 0.41666666666666669
C_6 = 0.5
C_7 = 0.83333333333333337
C_8 = 0.16666666666666666
C_9 = 0.66666666666666663
C_10 = 0.33333333333333331
C_11 = 1.0
C_13 = 1.0

# The constants as array_step's coefficient arrays (a, b, b_hat, c).
_ARRAYS = (
    np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_2_1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_3_1, A_3_2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_4_1, 0.0, A_4_3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_5_1, 0.0, A_5_3, A_5_4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_6_1, 0.0, 0.0, A_6_4, A_6_5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_7_1, 0.0, 0.0, A_7_4, A_7_5, A_7_6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_8_1, 0.0, 0.0, 0.0, A_8_5, A_8_6, A_8_7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_9_1, 0.0, 0.0, A_9_4, A_9_5, A_9_6, A_9_7, A_9_8, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_10_1, 0.0, 0.0, A_10_4, A_10_5, A_10_6, A_10_7, A_10_8, A_10_9, 0.0, 0.0, 0.0, 0.0],
        [A_11_1, 0.0, 0.0, A_11_4, A_11_5, A_11_6, A_11_7, A_11_8, A_11_9, A_11_10, 0.0, 0.0, 0.0],
        [A_12_1, 0.0, 0.0, 0.0, 0.0, A_12_6, A_12_7, A_12_8, A_12_9, A_12_10, 0.0, 0.0, 0.0],
        [A_13_1, 0.0, 0.0, A_13_4, A_13_5, A_13_6, A_13_7, A_13_8, A_13_9, A_13_10, 0.0, A_13_12, 0.0],
    ]),
    np.array([B_1, 0.0, 0.0, 0.0, 0.0, B_6, B_7, B_8, B_9, B_10, B_11, 0.0, 0.0]),
    np.array([0.0, 0.0, 0.0, 0.0, 0.0, BH_6, BH_7, BH_8, BH_9, BH_10, 0.0, BH_12, BH_13]),
    np.array([0.0, C_2, C_3, C_4, C_5, C_6, C_7, C_8, C_9, C_10, C_11, 0.0, C_13]),
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
    k4 = get(f(t + C_4 * h, put([yl[a] + h * (A_4_1 * k1[a] + A_4_3 * k3[a]) for a in r])))
    k5 = get(f(t + C_5 * h, put([yl[a] + h * (A_5_1 * k1[a] + A_5_3 * k3[a] + A_5_4 * k4[a]) for a in r])))
    k6 = get(f(t + C_6 * h, put([yl[a] + h * (A_6_1 * k1[a] + A_6_4 * k4[a] + A_6_5 * k5[a]) for a in r])))
    k7 = get(f(t + C_7 * h, put([yl[a] + h * (A_7_1 * k1[a] + A_7_4 * k4[a] + A_7_5 * k5[a] + A_7_6 * k6[a]) for a in r])))
    k8 = get(f(t + C_8 * h, put([yl[a] + h * (A_8_1 * k1[a] + A_8_5 * k5[a] + A_8_6 * k6[a] + A_8_7 * k7[a]) for a in r])))
    k9 = get(f(t + C_9 * h, put([yl[a] + h * (A_9_1 * k1[a] + A_9_4 * k4[a] + A_9_5 * k5[a] + A_9_6 * k6[a] + A_9_7 * k7[a] + A_9_8 * k8[a]) for a in r])))
    k10 = get(f(t + C_10 * h, put([yl[a] + h * (A_10_1 * k1[a] + A_10_4 * k4[a] + A_10_5 * k5[a] + A_10_6 * k6[a] + A_10_7 * k7[a] + A_10_8 * k8[a] + A_10_9 * k9[a]) for a in r])))
    k11 = get(f(t + C_11 * h, put([yl[a] + h * (A_11_1 * k1[a] + A_11_4 * k4[a] + A_11_5 * k5[a] + A_11_6 * k6[a] + A_11_7 * k7[a] + A_11_8 * k8[a] + A_11_9 * k9[a] + A_11_10 * k10[a]) for a in r])))
    k12 = get(f(t, put([yl[a] + h * (A_12_1 * k1[a] + A_12_6 * k6[a] + A_12_7 * k7[a] + A_12_8 * k8[a] + A_12_9 * k9[a] + A_12_10 * k10[a]) for a in r])))
    k13 = get(f(t + C_13 * h, put([yl[a] + h * (A_13_1 * k1[a] + A_13_4 * k4[a] + A_13_5 * k5[a] + A_13_6 * k6[a] + A_13_7 * k7[a] + A_13_8 * k8[a] + A_13_9 * k9[a] + A_13_10 * k10[a] + A_13_12 * k12[a]) for a in r])))
    y_next = np.array([yl[a] + h * (B_1 * k1[a] + B_6 * k6[a] + B_7 * k7[a] + B_8 * k8[a] + B_9 * k9[a] + B_10 * k10[a] + B_11 * k11[a]) for a in r])
    y_hat_next = np.array([yl[a] + h * (BH_6 * k6[a] + BH_7 * k7[a] + BH_8 * k8[a] + BH_9 * k9[a] + BH_10 * k10[a] + BH_12 * k12[a] + BH_13 * k13[a]) for a in r])
    if reuse is not None:
        reuse[:] = k1, None
    return y_next, y_hat_next


KERNEL = StepKernel(name="Fehlberg78B", order=7, stages=13, step=_step)


def Fehlberg78B(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def Fehlberg78B_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def Fehlberg78B_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def Fehlberg78B_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def Fehlberg78B_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
