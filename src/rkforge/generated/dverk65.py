"""DVERK65: embedded Runge-Kutta pair of orders 6(5), 8 stages.

Verner 6(5) pair, 8 stages, the coefficients of Hull's DVERK code. From Verner, SIAM J. Numer. Anal. 15 (1978), as tabulated in Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I.

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

A_2_1 = 0.16666666666666666
A_3_1 = 0.053333333333333337
A_3_2 = 0.21333333333333335
A_4_1 = 0.83333333333333337
A_4_2 = -2.6666666666666665
A_4_3 = 2.5
A_5_1 = -2.578125
A_5_2 = 9.1666666666666661
A_5_3 = -6.640625
A_5_4 = 0.88541666666666663
A_6_1 = 2.4
A_6_2 = -8.0
A_6_3 = 6.5604575163398691
A_6_4 = -0.30555555555555558
A_6_5 = 0.34509803921568627
A_7_1 = -0.55086666666666662
A_7_2 = 1.6533333333333333
A_7_3 = -0.94558823529411762
A_7_4 = -0.324
A_7_5 = 0.23378823529411766
A_8_1 = 2.0354651162790698
A_8_2 = -6.9767441860465116
A_8_3 = 5.6481798145614839
A_8_4 = -0.13738156761412576
A_8_5 = 0.28630226610361031
A_8_7 = 0.14417855671647381
B_1 = 0.075
B_3 = 0.38992869875222819
B_4 = 0.31944444444444442
B_5 = 0.13503836317135551
B_7 = 0.010783298826777088
B_8 = 0.069805194805194801
BH_1 = 0.08125
BH_3 = 0.39689171122994654
BH_4 = 0.3125
BH_5 = 0.14117647058823529
BH_6 = 0.068181818181818177
C_2 = 0.16666666666666666
C_3 = 0.26666666666666666
C_4 = 0.66666666666666663
C_5 = 0.83333333333333337
C_6 = 1.0
C_7 = 0.066666666666666666
C_8 = 1.0

# The constants as array_step's coefficient arrays (a, b, b_hat, c).
_ARRAYS = (
    np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_2_1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_3_1, A_3_2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_4_1, A_4_2, A_4_3, 0.0, 0.0, 0.0, 0.0, 0.0],
        [A_5_1, A_5_2, A_5_3, A_5_4, 0.0, 0.0, 0.0, 0.0],
        [A_6_1, A_6_2, A_6_3, A_6_4, A_6_5, 0.0, 0.0, 0.0],
        [A_7_1, A_7_2, A_7_3, A_7_4, A_7_5, 0.0, 0.0, 0.0],
        [A_8_1, A_8_2, A_8_3, A_8_4, A_8_5, 0.0, A_8_7, 0.0],
    ]),
    np.array([B_1, 0.0, B_3, B_4, B_5, 0.0, B_7, B_8]),
    np.array([BH_1, 0.0, BH_3, BH_4, BH_5, BH_6, 0.0, 0.0]),
    np.array([0.0, C_2, C_3, C_4, C_5, C_6, C_7, C_8]),
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
    k7 = get(f(t + C_7 * h, put([yl[a] + h * (A_7_1 * k1[a] + A_7_2 * k2[a] + A_7_3 * k3[a] + A_7_4 * k4[a] + A_7_5 * k5[a]) for a in r])))
    k8 = get(f(t + C_8 * h, put([yl[a] + h * (A_8_1 * k1[a] + A_8_2 * k2[a] + A_8_3 * k3[a] + A_8_4 * k4[a] + A_8_5 * k5[a] + A_8_7 * k7[a]) for a in r])))
    y_next = np.array([yl[a] + h * (B_1 * k1[a] + B_3 * k3[a] + B_4 * k4[a] + B_5 * k5[a] + B_7 * k7[a] + B_8 * k8[a]) for a in r])
    y_hat_next = np.array([yl[a] + h * (BH_1 * k1[a] + BH_3 * k3[a] + BH_4 * k4[a] + BH_5 * k5[a] + BH_6 * k6[a]) for a in r])
    if reuse is not None:
        reuse[:] = k1, None
    return y_next, y_hat_next


KERNEL = StepKernel(name="DVERK65", order=6, stages=8, step=_step)


def DVERK65(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def DVERK65_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def DVERK65_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def DVERK65_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def DVERK65_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
