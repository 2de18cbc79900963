"""DPRK658M: embedded Runge-Kutta pair of orders 6(5), 8 stages.

Prince-Dormand 6(5) pair, 8 stages, minimised error coefficients. From Prince and Dormand, High order embedded Runge-Kutta formulae, J. Comput. Appl. Math. 7 (1981).

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

A_2_1 = 0.1
A_3_1 = -0.024691358024691357
A_3_2 = 0.24691358024691357
A_4_1 = 0.44825072886297374
A_4_2 = -0.78717201166180761
A_4_3 = 0.76749271137026243
A_5_1 = 0.58963636363636363
A_5_2 = -0.98181818181818181
A_5_3 = 0.71257342657342659
A_5_4 = 0.27960839160839163
A_6_1 = -0.71358922558922555
A_6_2 = 1.3090909090909091
A_6_3 = 0.12012834224598931
A_6_4 = -0.65201346801346804
A_6_5 = 0.73638344226579522
A_7_1 = 2.3404882154882154
A_7_2 = -3.1818181818181817
A_7_3 = -0.76312375407398036
A_7_4 = 4.482612117227502
A_7_5 = -2.8458605664488017
A_7_6 = 0.96770216962524658
A_8_1 = 1.7491394600769601
A_8_2 = -2.3904220779220777
A_8_3 = -0.39625257378368239
A_8_4 = 3.2728583293487139
A_8_5 = -2.0635163787737318
A_8_6 = 0.82819324105381797
B_1 = 0.070601851851851846
B_3 = 0.30584941077022526
B_4 = 0.11510382423843962
B_5 = 0.18722766884531591
B_6 = 0.25425295857988167
B_7 = -0.033035714285714286
B_8 = 0.1
BH_1 = 0.076018518518518513
BH_3 = 0.27404107205012185
BH_4 = 0.19205895244356783
BH_5 = 0.10757080610021787
BH_6 = 0.29031065088757396
BH_7 = 0.06
C_2 = 0.1
C_3 = 0.22222222222222221
C_4 = 0.42857142857142855
C_5 = 0.6
C_6 = 0.8
C_7 = 1.0
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
        [A_7_1, A_7_2, A_7_3, A_7_4, A_7_5, A_7_6, 0.0, 0.0],
        [A_8_1, A_8_2, A_8_3, A_8_4, A_8_5, A_8_6, 0.0, 0.0],
    ]),
    np.array([B_1, 0.0, B_3, B_4, B_5, B_6, B_7, B_8]),
    np.array([BH_1, 0.0, BH_3, BH_4, BH_5, BH_6, BH_7, 0.0]),
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
    k7 = get(f(t + C_7 * h, put([yl[a] + h * (A_7_1 * k1[a] + A_7_2 * k2[a] + A_7_3 * k3[a] + A_7_4 * k4[a] + A_7_5 * k5[a] + A_7_6 * k6[a]) for a in r])))
    k8 = get(f(t + C_8 * h, put([yl[a] + h * (A_8_1 * k1[a] + A_8_2 * k2[a] + A_8_3 * k3[a] + A_8_4 * k4[a] + A_8_5 * k5[a] + A_8_6 * k6[a]) for a in r])))
    y_next = np.array([yl[a] + h * (B_1 * k1[a] + B_3 * k3[a] + B_4 * k4[a] + B_5 * k5[a] + B_6 * k6[a] + B_7 * k7[a] + B_8 * k8[a]) for a in r])
    y_hat_next = np.array([yl[a] + h * (BH_1 * k1[a] + BH_3 * k3[a] + BH_4 * k4[a] + BH_5 * k5[a] + BH_6 * k6[a] + BH_7 * k7[a]) for a in r])
    if reuse is not None:
        reuse[:] = k1, None
    return y_next, y_hat_next


KERNEL = StepKernel(name="DPRK658M", order=6, stages=8, step=_step)


def DPRK658M(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def DPRK658M_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def DPRK658M_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def DPRK658M_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def DPRK658M_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
