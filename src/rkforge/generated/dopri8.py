"""DOPRI8: embedded Runge-Kutta pair of orders 8(7), 13 stages.

Prince-Dormand 8(7) pair, 13 stages, minimised error coefficients. From Prince and Dormand, J. Comput. Appl. Math. 7 (1981). The published rationals satisfy the consistency conditions only to about 1e-18, so one largest-magnitude entry per affected row is renormalised (relative shifts below 1e-16, every 64-bit float value unchanged) to make row sums and weight sums exact.

Generated from the method table; regenerate with `forge generate` instead of
editing by hand.
"""
from rkforge.stepcontrol import (
    StepKernel,
    Tolerances,
    adaptive_integrate,
    fixed_integrate,
    integrate_info,
    step_on_arrays,
)
from rkforge.codegen import coefficient_arrays, list_body

A_2_1 = 0.055555555555555552
A_3_1 = 0.020833333333333332
A_3_2 = 0.0625
A_4_1 = 0.03125
A_4_3 = 0.09375
A_5_1 = 0.3125
A_5_3 = -1.171875
A_5_4 = 1.171875
A_6_1 = 0.0375
A_6_4 = 0.1875
A_6_5 = 0.15
A_7_1 = 0.047910137111111112
A_7_4 = 0.11224871277777777
A_7_5 = -0.025505673777777779
A_7_6 = 0.012846823888888888
A_8_1 = 0.016917989787292281
A_8_4 = 0.3878482784860432
A_8_5 = 0.035977369851500331
A_8_6 = 0.19697021421566607
A_8_7 = -0.17271385234050185
A_9_1 = 0.069095753359192297
A_9_4 = -0.63424797672885413
A_9_5 = -0.16119757522460407
A_9_6 = 0.13865030945882525
A_9_7 = 0.94092861403575623
A_9_8 = 0.21163632648194397
A_10_1 = 0.18355699683904539
A_10_4 = -2.4687680843155926
A_10_5 = -0.29128688781630047
A_10_6 = -0.026473020233117376
A_10_7 = 2.8478387641928005
A_10_8 = 0.28138733146984979
A_10_9 = 0.12374489986331466
A_11_1 = -1.2154248173958881
A_11_4 = 16.672608665945774
A_11_5 = 0.91574182841681795
A_11_6 = -6.0566058043574706
A_11_7 = -16.00357359415618
A_11_8 = 14.849303086297663
A_11_9 = -13.371575735289849
A_11_10 = 5.134182648179638
A_12_1 = 0.25886091643826425
A_12_4 = -4.7744857854892047
A_12_5 = -0.43509301377703252
A_12_6 = -3.0494833320722416
A_12_7 = 5.5779200399360995
A_12_8 = 6.1558315898610401
A_12_9 = -5.0621045867369387
A_12_10 = 2.193926173180679
A_12_11 = 0.13462799865933495
A_13_1 = 0.82242759962650747
A_13_4 = -11.658673257277664
A_13_5 = -0.75762211669093615
A_13_6 = 0.71397358815958156
A_13_7 = 12.075774986890057
A_13_8 = -2.1276591139204029
A_13_9 = 1.9901662070489554
A_13_10 = -0.23428647154404028
A_13_11 = 0.17589857770794226
B_1 = 0.041747491141530244
B_6 = -0.055452328611239311
B_7 = 0.23931280720118009
B_8 = 0.70351066940344298
B_9 = -0.75975961381446089
B_10 = 0.6605630309222863
B_11 = 0.15818748251012332
B_12 = -0.23810953875286281
B_13 = 0.25
BH_1 = 0.029553213676353499
BH_6 = -0.82860627648779706
BH_7 = 0.31124090005111832
BH_8 = 2.4673451905998869
BH_9 = -2.5469416518419088
BH_10 = 1.4435485836767752
BH_11 = 0.079415595881127288
BH_12 = 0.044444444444444446
C_2 = 0.055555555555555552
C_3 = 0.083333333333333329
C_4 = 0.125
C_5 = 0.3125
C_6 = 0.375
C_7 = 0.1475
C_8 = 0.465
C_9 = 0.56486545138225952
C_10 = 0.65
C_11 = 0.9246562776405044
C_12 = 1.0
C_13 = 1.0

# array_step's coefficient arrays (a, b, b_hat, c), built from the constants
# once, at import, and the list bodies by length N, and in fixed form by -N,
# rendered on first use (list_body): a constant rebound later changes the
# list bodies at once and never the wide path.
_ARRAYS = coefficient_arrays(globals(), 13)
_BODIES = {}


def _step_n(f, t, y, h, reuse=None):
    """_step's list body, per component a in r; list_body renders it again
    for lists of one length, with each component written out."""
    r = range(len(y))
    k1 = f(t, y) if reuse is None or reuse[0] is None else reuse[0]
    k2 = f(t + C_2 * h, [y[a] + h * (A_2_1 * k1[a]) for a in r])
    k3 = f(t + C_3 * h, [y[a] + h * (A_3_1 * k1[a] + A_3_2 * k2[a]) for a in r])
    k4 = f(t + C_4 * h, [y[a] + h * (A_4_1 * k1[a] + A_4_3 * k3[a]) for a in r])
    k5 = f(t + C_5 * h, [y[a] + h * (A_5_1 * k1[a] + A_5_3 * k3[a] + A_5_4 * k4[a]) for a in r])
    k6 = f(t + C_6 * h, [y[a] + h * (A_6_1 * k1[a] + A_6_4 * k4[a] + A_6_5 * k5[a]) for a in r])
    k7 = f(t + C_7 * h, [y[a] + h * (A_7_1 * k1[a] + A_7_4 * k4[a] + A_7_5 * k5[a] + A_7_6 * k6[a]) for a in r])
    k8 = f(t + C_8 * h, [y[a] + h * (A_8_1 * k1[a] + A_8_4 * k4[a] + A_8_5 * k5[a] + A_8_6 * k6[a] + A_8_7 * k7[a]) for a in r])
    k9 = f(t + C_9 * h, [y[a] + h * (A_9_1 * k1[a] + A_9_4 * k4[a] + A_9_5 * k5[a] + A_9_6 * k6[a] + A_9_7 * k7[a] + A_9_8 * k8[a]) for a in r])
    k10 = f(t + C_10 * h, [y[a] + h * (A_10_1 * k1[a] + A_10_4 * k4[a] + A_10_5 * k5[a] + A_10_6 * k6[a] + A_10_7 * k7[a] + A_10_8 * k8[a] + A_10_9 * k9[a]) for a in r])
    k11 = f(t + C_11 * h, [y[a] + h * (A_11_1 * k1[a] + A_11_4 * k4[a] + A_11_5 * k5[a] + A_11_6 * k6[a] + A_11_7 * k7[a] + A_11_8 * k8[a] + A_11_9 * k9[a] + A_11_10 * k10[a]) for a in r])
    k12 = f(t + C_12 * h, [y[a] + h * (A_12_1 * k1[a] + A_12_4 * k4[a] + A_12_5 * k5[a] + A_12_6 * k6[a] + A_12_7 * k7[a] + A_12_8 * k8[a] + A_12_9 * k9[a] + A_12_10 * k10[a] + A_12_11 * k11[a]) for a in r])
    k13 = f(t + C_13 * h, [y[a] + h * (A_13_1 * k1[a] + A_13_4 * k4[a] + A_13_5 * k5[a] + A_13_6 * k6[a] + A_13_7 * k7[a] + A_13_8 * k8[a] + A_13_9 * k9[a] + A_13_10 * k10[a] + A_13_11 * k11[a]) for a in r])
    y_next = [y[a] + h * (B_1 * k1[a] + B_6 * k6[a] + B_7 * k7[a] + B_8 * k8[a] + B_9 * k9[a] + B_10 * k10[a] + B_11 * k11[a] + B_12 * k12[a] + B_13 * k13[a]) for a in r]
    y_hat_next = [y[a] + h * (BH_1 * k1[a] + BH_6 * k6[a] + BH_7 * k7[a] + BH_8 * k8[a] + BH_9 * k9[a] + BH_10 * k10[a] + BH_11 * k11[a] + BH_12 * k12[a]) for a in r]
    if reuse is not None:
        reuse[:] = k1, None
    return y_next, y_hat_next


def _step(f, t, y, h, reuse=None):
    """One embedded step from (t, y); returns the main and companion updates
    as the kind of y, a list of floats or a float array (StepKernel).

    This body takes a list, step_on_arrays an array.  A list of N floats
    runs _BODIES[N]: for N <= WIDE_N, _step_n with each component written
    out, and _step_n itself above it.  An f marked fixed (StepKernel) gets
    _BODIES[-N] instead, the fixed form, which returns (y_next, y_next).
    """
    if type(y) is not list:
        return step_on_arrays(_step, _ARRAYS, f, t, y, h, reuse)
    n = -len(y) if getattr(f, "fixed", False) else len(y)
    return (_BODIES.get(n) or list_body(globals(), n))(f, t, y, h, reuse)


_step.lists = True


KERNEL = StepKernel(name="DOPRI8", order=8, stages=13, step=_step)


def DOPRI8(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def DOPRI8_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def DOPRI8_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def DOPRI8_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def DOPRI8_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
