"""Fehlberg78B: embedded Runge-Kutta pair of orders 7(8), 13 stages.

Fehlberg 7(8) pair, 13 stages; seventh-order solution propagated, eighth-order companion estimates the error. Coefficients from Fehlberg, NASA TR R-287 (1968), as tabulated in Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I.

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
    k8 = f(t + C_8 * h, [y[a] + h * (A_8_1 * k1[a] + A_8_5 * k5[a] + A_8_6 * k6[a] + A_8_7 * k7[a]) for a in r])
    k9 = f(t + C_9 * h, [y[a] + h * (A_9_1 * k1[a] + A_9_4 * k4[a] + A_9_5 * k5[a] + A_9_6 * k6[a] + A_9_7 * k7[a] + A_9_8 * k8[a]) for a in r])
    k10 = f(t + C_10 * h, [y[a] + h * (A_10_1 * k1[a] + A_10_4 * k4[a] + A_10_5 * k5[a] + A_10_6 * k6[a] + A_10_7 * k7[a] + A_10_8 * k8[a] + A_10_9 * k9[a]) for a in r])
    k11 = f(t + C_11 * h, [y[a] + h * (A_11_1 * k1[a] + A_11_4 * k4[a] + A_11_5 * k5[a] + A_11_6 * k6[a] + A_11_7 * k7[a] + A_11_8 * k8[a] + A_11_9 * k9[a] + A_11_10 * k10[a]) for a in r])
    k12 = f(t, [y[a] + h * (A_12_1 * k1[a] + A_12_6 * k6[a] + A_12_7 * k7[a] + A_12_8 * k8[a] + A_12_9 * k9[a] + A_12_10 * k10[a]) for a in r])
    k13 = f(t + C_13 * h, [y[a] + h * (A_13_1 * k1[a] + A_13_4 * k4[a] + A_13_5 * k5[a] + A_13_6 * k6[a] + A_13_7 * k7[a] + A_13_8 * k8[a] + A_13_9 * k9[a] + A_13_10 * k10[a] + A_13_12 * k12[a]) for a in r])
    y_next = [y[a] + h * (B_1 * k1[a] + B_6 * k6[a] + B_7 * k7[a] + B_8 * k8[a] + B_9 * k9[a] + B_10 * k10[a] + B_11 * k11[a]) for a in r]
    y_hat_next = [y[a] + h * (BH_6 * k6[a] + BH_7 * k7[a] + BH_8 * k8[a] + BH_9 * k9[a] + BH_10 * k10[a] + BH_12 * k12[a] + BH_13 * k13[a]) for a in r]
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
