"""DPRK658M: embedded Runge-Kutta pair of orders 6(5), 8 stages.

Prince-Dormand 6(5) pair, 8 stages, minimised error coefficients. From Prince and Dormand, High order embedded Runge-Kutta formulae, J. Comput. Appl. Math. 7 (1981).

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

# array_step's coefficient arrays (a, b, b_hat, c), built from the constants
# once, at import, and the list bodies by length N, and in fixed form by -N,
# rendered on first use (list_body): a constant rebound later changes the
# list bodies at once and never the wide path.
_ARRAYS = coefficient_arrays(globals(), 8)
_BODIES = {}


def _step_n(f, t, y, h, reuse=None):
    """_step's list body, per component a in r; list_body renders it again
    for lists of one length, with each component written out."""
    r = range(len(y))
    k1 = f(t, y) if reuse is None or reuse[0] is None else reuse[0]
    k2 = f(t + C_2 * h, [y[a] + h * (A_2_1 * k1[a]) for a in r])
    k3 = f(t + C_3 * h, [y[a] + h * (A_3_1 * k1[a] + A_3_2 * k2[a]) for a in r])
    k4 = f(t + C_4 * h, [y[a] + h * (A_4_1 * k1[a] + A_4_2 * k2[a] + A_4_3 * k3[a]) for a in r])
    k5 = f(t + C_5 * h, [y[a] + h * (A_5_1 * k1[a] + A_5_2 * k2[a] + A_5_3 * k3[a] + A_5_4 * k4[a]) for a in r])
    k6 = f(t + C_6 * h, [y[a] + h * (A_6_1 * k1[a] + A_6_2 * k2[a] + A_6_3 * k3[a] + A_6_4 * k4[a] + A_6_5 * k5[a]) for a in r])
    k7 = f(t + C_7 * h, [y[a] + h * (A_7_1 * k1[a] + A_7_2 * k2[a] + A_7_3 * k3[a] + A_7_4 * k4[a] + A_7_5 * k5[a] + A_7_6 * k6[a]) for a in r])
    k8 = f(t + C_8 * h, [y[a] + h * (A_8_1 * k1[a] + A_8_2 * k2[a] + A_8_3 * k3[a] + A_8_4 * k4[a] + A_8_5 * k5[a] + A_8_6 * k6[a]) for a in r])
    y_next = [y[a] + h * (B_1 * k1[a] + B_3 * k3[a] + B_4 * k4[a] + B_5 * k5[a] + B_6 * k6[a] + B_7 * k7[a] + B_8 * k8[a]) for a in r]
    y_hat_next = [y[a] + h * (BH_1 * k1[a] + BH_3 * k3[a] + BH_4 * k4[a] + BH_5 * k5[a] + BH_6 * k6[a] + BH_7 * k7[a]) for a in r]
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
