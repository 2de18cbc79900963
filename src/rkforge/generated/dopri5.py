"""DOPRI5: embedded Runge-Kutta pair of orders 5(4), 7 stages.

Dormand-Prince 5(4) pair, 7 stages, first-same-as-last, locally minimised error coefficients (the classic DOPRI5). Coefficients from Dormand and Prince, J. Comput. Appl. Math. 6 (1980).

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

# array_step's coefficient arrays (a, b, b_hat, c), built from the constants
# once, at import, and the list bodies by length N, and in fixed form by -N,
# rendered on first use (list_body): a constant rebound later changes the
# list bodies at once and never the wide path.
_ARRAYS = coefficient_arrays(globals(), 7)
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
    k7 = f(t + C_7 * h, [y[a] + h * (A_7_1 * k1[a] + A_7_3 * k3[a] + A_7_4 * k4[a] + A_7_5 * k5[a] + A_7_6 * k6[a]) for a in r])
    y_next = [y[a] + h * (B_1 * k1[a] + B_3 * k3[a] + B_4 * k4[a] + B_5 * k5[a] + B_6 * k6[a]) for a in r]
    y_hat_next = [y[a] + h * (BH_1 * k1[a] + BH_3 * k3[a] + BH_4 * k4[a] + BH_5 * k5[a] + BH_6 * k6[a] + BH_7 * k7[a]) for a in r]
    if reuse is not None:
        reuse[:] = k1, k7 if (A_7_1, A_7_3, A_7_4, A_7_5, A_7_6, C_7) == (B_1, B_3, B_4, B_5, B_6, 1.0) else None
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
