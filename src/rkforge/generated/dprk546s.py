"""DPRK546S: embedded Runge-Kutta pair of orders 5(4), 6 stages.

Dormand-Prince 5(4) pair, 6 stages. Coefficients from Dormand and Prince, A family of embedded Runge-Kutta formulae, J. Comput. Appl. Math. 6 (1980).

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

# array_step's coefficient arrays (a, b, b_hat, c), built from the constants
# once, at import, and the list bodies by length N, and in fixed form by -N,
# rendered on first use (list_body): a constant rebound later changes the
# list bodies at once and never the wide path.
_ARRAYS = coefficient_arrays(globals(), 6)
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
    y_next = [y[a] + h * (B_1 * k1[a] + B_3 * k3[a] + B_4 * k4[a] + B_5 * k5[a] + B_6 * k6[a]) for a in r]
    y_hat_next = [y[a] + h * (BH_1 * k1[a] + BH_3 * k3[a] + BH_4 * k4[a] + BH_5 * k5[a] + BH_6 * k6[a]) for a in r]
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
