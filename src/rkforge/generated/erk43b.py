"""ERK43b: embedded Runge-Kutta pair of orders 4(3), 5 stages.

Classical fourth-order Runge-Kutta scheme paired with a third-order error estimator built from one extra stage evaluated at the completed step. Coefficients from Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I, 2nd ed., Springer.

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

A_2_1 = 0.5
A_3_2 = 0.5
A_4_3 = 1.0
A_5_1 = 0.16666666666666666
A_5_2 = 0.33333333333333331
A_5_3 = 0.33333333333333331
A_5_4 = 0.16666666666666666
B_1 = 0.16666666666666666
B_2 = 0.33333333333333331
B_3 = 0.33333333333333331
B_4 = 0.16666666666666666
BH_1 = 0.16666666666666666
BH_2 = 0.33333333333333331
BH_3 = 0.33333333333333331
BH_5 = 0.16666666666666666
C_2 = 0.5
C_3 = 0.5
C_4 = 1.0
C_5 = 1.0

# array_step's coefficient arrays (a, b, b_hat, c), built from the constants
# once, at import, and the list bodies by length N, and in fixed form by -N,
# rendered on first use (list_body): a constant rebound later changes the
# list bodies at once and never the wide path.
_ARRAYS = coefficient_arrays(globals(), 5)
_BODIES = {}


def _step_n(f, t, y, h, reuse=None):
    """_step's list body, per component a in r; list_body renders it again
    for lists of one length, with each component written out."""
    r = range(len(y))
    k1 = f(t, y) if reuse is None or reuse[0] is None else reuse[0]
    k2 = f(t + C_2 * h, [y[a] + h * (A_2_1 * k1[a]) for a in r])
    k3 = f(t + C_3 * h, [y[a] + h * (A_3_2 * k2[a]) for a in r])
    k4 = f(t + C_4 * h, [y[a] + h * (A_4_3 * k3[a]) for a in r])
    k5 = f(t + C_5 * h, [y[a] + h * (A_5_1 * k1[a] + A_5_2 * k2[a] + A_5_3 * k3[a] + A_5_4 * k4[a]) for a in r])
    y_next = [y[a] + h * (B_1 * k1[a] + B_2 * k2[a] + B_3 * k3[a] + B_4 * k4[a]) for a in r]
    y_hat_next = [y[a] + h * (BH_1 * k1[a] + BH_2 * k2[a] + BH_3 * k3[a] + BH_5 * k5[a]) for a in r]
    if reuse is not None:
        reuse[:] = k1, k5 if (A_5_1, A_5_2, A_5_3, A_5_4, C_5) == (B_1, B_2, B_3, B_4, 1.0) else None
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


KERNEL = StepKernel(name="ERK43b", order=4, stages=5, step=_step)


def ERK43b(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration over [t_start, t_stop]; returns the full Trajectory."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=False, options=options)


def ERK43b_last(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning only the end point (t_n, y_n)."""
    return adaptive_integrate(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                              t_start, t_stop, last=True, options=options)


def ERK43b_info(f, a_tol, r_tol, y_0, t_start, t_stop, options=None):
    """Adaptive integration returning the accepted/rejected step log."""
    return integrate_info(KERNEL, f, Tolerances(a_tol, r_tol), y_0,
                          t_start, t_stop, options=options)


def ERK43b_fixed(f, h, y_0, t_start, t_stop):
    """Fixed-step integration with step h; returns the full Trajectory."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=False)


def ERK43b_fixed_last(f, h, y_0, t_start, t_stop):
    """Fixed-step integration returning only the end point (t_n, y_n)."""
    return fixed_integrate(KERNEL, f, h, y_0, t_start, t_stop, last=True)
