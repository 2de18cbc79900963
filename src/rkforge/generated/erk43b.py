"""ERK43b: embedded Runge-Kutta pair of orders 4(3), 5 stages.

Classical fourth-order Runge-Kutta scheme paired with a third-order error estimator built from one extra stage evaluated at the completed step. Coefficients from Hairer, Norsett, Wanner, Solving Ordinary Differential Equations I, 2nd ed., Springer.

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

# The constants as array_step's coefficient arrays (a, b, b_hat, c).
_ARRAYS = (
    np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [A_2_1, 0.0, 0.0, 0.0, 0.0],
        [0.0, A_3_2, 0.0, 0.0, 0.0],
        [0.0, 0.0, A_4_3, 0.0, 0.0],
        [A_5_1, A_5_2, A_5_3, A_5_4, 0.0],
    ]),
    np.array([B_1, B_2, B_3, B_4, 0.0]),
    np.array([BH_1, BH_2, BH_3, 0.0, BH_5]),
    np.array([0.0, C_2, C_3, C_4, C_5]),
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
    k3 = get(f(t + C_3 * h, put([yl[a] + h * (A_3_2 * k2[a]) for a in r])))
    k4 = get(f(t + C_4 * h, put([yl[a] + h * (A_4_3 * k3[a]) for a in r])))
    k5 = get(f(t + C_5 * h, put([yl[a] + h * (A_5_1 * k1[a] + A_5_2 * k2[a] + A_5_3 * k3[a] + A_5_4 * k4[a]) for a in r])))
    y_next = np.array([yl[a] + h * (B_1 * k1[a] + B_2 * k2[a] + B_3 * k3[a] + B_4 * k4[a]) for a in r])
    y_hat_next = np.array([yl[a] + h * (BH_1 * k1[a] + BH_2 * k2[a] + BH_3 * k3[a] + BH_5 * k5[a]) for a in r])
    if reuse is not None:
        reuse[:] = k1, k5 if (A_5_1, A_5_2, A_5_3, A_5_4, C_5) == (B_1, B_2, B_3, B_4, 1.0) else None
    return y_next, y_hat_next


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
