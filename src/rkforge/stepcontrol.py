"""Runtime core: generic embedded-RK step kernel, error control, and drivers.

The step-size controller follows the classical design: per-component scale
sc = a_tol + max(|y|, |y_hat|) * r_tol, RMS error E over scaled differences,
acceptance iff E <= 1, and the two-error update

    h_next = h / max(f_min, min(f_max, E_m^a * E_prev^(-b) / f_s))

with f_s = 0.9, f_min = 0.1, f_max = 5, b = 0.4/p and a = 0.7/p - 0.75*b for
a method of order p: the drivers always use ControllerParams.for_order(p).
Note the clamp acts on the divisor, so growth is capped at 1/f_min while
shrinkage is capped at f_max.  Rejected steps retry with
h / min(f_max, E_m^a / f_s).

Up to WIDE_N components error_norm computes E on plain floats, summed in
numpy's pairwise order, so it gives the same bits as the array formula it
uses for wider systems.

Generated solver modules call the same three functions (error_norm,
propose_step_size, rescale_rejected) and the same driver loop, so the control
arithmetic has a single home.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tableau import ButcherTableau, render_coefficient_literal

__all__ = [
    "ArgumentError",
    "Tolerances",
    "ControllerParams",
    "ODEProblem",
    "Trajectory",
    "StepLog",
    "StepKernel",
    "WIDE_N",
    "IntegrationOptions",
    "IntegrationError",
    "MaxStepsExceeded",
    "StepSizeUnderflow",
    "DivergenceError",
    "interpreted_kernel",
    "erk_step_generic",
    "array_step",
    "error_norm",
    "propose_step_size",
    "rescale_rejected",
    "adaptive_integrate",
    "fixed_integrate",
    "integrate_info",
]


class ArgumentError(ValueError):
    """A refused argument, raised before any rhs call."""


@dataclass(frozen=True)
class Tolerances:
    """Absolute and relative tolerance; at least one must be positive."""

    a_tol: float
    r_tol: float

    def __post_init__(self):
        if not (self.a_tol >= 0 and self.r_tol >= 0):
            raise ArgumentError("tolerances must be nonnegative numbers")
        if self.a_tol + self.r_tol == 0:
            raise ArgumentError("a_tol and r_tol cannot both be zero")


@dataclass(frozen=True)
class ControllerParams:
    """Safety/clamp factors and exponents of the step-size controller.

    With the recommended exponents, alpha_exp equals beta_exp, so at steady
    state the divisor is 1/f_s and the raw update would shrink h forever.
    The driver therefore keeps the previous error floored at e_prev_floor
    (classic practice), which turns the update into a stable controller with
    equilibrium error f_s**(1/alpha_exp) * e_prev_floor.
    """

    f_s: float = 0.9
    f_min: float = 0.1
    f_max: float = 5.0
    alpha_exp: float = 0.0
    beta_exp: float = 0.0
    e_prev_floor: float = 1e-4

    def __post_init__(self):
        if not (0 < self.f_min < 1 < self.f_max):
            raise ValueError("need 0 < f_min < 1 < f_max")
        if not (0 < self.f_s < 1):
            raise ValueError("need 0 < f_s < 1")
        if self.alpha_exp <= 0 or self.beta_exp < 0:
            raise ValueError("need alpha_exp > 0 and beta_exp >= 0")

    @classmethod
    def for_order(cls, p: int) -> "ControllerParams":
        """The default factors with the recommended universal exponents for a
        method of main order p; the drivers use exactly these."""
        if p < 1:
            raise ValueError("order must be positive")
        beta = 0.4 / p
        return cls(alpha_exp=0.7 / p - 0.75 * beta, beta_exp=beta)


@dataclass(frozen=True)
class ODEProblem:
    """First-order system: rhs(t, y) -> dy/dt, with fixed dimension."""

    dimension: int
    rhs: Callable[[float, np.ndarray], Sequence[float]]
    name: str = ""


@dataclass(frozen=True)
class Trajectory:
    """Accepted grid points and states; times[0] = t_start, times[-1] = t_stop."""

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class StepLog:
    """Accepted/rejected step records of one adaptive integration."""

    accepted_t: np.ndarray
    accepted_h: np.ndarray
    rejected_t: np.ndarray
    rejected_h: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True)
class StepKernel:
    """One embedded step: step(f, t, y, h) -> (y_next, y_hat_next).

    Both the generic interpreter kernel and every generated specialized
    kernel satisfy this contract.
    """

    name: str
    order: int
    stages: int
    step: Callable


@dataclass(frozen=True)
class IntegrationOptions:
    h0: float | None = None          # default (t_stop - t_start) / 100
    max_steps: int = 10 ** 6
    h_min: float | None = None       # default 1e4 * eps * max(|t0|, |t1|, 1)
    propagate_embedded: bool = False

    def __post_init__(self):
        for name in ("h0", "h_min"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ArgumentError(f"{name} must be positive, got {value!r}")
        if not self.max_steps >= 1:
            raise ArgumentError(f"max_steps must be at least 1, got {self.max_steps!r}")


class IntegrationError(RuntimeError):
    """Driver failure; carries the last good time/state and the partial log."""

    def __init__(self, message: str, t: float, y: np.ndarray, log: StepLog | None = None):
        super().__init__(message)
        self.t = t
        self.y = y
        self.log = log


class MaxStepsExceeded(IntegrationError):
    pass


class StepSizeUnderflow(IntegrationError):
    pass


class DivergenceError(IntegrationError):
    pass


# Generated step kernels run their unrolled stage arithmetic on plain Python
# floats up to this many components and hand larger systems to array_step,
# which is faster there (see CHANGES.md for the sweeps).
WIDE_N = 16


@functools.cache
def _float_coefficients(t: ButcherTableau):
    """Tableau coefficients as float64 arrays, via the rendered literals so the
    interpreter and the generated code agree bit for bit."""
    a = np.array([[float(render_coefficient_literal(x)) for x in row] for row in t.a])
    b = np.array([float(render_coefficient_literal(x)) for x in t.b])
    b_hat = np.array([float(render_coefficient_literal(x)) for x in t.b_hat])
    c = np.array([float(render_coefficient_literal(x)) for x in t.c])
    return a, b, b_hat, c


def erk_step_generic(t: ButcherTableau, prob: ODEProblem, t_m: float,
                     y_m: np.ndarray, h: float):
    """One embedded step by the array-driven interpreter.

    Returns (y_next, y_hat_next, stages).  This is the reference kernel the
    generated specialized code is checked against.  Its arguments pass the
    drivers' entry check on the interval [t_m, t_m + h].
    """
    f, y_m = _entry_check(prob, y_m, t_m, t_m + h, h)
    return array_step(_float_coefficients(t), f, t_m, y_m, h)


def array_step(coefficients, f, t_m: float, y_m: np.ndarray, h: float):
    """The array-driven kernel: erk_step_generic on float coefficients
    (a, b, b_hat, c) and an rhs that returns (N,) float arrays."""
    a, b, b_hat, c = coefficients
    k = np.empty((a.shape[0], y_m.shape[0]))
    k[0] = f(t_m, y_m)
    for i in range(1, a.shape[0]):
        y_i = y_m + h * (a[i, :i] @ k[:i])
        k[i] = f(t_m + c[i] * h, y_i)
    y_next = y_m + h * (b @ k)
    y_hat_next = y_m + h * (b_hat @ k)
    return y_next, y_hat_next, k


def interpreted_kernel(t: ButcherTableau) -> StepKernel:
    """The generic interpreter (erk_step_generic) packaged as a step kernel.

    Lets any tableau drive the integration drivers without code generation,
    and serves as the baseline the generated specialized kernels are
    benchmarked against.
    """

    coefficients = _float_coefficients(t)

    def step(f, t_m, y_m, h):
        y_next, y_hat_next, _ = array_step(coefficients, f, t_m, y_m, h)
        return y_next, y_hat_next

    return StepKernel(name=t.name, order=t.p, stages=t.s, step=step)


def error_norm(y: np.ndarray, y_hat: np.ndarray, tol: Tolerances) -> float:
    """RMS of componentwise differences scaled by sc = a_tol + max|.|*r_tol.

    A non-finite difference forces E = +inf.  A zero scale (possible only
    with a_tol = 0) contributes 0 when the difference is zero too, and forces
    E = +inf otherwise, so the step gets rejected rather than silently
    accepted.

    Up to WIDE_N components the norm runs on plain floats in one loop, which
    is several times faster than the array formula for small systems; it
    sums the squared ratios in numpy's pairwise order, so its result is
    bit-identical to the array formula used above WIDE_N.
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("y and y_hat must be equal-length nonempty vectors")
    n = y.shape[0]
    if n <= WIDE_N:
        a_tol, r_tol = tol.a_tol, tol.r_tol
        q = []
        for u, v in zip(y.tolist(), y_hat.tolist()):
            d = u - v
            if not math.isfinite(d):
                return math.inf
            au, av = abs(u), abs(v)
            sc = a_tol + (au if au >= av else av) * r_tol
            if sc == 0.0:
                if d != 0.0:
                    return math.inf
                q.append(0.0)
            else:
                d /= sc
                q.append(d * d)
        return math.sqrt(_pairwise_sum(q) / n)
    diff = y - y_hat
    if not np.all(np.isfinite(diff)):
        return math.inf
    sc = tol.a_tol + np.maximum(np.abs(y), np.abs(y_hat)) * tol.r_tol
    zero_scale = sc == 0.0
    if np.any(zero_scale):
        if np.any(diff[zero_scale] != 0.0):
            return math.inf
        sc = np.where(zero_scale, 1.0, sc)
    return math.sqrt(float(np.mean((diff / sc) ** 2)))


def _pairwise_sum(q: list) -> float:
    """Sum of at most 128 floats in the order of numpy's pairwise summation.

    Below 8 terms one running sum; from 8 on, eight lanes that take every
    full block of 8 terms, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the remainder one by one.  Written with += and not sum(), which
    compensates from Python 3.12 on.
    """
    n = len(q)
    if n < 8:
        s = 0.0
        for x in q:
            s += x
        return s
    full = n - n % 8
    r = q[:8]
    for i in range(8, full, 8):
        for j in range(8):
            r[j] += q[i + j]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in q[full:]:
        s += x
    return s


def propose_step_size(h_m: float, e_m: float, e_prev: float,
                      cp: ControllerParams) -> float:
    """Step proposal after an accepted step (clamp on the divisor)."""
    if h_m <= 0:
        raise ValueError("h_m must be positive")
    if e_prev <= 0:
        raise ValueError("e_prev must be positive")
    if e_m == 0.0:
        divisor = cp.f_min
    else:
        divisor = max(cp.f_min,
                      min(cp.f_max,
                          e_m ** cp.alpha_exp * e_prev ** (-cp.beta_exp) / cp.f_s))
    return h_m / divisor


def rescale_rejected(h_m: float, e_m: float, cp: ControllerParams) -> float:
    """Retry step size after a rejection (E_m > 1)."""
    if h_m <= 0:
        raise ValueError("h_m must be positive")
    return h_m / min(cp.f_max, e_m ** cp.alpha_exp / cp.f_s)


def _entry_check(prob, y_0, t_start: float, t_stop: float, h: float):
    """The argument check every driver and erk_step_generic run first.

    Raises ArgumentError, before any rhs call, unless ``prob`` (an ODEProblem or
    a bare rhs callable) has len(y_0) components, t_start < t_stop with both
    ends finite, y_0 is finite and h > 0.  Returns (f, y): prob's rhs wrapped
    to return float arrays checked to have shape (N,), and y_0 as a float
    array of its own.  A wrong shape can show mid-run, so f raises a plain
    ValueError for it.
    """
    y = np.array(y_0, dtype=float)
    prob = prob if isinstance(prob, ODEProblem) else ODEProblem(len(y), prob)
    n = prob.dimension
    if n != len(y):
        raise ArgumentError(f"problem {prob.name!r} has dimension {n}, "
                            f"but y_0 has {len(y)} components")
    if not (math.isfinite(t_start) and math.isfinite(t_stop) and t_start < t_stop):
        raise ArgumentError(f"need finite t_start < t_stop, got {t_start!r} and {t_stop!r}")
    if not np.all(np.isfinite(y)):
        raise ArgumentError("initial state must be finite")
    if not h > 0:
        raise ArgumentError(f"step size must be positive, got {h!r}")
    rhs = prob.rhs

    def f(t, y):
        out = np.asarray(rhs(t, y), dtype=float)
        if out.shape != (n,):
            raise ValueError(f"rhs returned shape {out.shape}, expected ({n},)")
        return out

    return f, y


def _step_log(attempts) -> StepLog:
    """The StepLog of _adaptive_loop's attempt records (t, h, E, accepted)."""
    t, h, e, accepted = np.array(attempts, dtype=float).reshape(-1, 4).T
    accepted = accepted.astype(bool)
    rejected = ~accepted
    return StepLog(t[accepted], h[accepted], t[rejected], h[rejected], e[accepted])


def _adaptive_loop(kernel: StepKernel, prob, tol: Tolerances,
                   y_0, t_start: float, t_stop: float,
                   options: IntegrationOptions | None,
                   record_states: bool):
    """The adaptive loop behind every adaptive driver.

    Returns (t_n, y_n, states, attempts).  states lists y_0 and the state at
    each accepted point when ``record_states`` and is None otherwise.
    attempts holds one record (t, h, E, accepted) per attempt, t being the
    time after it; _step_log builds every StepLog and grid from them.
    """
    opts = options or IntegrationOptions()
    h = opts.h0 if opts.h0 is not None else (t_stop - t_start) / 100.0
    f, y = _entry_check(prob, y_0, t_start, t_stop, h)
    cp = ControllerParams.for_order(kernel.order)
    step = kernel.step
    h_min = opts.h_min if opts.h_min is not None else (
        1e4 * np.finfo(float).eps * max(abs(t_start), abs(t_stop), 1.0))

    t = t_start
    e_prev = 1.0
    states = [y.copy()] if record_states else None
    attempts: list[tuple] = []

    while t < t_stop:
        if len(attempts) >= opts.max_steps:
            raise MaxStepsExceeded(
                f"no convergence within {opts.max_steps} step attempts "
                f"(reached t = {t}, last h = {attempts[-1][1]})",
                t, y, _step_log(attempts))
        h_use = min(h, t_stop - t)
        if h_use < h_min and t + h_use < t_stop:
            raise StepSizeUnderflow(
                f"step size underflow: h = {h_use} < h_min = {h_min} at t = {t} "
                f"after {len(attempts)} step attempts", t, y, _step_log(attempts))
        y_next, y_hat_next = step(f, t, y, h_use)
        # A non-finite trial has E = inf: it is rejected and retried smaller,
        # and persistent failure ends in StepSizeUnderflow.
        e_m = error_norm(y_next, y_hat_next, tol)
        accepted = e_m <= 1.0
        if accepted:
            y = y_hat_next if opts.propagate_embedded else y_next
            t = t_stop if h_use >= t_stop - t else min(t + h_use, t_stop)
            if record_states:
                states.append(y.copy())
            h = propose_step_size(h_use, e_m, e_prev, cp)
            e_prev = max(e_m, cp.e_prev_floor)
        else:
            h = rescale_rejected(h_use, e_m, cp)
        attempts.append((t, h_use, e_m, accepted))

    return t, y, states, attempts


def adaptive_integrate(method: StepKernel, prob, tol: Tolerances, y_0,
                       t_start: float, t_stop: float, last: bool = False,
                       options: IntegrationOptions | None = None):
    """Adaptive integration; returns a Trajectory, or (t_n, y_n) when ``last``.

    ``method`` is any step kernel (generic interpreter or generated
    specialized code); ``prob`` is an ODEProblem or a bare rhs callable.
    """
    t, y, states, attempts = _adaptive_loop(method, prob, tol, y_0, t_start, t_stop,
                                            options, record_states=not last)
    if last:
        return float(t), y
    times = np.concatenate(([t_start], _step_log(attempts).accepted_t))
    return Trajectory(times=times, states=np.array(states))


def integrate_info(method: StepKernel, prob, tol: Tolerances, y_0,
                   t_start: float, t_stop: float,
                   options: IntegrationOptions | None = None) -> StepLog:
    """Adaptive integration returning the accepted/rejected step log."""
    *_, attempts = _adaptive_loop(method, prob, tol, y_0, t_start, t_stop,
                                  options, record_states=False)
    return _step_log(attempts)


def fixed_integrate(method: StepKernel, prob, h: float, y_0,
                    t_start: float, t_stop: float, last: bool = False,
                    options: IntegrationOptions | None = None):
    """Uniform steps of size h, final step truncated to land on t_stop.

    No error control; the embedded solution is computed but unused.  Of
    ``options`` only max_steps applies: a run of more steps raises
    ArgumentError before the first rhs call.
    """
    f, y = _entry_check(prob, y_0, t_start, t_stop, h)
    max_steps = (options or IntegrationOptions()).max_steps
    # compared before ceil, which raises OverflowError when span / h is inf
    span_steps = (t_stop - t_start) / h - 1e-9
    if span_steps > max_steps:
        raise ArgumentError(f"step size {h!r} takes more than max_steps = {max_steps} "
                            f"steps over [{t_start!r}, {t_stop!r}]")
    step = method.step
    n_steps = max(1, math.ceil(span_steps))
    if not last:
        times = np.empty(n_steps + 1)
        states = np.empty((n_steps + 1, y.shape[0]))
        times[0], states[0] = t_start, y
    t = t_start
    for m in range(n_steps):
        t_next = t_start + (m + 1) * h
        if m == n_steps - 1 or t_next > t_stop:
            t_next = t_stop
        y, _ = step(f, t, y, t_next - t)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(
                f"non-finite state produced at t = {t}", t, y)
        t = t_next
        if not last:
            times[m + 1], states[m + 1] = t, y
    if last:
        return t, y
    return Trajectory(times=times, states=states)
