"""Runtime core: generic embedded-RK step kernel, error control, and drivers.

The step-size controller follows the classical design: per-component scale
sc = a_tol + max(|y|, |y_hat|) * r_tol, RMS error E over scaled differences,
acceptance iff E <= 1, and the two-error update

    h_next = h / max(f_min, min(f_max, E_m^a * E_prev^(-b) / f_s))

with f_s = 0.9, f_min = 0.1, f_max = 5, b = 0.4/p and a = 0.7/p - 0.75*b for
a method of order p: the drivers always use ControllerParams.for_order(p).
E_prev is the last accepted E, floored at 1e-4, and 1 before the first.
Note the clamp acts on the divisor, so growth is capped at 1/f_min while
shrinkage is capped at f_max; E_m = 0 takes the divisor f_min.  Rejected
steps retry with h / min(f_max, E_m^a / f_s).  Each attempt uses
h = min(h, t_stop - t); an accepted one ends at min(t + h, t_stop), and at
t_stop whenever h = t_stop - t, whatever t + h rounds to.  An attempt below
h_min = 1e4 * eps * max(|t_start|, |t_stop|, 1) that would end before
t_stop raises StepSizeUnderflow instead, and ArgumentError if it is the
first; the floor applies to a fixed-step run's first step too.

Up to WIDE_N components the drivers carry the state as a list of floats,
because numpy's per-operation dispatch outweighs the arithmetic on small
systems, and above it as a float array; at the API boundary it is a float
array again.  The rest follows the kind of the state (StepKernel's kind
rule).  WIDE_N is read in one more place, step_on_arrays.

Every driver, the generated modules' too, runs one loop, _drive, with one
of two policies, adaptive or fixed-step: the control has a single home.
_drive keeps no record per attempt, so a ``last`` run holds O(1) memory;
the adaptive policy keeps the attempt records that its StepLog reads.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tableau import ButcherTableau

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
    "step_on_arrays",
    "error_norm",
    "propose_step_size",
    "rescale_rejected",
    "adaptive_integrate",
    "fixed_integrate",
    "integrate_info",
]

WIDE_N = 16  # the float/array split; see the module docstring


class ArgumentError(ValueError):
    """A refused argument, raised before any rhs call."""


def _is_real(x) -> bool:
    """Whether x is a real number other than a bool; numpy scalars count."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class Tolerances:
    """Absolute and relative tolerance, finite; at least one must be positive."""

    a_tol: float
    r_tol: float

    def __post_init__(self):
        if not (_is_real(self.a_tol) and _is_real(self.r_tol)
                and 0 <= self.a_tol < math.inf and 0 <= self.r_tol < math.inf):
            raise ArgumentError(f"tolerances must be nonnegative numbers and finite, "
                                f"got {self.a_tol!r} and {self.r_tol!r}")
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
        """The default factors with the recommended exponents for order p."""
        if p < 1:
            raise ValueError("order must be positive")
        beta = 0.4 / p
        return cls(alpha_exp=0.7 / p - 0.75 * beta, beta_exp=beta)


@dataclass(frozen=True)
class ODEProblem:
    """First-order system: rhs(t, y) -> dy/dt, with fixed dimension.

    By default rhs takes a float array.  ``list_rhs=True`` says that rhs
    also takes a list of N floats and then returns N floats, fastest as a
    list; given an array it must still return an array-like.  Up to WIDE_N
    the drivers then pass it their stage lists; any other rhs gets arrays
    from the drivers' f, which takes lists (_entry_check).  The shipped
    problems opt in, and dataclasses.replace(case.problem, rhs=...) keeps
    the form.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], Sequence[float]]
    name: str = ""
    list_rhs: bool = False


@dataclass(frozen=True)
class Trajectory:
    """Accepted grid points and states; times strictly increase from t_start to t_stop."""

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
    """One embedded step: step(f, t, y, h, reuse=None) -> (y_next, y_hat_next).

    Both the generic interpreter kernel and every generated specialized
    kernel satisfy this contract: y is a float array of shape (N,), and f
    takes and returns such arrays.  The kind rule, with its one mark
    ``lists = True``: a marked step, as every generated _step is, returns
    the kind of y it was given, whatever N; given a list of N floats, it
    calls f with lists and returns two lists.  A marked f, as the drivers'
    is, likewise takes and returns either kind.  The drivers hand a marked
    step their state as is (module docstring), any other a float array; its
    results must be N floats, else a ValueError names their shape.

    Without ``reuse`` a step evaluates every stage.  The drivers pass one
    two-slot list per run instead: on entry reuse[0] is k1 = f(t, y) or
    None; on return reuse[0] holds the k1 the step used and reuse[1] the last
    stage when that is f(t + h, y_next) bit for bit (first same as last),
    None otherwise.  So the drivers evaluate f once per distinct (t, y): a
    retry after a rejection starts from the k1 it already has, and an FSAL
    method's next step from the last stage.  The results keep their bits;
    only an rhs with side effects sees fewer calls.
    """

    name: str
    order: int
    stages: int
    step: Callable


@dataclass(frozen=True)
class IntegrationOptions:
    h0: float | None = None          # default (t_stop - t_start) / 100
    max_steps: int = 10 ** 6

    def __post_init__(self):
        if self.h0 is not None and not (_is_real(self.h0) and self.h0 > 0):
            raise ArgumentError(f"h0 must be a positive number, got {self.h0!r}")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, numbers.Integral):
            raise ArgumentError(f"max_steps must be an integer, got {self.max_steps!r}")
        if not self.max_steps >= 1:
            raise ArgumentError(f"max_steps must be at least 1, got {self.max_steps!r}")


class IntegrationError(RuntimeError):
    """Driver failure; carries the last good time/state and the partial log.

    t and y are the time and state the driver last reached: the last
    accepted point of an adaptive run, and for DivergenceError the point
    before the step that produced a non-finite state, so y is finite; y is
    a float array of its own, whatever the kernel returned.  log
    is the partial StepLog of an adaptive run, None for a fixed-step one.
    """

    def __init__(self, message: str, t: float, y, log: StepLog | None = None):
        super().__init__(message)
        self.t = t
        self.y = np.array(y, dtype=float)
        self.log = log


class MaxStepsExceeded(IntegrationError):
    pass


class StepSizeUnderflow(IntegrationError):
    pass


class DivergenceError(IntegrationError):
    pass


def _float_coefficients(t: ButcherTableau):
    """Tableau coefficients as float64 arrays (a, b, b_hat, c), each the
    nearest double to its exact rational.  The generated code's literals
    reparse to the same doubles (acceptance criterion 2), so the interpreter
    and the generated code agree bit for bit without sharing the renderer."""
    return tuple(np.array(v, dtype=float) for v in (t.a, t.b, t.b_hat, t.c))


def erk_step_generic(t: ButcherTableau, prob: ODEProblem, t_m: float,
                     y_m: np.ndarray, h: float):
    """One embedded step by the array-driven interpreter.

    Returns (y_next, y_hat_next, stages).  This is the reference kernel the
    generated specialized code is checked against.  Its arguments pass the
    drivers' entry check on the interval [t_m, t_m + h].
    """
    f, y_m = _entry_check(prob, y_m, t_m, t_m + h, h)
    return array_step(_float_coefficients(t), f, t_m, y_m, h)


def array_step(coefficients, f, t_m: float, y_m: np.ndarray, h: float, reuse=None):
    """The array-driven kernel: erk_step_generic on float coefficients
    (a, b, b_hat, c) and an rhs that returns (N,) float arrays.

    Each stage input is y_m + h * (a[i, :i] @ k[:i]), built as the product
    scaled and shifted in place: the same IEEE operations as that formula,
    so the same bits, with one array per stage and no temporaries.  That
    array stays the stage's own, since f may keep a reference to its input.

    ``reuse`` is StepKernel's.  When c_s is 1.0 and the last row of a equals
    b (first same as last, the rule codegen._last_stage applies to the same
    floats), y_next is the last stage's input, so that stage is
    f(t_m + h, y_next) by construction and is always handed back.
    """
    a, b, b_hat, c = coefficients
    k = np.empty((a.shape[0], y_m.shape[0]))
    k[0] = f(t_m, y_m) if reuse is None or reuse[0] is None else reuse[0]
    for i in range(1, a.shape[0]):
        y_i = a[i, :i] @ k[:i]
        y_i *= h
        y_i += y_m
        k[i] = f(t_m + c[i] * h, y_i)
    if fsal := c[-1] == 1.0 and (a[-1] == b).all():
        y_next = y_i
    else:
        y_next = b @ k
        y_next *= h
        y_next += y_m
    y_hat_next = b_hat @ k
    y_hat_next *= h
    y_hat_next += y_m
    if reuse is not None:
        reuse[:] = k[0], k[-1] if fsal else None
    return y_next, y_hat_next, k


def step_on_arrays(list_step, coefficients, f, t_m: float, y_m, h: float, reuse=None):
    """A generated _step given a float array y_m (StepKernel's kind rule);
    returns two float arrays.

    Above WIDE_N it runs array_step on ``coefficients``, and f gets float
    arrays.  Up to WIDE_N it runs ``list_step`` on y_m.tolist(): an f marked
    lists (StepKernel), as the drivers' is, gets the stage lists, an
    unmarked one float arrays, k1 getting y_m itself.
    """
    if y_m.shape[0] > WIDE_N:
        return array_step(coefficients, f, t_m, y_m, h, reuse)[:2]
    y = y_m.tolist()
    if not getattr(f, "lists", False):
        rhs = f

        def f(t, y_i):
            return rhs(t, y_m if y_i is y else np.array(y_i)).tolist()

    y_next, y_hat_next = list_step(f, t_m, y, h, reuse)
    return np.array(y_next), np.array(y_hat_next)


def interpreted_kernel(t: ButcherTableau) -> StepKernel:
    """The generic interpreter (erk_step_generic) packaged as a step kernel.

    Lets any tableau drive the integration drivers without code generation,
    and serves as the baseline the generated specialized kernels are
    benchmarked against.
    """

    coefficients = _float_coefficients(t)

    def step(f, t_m, y_m, h, reuse=None):
        return array_step(coefficients, f, t_m, y_m, h, reuse)[:2]

    return StepKernel(name=t.name, order=t.p, stages=t.s, step=step)


def error_norm(y, y_hat, tol: Tolerances) -> float:
    """RMS of componentwise differences scaled by sc = a_tol + max|.|*r_tol.

    y and y_hat are float arrays or lists of floats, of one length.  A
    non-finite difference forces E = +inf.  A zero scale (possible only
    with a_tol = 0) contributes 0 when the difference is zero too, and forces
    E = +inf otherwise, so the step gets rejected rather than silently
    accepted.

    Lists of fewer than 8 floats take a float loop that sums in order,
    anything else works in place on two arrays of its own; both give the
    same bits.  A non-finite difference or an overflowing square makes the
    sum non-finite, so E = +inf, and neither path issues a warning for it.
    """
    # numpy sums fewer than 8 terms (its pairwise block) one by one, in order
    if not (type(y) is list and type(y_hat) is list and 0 < len(y) == len(y_hat) < 8):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        if y.shape != y_hat.shape or y.ndim != 1 or y.size == 0:
            raise ValueError("y and y_hat must be equal-length nonempty vectors")
        with np.errstate(all="ignore"):
            sc = np.abs(y)
            q = np.abs(y_hat)
            np.maximum(sc, q, out=sc)
            sc *= tol.r_tol
            sc += tol.a_tol
            np.subtract(y, y_hat, out=q)
            if tol.a_tol == 0.0:
                zero_scale = sc == 0.0
                if zero_scale.any():  # so 0 / 0 adds +0.0 and d / 0 makes E = inf
                    sc[zero_scale & (q == 0.0)] = 1.0
            q /= sc
            q *= q
            # np.mean's own sum and division, without its overhead
            s = float(np.add.reduce(q)) / y.shape[0]
            return math.sqrt(s) if math.isfinite(s) else math.inf
    a_tol, r_tol = tol.a_tol, tol.r_tol
    s = 0.0  # with += and not sum(), which compensates from Python 3.12 on
    try:
        for u, v in zip(y, y_hat):
            d = u - v
            if not math.isfinite(d):
                return math.inf
            au, av = abs(u), abs(v)
            sc = a_tol + (au if au >= av else av) * r_tol
            if sc != 0.0:
                d /= sc
                s += d * d
            elif d != 0.0:  # a zero difference at zero scale adds +0.0
                return math.inf
    except TypeError:  # an entry that is not a number, such as a nested list
        raise ValueError("y and y_hat must be equal-length nonempty vectors") from None
    return math.sqrt(s / len(y))


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
    """The argument check every driver and erk_step_generic run first, which
    raises ArgumentError before any rhs call; ``prob`` is an ODEProblem or a
    bare rhs callable; y_0 must be a nonempty 1-D vector.  Returns (f, y):
    prob's rhs wrapped, and y_0 as a float array of its own.  f returns the
    kind of y it was given, a float array or a list of N floats, checked to
    have shape (N,); a wrong shape can show mid-run, so f raises a plain
    ValueError for it.  f carries the mark lists (StepKernel).  Given a
    list, it hands rhs an array of it, unless prob.list_rhs; then it hands
    rhs the list as is, and returns a list result of length N as is,
    checking nothing else.
    """
    y = np.array(y_0, dtype=float)
    if y.ndim != 1 or not y.size:
        raise ArgumentError(f"y_0 must be a nonempty vector, got shape {y.shape}")
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
    rhs, list_rhs = prob.rhs, prob.list_rhs

    def f(t, y):
        if type(y) is not list:
            out = rhs(t, y)
        elif list_rhs:
            try:
                out = rhs(t, y)
            except TypeError as exc:
                raise TypeError(f"the rhs of a list_rhs problem must take a list of {n} "
                                f"floats, or be built with list_rhs=False") from exc
            if type(out) is list and len(out) == n:
                return out
        else:
            out = rhs(t, np.array(y))
        out = np.asarray(out, dtype=float)
        if out.shape != (n,):
            raise ValueError(f"rhs returned shape {out.shape}, expected ({n},)")
        return out if type(y) is not list else out.tolist()

    f.lists = True
    return f, y


def _driver_state(kernel: StepKernel, y: np.ndarray):
    """The drivers' state and step for the float array y.

    The state is y.tolist() up to WIDE_N and y above it.  A step marked
    lists takes the state as is.  Any other step gets a float array, and
    each of its results must be N floats; it comes back as the state's kind.
    """
    n = y.shape[0]
    state = y.tolist() if n <= WIDE_N else y
    step = kernel.step
    if getattr(step, "lists", False):
        return step, state

    def adapted(f, t, y, h, reuse):
        out = [np.asarray(v, dtype=float) for v in step(f, t, np.asarray(y), h, reuse)]
        for v in out:
            if v.shape != (n,):
                raise ValueError(f"kernel {kernel.name!r} returned shape {v.shape}, "
                                 f"expected ({n},)")
        return out if type(y) is not list else [v.tolist() for v in out]

    return adapted, state


def _step_log(attempts) -> StepLog:
    """The StepLog of the adaptive policy's attempt records (t, h, E, accepted)."""
    t, h, e, accepted = np.array(attempts, dtype=float).reshape(-1, 4).T
    accepted = accepted.astype(bool)
    rejected = ~accepted
    return StepLog(t[accepted], h[accepted], t[rejected], h[rejected], e[accepted])


def _h_min(h: float, t_start: float, t_stop: float) -> float:
    """The step floor of both policies, h_min (module docstring); a first
    attempt of h that it refuses raises ArgumentError."""
    h_min = 1e4 * np.finfo(float).eps * max(abs(t_start), abs(t_stop), 1.0)
    if h < t_stop - t_start and h < h_min and t_start + h < t_stop:
        raise ArgumentError(f"initial step size {h} is below h_min = {h_min}")
    return h_min


def _drive(step, f, y, t_start: float, t_stop: float, plan, judge, last):
    """The one driver loop: while t < t_stop, plan(t, y) gives (h, t_next)
    and judge(t, y, t_next, y_next, y_hat_next, h) gives E, and E <= 1
    moves to (t_next, y_next); either may raise.  It owns the reuse
    hand-over, the accepted times and states, and the result: (t_n, y_n)
    when ``last``, else the Trajectory.  It keeps no record per attempt; a
    policy that needs one keeps its own."""
    t = t_start
    times, states = [t], [y.copy()]
    reuse = [None, None]
    while t < t_stop:
        h, t_next = plan(t, y)
        y_next, y_hat_next = step(f, t, y, h, reuse)
        if judge(t, y, t_next, y_next, y_hat_next, h) <= 1.0:
            # the last stage ran at t + h, which can round away from t_next
            reuse[0] = reuse[1] if t + h == t_next else None
            t, y = t_next, y_next
            if not last:
                times.append(t)
                states.append(y.copy())
    if last:
        return float(t), np.array(y)
    return Trajectory(times=np.array(times, dtype=float), states=np.array(states, dtype=float))


def _adaptive_loop(kernel: StepKernel, prob, tol: Tolerances, y_0, t_start: float,
                   t_stop: float, options: IntegrationOptions | None, last):
    """The adaptive policy of _drive: plan refuses an attempt past max_steps
    or below h_min and gives h = min(h, t_stop - t); judge gives E by
    error_norm, updates h (module docstring) and records the attempt as (t
    after it, h, E, accepted).  Those records give the failures' logs, and
    the result when ``last`` is StepLog."""
    opts = options or IntegrationOptions()
    h = opts.h0 if opts.h0 is not None else (t_stop - t_start) / 100.0
    f, y = _entry_check(prob, y_0, t_start, t_stop, h)
    step, y = _driver_state(kernel, y)
    cp = ControllerParams.for_order(kernel.order)
    h_min = _h_min(h, t_start, t_stop)
    e_prev = 1.0
    attempts: list[tuple] = []

    def plan(t, y):
        if len(attempts) >= opts.max_steps:
            raise MaxStepsExceeded(
                f"no convergence within {opts.max_steps} step attempts "
                f"(reached t = {t}, last h = {attempts[-1][1]})",
                t, y, _step_log(attempts))
        # h >= t_stop - t ends at t_stop, whatever t + h rounds to
        if h < t_stop - t and h < h_min and t + h < t_stop:
            raise StepSizeUnderflow(
                f"step size underflow: h = {h} < h_min = {h_min} at t = {t} "
                f"after {len(attempts)} step attempts", t, y, _step_log(attempts))
        h_use = min(h, t_stop - t)
        return h_use, t_stop if h_use >= t_stop - t else min(t + h_use, t_stop)

    def judge(t, y, t_next, y_next, y_hat_next, h_use):
        nonlocal h, e_prev
        # A non-finite trial has E = inf (error_norm), so it is retried smaller.
        e_m = error_norm(y_next, y_hat_next, tol)
        accepted = e_m <= 1.0
        if accepted:
            h = propose_step_size(h_use, e_m, e_prev, cp)
            e_prev = max(e_m, cp.e_prev_floor)
        else:
            h = rescale_rejected(h_use, e_m, cp)
        attempts.append((t_next if accepted else t, h_use, e_m, accepted))
        return e_m

    result = _drive(step, f, y, t_start, t_stop, plan, judge, last)
    return _step_log(attempts) if last is StepLog else result


def adaptive_integrate(method: StepKernel, prob, tol: Tolerances, y_0,
                       t_start: float, t_stop: float, last: bool = False,
                       options: IntegrationOptions | None = None):
    """Adaptive integration; returns a Trajectory, or (t_n, y_n) when ``last``.

    ``method`` is any StepKernel; ``prob`` an ODEProblem or a bare rhs callable.
    """
    return _adaptive_loop(method, prob, tol, y_0, t_start, t_stop, options, last)


def integrate_info(method: StepKernel, prob, tol: Tolerances, y_0,
                   t_start: float, t_stop: float,
                   options: IntegrationOptions | None = None) -> StepLog:
    """Adaptive integration returning the accepted/rejected step log."""
    return _adaptive_loop(method, prob, tol, y_0, t_start, t_stop, options, StepLog)


def fixed_integrate(method: StepKernel, prob, h: float, y_0,
                    t_start: float, t_stop: float, last: bool = False,
                    options: IntegrationOptions | None = None):
    """Uniform steps of size h, the last one snapped to t_stop.

    No error control; the embedded solution is computed but unused.  Of
    ``options`` only max_steps applies: a run of more steps, a set h0, or
    an h below h_min that does not reach t_stop in one step raises
    ArgumentError before the first rhs call.  The fixed policy of _drive:
    plan counts its own steps and ends step m of n = max(1, ceil(span / h -
    1e-9)) at t_start + m * h, or at t_stop if m = n or that is past t_stop,
    and the run stops at t_stop, so the times strictly increase; judge gives
    E = 0, or raises DivergenceError for a non-finite state (see
    IntegrationError).
    """
    f, y = _entry_check(prob, y_0, t_start, t_stop, h)
    step, y = _driver_state(method, y)
    if options is not None and options.h0 is not None:
        raise ArgumentError(f"h0 applies only to adaptive runs, got h0 = {options.h0!r}")
    max_steps = (options or IntegrationOptions()).max_steps
    # compared before ceil, which raises OverflowError when span / h is inf
    span_steps = (t_stop - t_start) / h - 1e-9
    if span_steps > max_steps:
        raise ArgumentError(f"step size {h!r} takes more than max_steps = {max_steps} "
                            f"steps over [{t_start!r}, {t_stop!r}]")
    n_steps = max(1, math.ceil(span_steps))
    if n_steps > 1:  # a single step ends at t_stop, whatever its h
        _h_min(h, t_start, t_stop)
    wide = type(y) is not list
    steps = iter(range(1, n_steps + 1))

    def plan(t, y):
        m = next(steps)
        t_next = t_stop if m == n_steps else min(t_start + m * h, t_stop)
        return t_next - t, t_next

    def judge(t, y, t_next, y_next, y_hat_next, h):
        if not (np.isfinite(y_next).all() if wide else all(map(math.isfinite, y_next))):
            raise DivergenceError(f"non-finite state produced at t = {t}", t, y)
        return 0.0

    return _drive(step, f, y, t_start, t_stop, plan, judge, last)
