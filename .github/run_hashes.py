"""Print one sha256 per group of solver outputs, to check a change for bit identity.

Usage: python .github/run_hashes.py [--check]   (from the root of the repo)

Run it on two trees (say, a `git archive` of the parent commit and the
change) and diff the outputs; equal lines mean equal bits.  With --check it
also compares its lines with .github/hashes.txt, the committed expected
output, and exits 1 on any difference; a change that alters bits on purpose
updates that file.  The groups are

  adaptive  trajectories, StepLogs and `last` points from every adaptive
            driver; the message, t, y and log of a MaxStepsExceeded and of
            a StepSizeUnderflow, and the message of a first step refused
            below h_min;
  fixed     fixed-step trajectories and `last` points; the message, t and
            y of a DivergenceError, and the message of a run refused for
            taking more than max_steps steps;
  solve     `forge solve` stdout, stderr and exit code;
  direct    a generated _step and error_norm called directly, as criterion
            3 calls a kernel.

The library groups cover the 9 shipped methods x their generated KERNEL and
interpreted_kernel x the six benchmark problems, each as its list_rhs
problem, as an array-rhs problem and as a bare callable, plus one seeded
N = 40 linear system.  Each method and kernel also gives the errors: a
StepSizeUnderflow from y' = -y turning NaN at t = 1, and a DivergenceError
from y' = y^2 and y_0 = 1 at N = 1 and N = WIDE_N + 1.  The solve group
covers the 9 methods x the six problems and an unknown one x trajectory,
last, steplog, fixed-step and a --max-steps 30 failure.  The direct group
covers the 9 methods' _step over two steps, its results and reuse slots: on
arrays of N = 1, 2, WIDE_N, WIDE_N + 1 and 40 with a bare array rhs, and on
those arrays and on lists of N = 1 to WIDE_N with the drivers' rhs of a
list_rhs and of an array-rhs problem.  Those lists, like every state of
N = 1 to WIDE_N in the library groups, run the per-N list bodies that
codegen.list_body writes out; their lines equal those of the loop body
_step_n, which ran every list before the per-N bodies came in.  It also
covers error_norm on seeded arrays and the same values as lists, N = 1 to
WIDE_N + 1, with NaN, inf and zero-scale inputs.  It takes about 20 s on
2 cores.

The runs above WIDE_N go through array_step's BLAS products, whose rounding
may differ with another CPU or BLAS build; this is unverified on a hosted
CI runner.  If --check fails there on an unchanged tree, move those runs to
a separate line that is only reported, rather than dropping them.
"""
import argparse
import contextlib
import hashlib
import io
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, "src")

from rkforge import cli, shipped_methods  # noqa: E402
from rkforge.generated import METHODS  # noqa: E402
from rkforge.problems import PROBLEM_NAMES, benchmark_case  # noqa: E402
from rkforge.stepcontrol import (  # noqa: E402
    WIDE_N,
    ArgumentError,
    DivergenceError,
    IntegrationError,
    IntegrationOptions,
    ODEProblem,
    StepSizeUnderflow,
    Tolerances,
    _entry_check,
    adaptive_integrate,
    error_norm,
    fixed_integrate,
    integrate_info,
    interpreted_kernel,
)


def feed(digest, *values):
    for v in values:
        a = np.asarray(v, dtype=float)
        digest.update(f"{a.shape}".encode())
        digest.update(a.tobytes())


def inputs():
    """(label, problem, y_0, t_stop) for every problem form."""
    for name in PROBLEM_NAMES:
        case = benchmark_case(name)
        for form, prob in (("list", case.problem),
                           ("array", replace(case.problem, list_rhs=False)),
                           ("bare", case.problem.rhs)):
            yield f"{name}/{form}", prob, case.y_0, case.t_stop
    mat = np.random.default_rng(40).standard_normal((40, 40)) / 40.0
    yield "seeded-40", ODEProblem(40, lambda t, y: mat @ y - y), np.linspace(-1.0, 1.0, 40), 2.0


def library_hashes():
    adaptive, fixed = hashlib.sha256(), hashlib.sha256()
    tol = Tolerances(1e-6, 1e-6)
    for t in shipped_methods():
        for kernel in (METHODS[t.name].KERNEL, interpreted_kernel(t)):
            for label, prob, y_0, t_stop in inputs():
                adaptive.update(f"{t.name} {label}".encode())
                traj = adaptive_integrate(kernel, prob, tol, y_0, 0.0, t_stop)
                t_n, y_n = adaptive_integrate(kernel, prob, tol, y_0, 0.0, t_stop, last=True)
                log = integrate_info(kernel, prob, tol, y_0, 0.0, t_stop)
                feed(adaptive, traj.times, traj.states, t_n, y_n, log.accepted_t,
                     log.accepted_h, log.rejected_t, log.rejected_h, log.errors)
                try:
                    adaptive_integrate(kernel, prob, tol, y_0, 0.0, t_stop, last=True,
                                       options=IntegrationOptions(max_steps=7))
                except IntegrationError as exc:
                    feed_error(adaptive, exc)
                fixed.update(f"{t.name} {label}".encode())
                traj = fixed_integrate(kernel, prob, t_stop / 200, y_0, 0.0, t_stop)
                t_n, y_n = fixed_integrate(kernel, prob, t_stop / 200, y_0, 0.0, t_stop,
                                           last=True)
                feed(fixed, traj.times, traj.states, t_n, y_n)
            error_runs(adaptive, fixed, t.name, kernel, tol)
    return adaptive.hexdigest(), fixed.hexdigest()


def feed_error(digest, exc):
    """The kind, message, t and y of an IntegrationError, and its log if any."""
    digest.update(f"{type(exc).__name__} {exc}".encode())
    feed(digest, exc.t, exc.y)
    if exc.log is not None:
        log = exc.log
        feed(digest, log.accepted_t, log.accepted_h, log.rejected_t, log.rejected_h,
             log.errors)


def feed_raised(digest, kind, run):
    """Call run, which must raise ``kind``, and feed what it raised."""
    try:
        with np.errstate(all="ignore"):
            run()
    except kind as exc:
        if isinstance(exc, IntegrationError):
            feed_error(digest, exc)
        else:
            digest.update(f"{type(exc).__name__} {exc}".encode())
        return
    raise AssertionError(f"{run} raised no {kind.__name__}")


def error_runs(adaptive, fixed, name, kernel, tol):
    """Feed the errors of one method and kernel to the two digests."""
    adaptive.update(f"{name} errors".encode())
    fixed.update(f"{name} errors".encode())
    one = np.array([1.0])

    def turns_nan(t, y):
        return -y if t < 1.0 else y * math.nan

    feed_raised(adaptive, StepSizeUnderflow,
                lambda: integrate_info(kernel, turns_nan, tol, one, 0.0, 2.0))
    feed_raised(adaptive, ArgumentError,
                lambda: adaptive_integrate(kernel, turns_nan, tol, one, 0.0, 2.0,
                                           options=IntegrationOptions(h0=1e-300)))
    for y_0 in (one, np.ones(WIDE_N + 1)):
        for last in (False, True):
            feed_raised(fixed, DivergenceError,
                        lambda: fixed_integrate(kernel, lambda t, y: y * y, 0.5, y_0,
                                                0.0, 10.0, last=last))
    feed_raised(fixed, ArgumentError,
                lambda: fixed_integrate(kernel, turns_nan, 1e-300, one, 0.0, 2.0))


def seeded_system(n):
    """A seeded nonlinear rhs of n components that takes a list or an array
    and returns the same kind, and a state y_0 as a float array."""
    rng = np.random.default_rng(n)
    mat = rng.standard_normal((n, n)) / n
    rows = mat.tolist()

    def rhs(t, y):
        if type(y) is list:
            return [sum(m * v for m, v in zip(row, y)) - 0.1 * u ** 3 + math.sin(t)
                    for row, u in zip(rows, y)]
        return mat @ y - 0.1 * y ** 3 + math.sin(t)

    return rhs, rng.uniform(-1.0, 1.0, n)


def feed_step(digest, out, reuse):
    """A step's two results and its reuse slots, with their kinds."""
    for v in (*out, *reuse):
        digest.update(type(v).__name__.encode())
        if v is not None:
            feed(digest, v)


def error_norm_inputs(n):
    """Seeded (y, y_hat, tol) of n components, some with NaN, inf, zero or
    subnormal entries and a zero a_tol."""
    rng = np.random.default_rng(1000 + n)
    specials = [math.nan, math.inf, -math.inf, 1e308, 0.0, -0.0, 5e-324]
    for trial in range(200):
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        y_hat = y + rng.standard_normal(n) * 10.0 ** rng.uniform(-14, 0, n)
        where = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
        if trial % 3 == 1:
            target = y if rng.integers(2) else y_hat
            target[where] = rng.choice(specials, size=where.size)
        elif trial % 3 == 2:
            y[where] = 0.0
            y_hat[where] = rng.choice([0.0, -0.0, 5e-324], size=where.size)
        a_tol = 0.0 if trial % 2 else float(10.0 ** rng.uniform(-12, -3))
        yield y, y_hat, Tolerances(a_tol, float(10.0 ** rng.uniform(-12, -3)))


def direct_hash():
    digest = hashlib.sha256()
    for name in sorted(METHODS):
        step = METHODS[name]._step
        for n in (1, 2, WIDE_N, WIDE_N + 1, 40):
            rhs, y_0 = seeded_system(n)
            drivers_f, _ = _entry_check(ODEProblem(n, rhs, list_rhs=True), y_0, 0.0, 1.0, 0.1)
            array_f, _ = _entry_check(ODEProblem(n, rhs), y_0, 0.0, 1.0, 0.1)
            runs = [("array bare", rhs, y_0), ("array list_rhs", drivers_f, y_0),
                    ("array array-rhs", array_f, y_0)]
            if n <= WIDE_N:
                runs += [("list list_rhs", drivers_f, y_0.tolist()),
                         ("list array-rhs", array_f, y_0.tolist())]
            for label, f, y in runs:
                digest.update(f"{name} {n} {label}".encode())
                reuse = [None, None]
                for t in (0.0, 0.1):
                    out = step(f, t, y, 0.1, reuse)
                    feed_step(digest, out, reuse)
                    y, reuse[0] = out[0], reuse[1]
    with np.errstate(all="ignore"):
        for n in range(1, WIDE_N + 2):
            for y, y_hat, tol in error_norm_inputs(n):
                for pair in ((y, y_hat), (y.tolist(), y_hat.tolist())):
                    feed(digest, error_norm(*pair, tol))
    return digest.hexdigest()


def solve_hash():
    digest = hashlib.sha256()
    runs = (["--atol", "1e-6", "--rtol", "1e-6"],
            ["--atol", "1e-6", "--rtol", "1e-6", "--output-kind", "last"],
            ["--atol", "1e-6", "--rtol", "1e-6", "--output-kind", "steplog"],
            ["--h", "0.01"],
            ["--atol", "1e-8", "--rtol", "1e-8", "--max-steps", "30"])
    for method in sorted(METHODS):
        for problem in (*PROBLEM_NAMES, "nonesuch"):
            for flags in runs:
                argv = ["solve", "--method", method, "--problem", problem, *flags]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                digest.update(f"{argv} {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print one sha256 per group of solver outputs.")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the lines equal .github/hashes.txt")
    args = parser.parse_args(argv)
    adaptive, fixed = library_hashes()
    lines = [f"adaptive {adaptive}", f"fixed    {fixed}", f"solve    {solve_hash()}",
             f"direct   {direct_hash()}"]
    print("\n".join(lines))
    if args.check and lines != (Path(__file__).parent / "hashes.txt").read_text().splitlines():
        print("the lines differ from .github/hashes.txt", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
