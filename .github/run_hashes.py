"""Print one sha256 per group of solver outputs, to check a change for bit identity.

Usage: python .github/run_hashes.py   (from the root of the repo)

Run it on two trees (say, a `git archive` of the parent commit and the
change) and diff the outputs; equal lines mean equal bits.  The groups are

  adaptive  trajectories, StepLogs, `last` points and the t, y and log of
            a MaxStepsExceeded, from every adaptive driver;
  fixed     fixed-step trajectories and `last` points;
  solve     `forge solve` stdout, stderr and exit code;
  direct    a generated _step and error_norm called directly, as criteria 3
            and 11 call a kernel.

The library groups cover the 9 shipped methods x their generated KERNEL and
interpreted_kernel x the six benchmark problems, each as its list_rhs
problem, as an array-rhs problem and as a bare callable, plus one seeded
N = 40 linear system.  The solve group covers the 9 methods x the six
problems and an unknown one x trajectory, last, steplog, fixed-step and a
--max-steps 30 failure.  The direct group covers the 9 methods' _step over
two steps, its results and reuse slots: on arrays of N = 1, 2, WIDE_N,
WIDE_N + 1 and 40, once with a bare array rhs and once with the drivers'
rhs of a list_rhs problem, and on lists of N = 1 to WIDE_N with the drivers'
rhs of a list_rhs and of an array-rhs problem.  It also covers error_norm
on seeded arrays and the same values as lists, N = 1 to WIDE_N + 1, with
NaN, inf and zero-scale inputs.  It takes a minute or two.
"""
import contextlib
import hashlib
import io
import math
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, "src")

from rkforge import cli, shipped_methods  # noqa: E402
from rkforge.generated import METHODS  # noqa: E402
from rkforge.problems import PROBLEM_NAMES, benchmark_case  # noqa: E402
from rkforge.stepcontrol import (  # noqa: E402
    WIDE_N,
    IntegrationError,
    IntegrationOptions,
    ODEProblem,
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
                    feed(adaptive, exc.t, exc.y, exc.log.accepted_t, exc.log.errors)
                fixed.update(f"{t.name} {label}".encode())
                traj = fixed_integrate(kernel, prob, t_stop / 200, y_0, 0.0, t_stop)
                t_n, y_n = fixed_integrate(kernel, prob, t_stop / 200, y_0, 0.0, t_stop,
                                           last=True)
                feed(fixed, traj.times, traj.states, t_n, y_n)
    return adaptive.hexdigest(), fixed.hexdigest()


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
            runs = [("array bare", rhs, y_0), ("array list_rhs", drivers_f, y_0)]
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


if __name__ == "__main__":
    adaptive, fixed = library_hashes()
    print(f"adaptive {adaptive}")
    print(f"fixed    {fixed}")
    print(f"solve    {solve_hash()}")
    print(f"direct   {direct_hash()}")
