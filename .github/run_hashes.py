"""Print one sha256 per group of solver outputs, to check a change for bit identity.

Usage: python .github/run_hashes.py   (from the root of the repo)

Run it on two trees (say, a `git archive` of the parent commit and the
change) and diff the outputs; equal lines mean equal bits.  The groups are

  adaptive  trajectories, StepLogs, `last` points and the t, y and log of
            a MaxStepsExceeded, from every adaptive driver;
  fixed     fixed-step trajectories and `last` points;
  solve     `forge solve` stdout, stderr and exit code.

The library groups cover the 9 shipped methods x their generated KERNEL and
interpreted_kernel x the six benchmark problems, each as its list_rhs
problem, as an array-rhs problem and as a bare callable, plus one seeded
N = 40 linear system.  The solve group covers the 9 methods x the six
problems and an unknown one x trajectory, last, steplog, fixed-step and a
--max-steps 30 failure.  It takes a minute or two.
"""
import contextlib
import hashlib
import io
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, "src")

from rkforge import cli, shipped_methods  # noqa: E402
from rkforge.generated import METHODS  # noqa: E402
from rkforge.problems import PROBLEM_NAMES, benchmark_case  # noqa: E402
from rkforge.stepcontrol import (  # noqa: E402
    IntegrationError,
    IntegrationOptions,
    ODEProblem,
    Tolerances,
    adaptive_integrate,
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
