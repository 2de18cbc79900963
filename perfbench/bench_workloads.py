"""The benchmark's workloads: closed loops of sequential rkforge solves.

Each workload is a list of `Solve`s.  A solve has a timed operation
(`run`, which calls one public entry point of rkforge with the recorder's
rhs wrapper), an untimed `check` of that operation's output, and an untimed
`attempts` twin that asks the program itself (through its step log) how
many step attempts the same integration makes.

Every check is made against a property of the problem or method, or against
a computation made apart from rkforge (scipy's DOP853 at 1e-13, sha256 of the
committed generated modules).  None compares against stored output.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from bench_trace import CLI_MAIN
from rkforge import cli, generated, shipped_methods, stepcontrol
from rkforge.problems import (
    arenstorf_hamiltonian,
    benchmark_case,
    closure_error,
)
from rkforge.stepcontrol import IntegrationOptions, Tolerances

# Step budget of the short forms, so that a broken kernel ends in
# MaxStepsExceeded within seconds instead of crawling to the default 10**6.
SHORT_MAX_STEPS = 30_000


class SolveFailed(RuntimeError):
    """A `forge` call exited non-zero: a failed operation, like an
    IntegrationError raised by a library driver."""


@dataclass
class Outcome:
    """Result of one solve after its check."""

    bits: bytes          # exact bytes of the output, for the fidelity check
    error: float | None  # error against the workload's check value
    problems: list[str]  # failed checks; empty when every check passes
    output_bytes: int = 0  # size of the CSV the solve wrote, if any


@dataclass
class Solve:
    label: str
    run: Callable        # run(recorder) -> raw output (timed)
    check: Callable      # check(raw) -> Outcome (untimed)
    attempts: Callable   # attempts() -> step attempts by the program's log


def _bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _log_attempts(log) -> int:
    return int(log.accepted_t.size + log.rejected_t.size)


def reference_end_state(rhs, y_0, t_start: float, t_stop: float) -> np.ndarray:
    """End state by scipy's DOP853 at rtol = atol = 1e-13, apart from rkforge."""
    sol = solve_ivp(rhs, (t_start, t_stop), np.asarray(y_0, dtype=float),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


# ---------------------------------------------------------------- arenstorf

ARENSTORF_ATOL = 1e-13
CLOSURE_LIMIT = 1e-9
HAMILTONIAN_LIMIT = 1e-8


def arenstorf_tight(seed: int, short: bool = False, **_) -> list[Solve]:
    """Every generated method's `NAME_last` on arenstorf:1 at atol 1e-13,
    rtol 0: the paper's orbit experiment.  The inputs are the canonical
    orbit, so the seed does not enter."""
    case = benchmark_case("arenstorf:1")
    h_0 = arenstorf_hamiltonian(case.y_0)
    names = ["DOPRI5", "DOPRI8"] if short else list(generated.METHODS)
    options = IntegrationOptions(max_steps=SHORT_MAX_STEPS) if short else None
    args = (ARENSTORF_ATOL, 0.0, case.y_0, case.t_start, case.t_stop)
    solves = []
    for name in names:
        module = generated.METHODS[name]
        last = getattr(module, f"{name}_last")
        info = getattr(module, f"{name}_info")

        def run(rec, last=last):
            return last(rec.rhs(case.problem.rhs), *args, options=options)

        def check(raw):
            t_n, y_n = raw
            closure = closure_error(y_n, case.y_0)
            drift = abs(arenstorf_hamiltonian(y_n) - h_0)
            problems = []
            if t_n != case.t_stop:
                problems.append(f"ends at t = {t_n!r}, not t_stop")
            if not closure <= CLOSURE_LIMIT:
                problems.append(f"orbit closure {closure:.3e} > {CLOSURE_LIMIT}")
            if not drift <= HAMILTONIAN_LIMIT:
                problems.append(f"Hamiltonian drift {drift:.3e} > {HAMILTONIAN_LIMIT}")
            return Outcome(_bits(t_n, y_n), closure, problems)

        def attempts(info=info):
            return _log_attempts(info(case.problem.rhs, *args, options=options))

        solves.append(Solve(name, run, check, attempts))
    return solves


# ----------------------------------------------------------------- ensemble

ENSEMBLE_COPIES = 500
ENSEMBLE_TOL = 1e-8
ENSEMBLE_SPAN = (0.0, 10.0)


def brusselator_ensemble(copies: int):
    """O(N) vectorised rhs of `copies` uncoupled Brusselators, state (u, v)."""

    def rhs(t, y):
        u = y[:copies]
        v = y[copies:]
        uuv = u * u * v
        return np.concatenate((1.0 + uuv - 4.0 * u, 3.0 * u - uuv))

    return rhs


def ensemble_initial_states(seed: int, copies: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate((rng.uniform(0.5, 2.0, copies), rng.uniform(2.0, 4.0, copies)))


def ensemble_wide(seed: int, short: bool = False, **_) -> list[Solve]:
    """DOPRI5 (FSAL) and DOPRI8 on a seeded ensemble of uncoupled
    Brusselators (N = 1000), each through its generated KERNEL and through
    `interpreted_kernel`, via `stepcontrol.adaptive_integrate`."""
    copies = 8 if short else ENSEMBLE_COPIES
    rhs = brusselator_ensemble(copies)
    y_0 = ensemble_initial_states(seed, copies)
    t_start, t_stop = ENSEMBLE_SPAN
    ref = reference_end_state(rhs, y_0, t_start, t_stop)
    scale = ENSEMBLE_TOL + ENSEMBLE_TOL * np.abs(ref)
    tol = Tolerances(ENSEMBLE_TOL, ENSEMBLE_TOL)
    options = IntegrationOptions(max_steps=SHORT_MAX_STEPS) if short else None
    tableaus = {t.name: t for t in shipped_methods()}
    solves = []
    for name in ("DOPRI5", "DOPRI8"):
        for kind, kernel in (("generated", generated.METHODS[name].KERNEL),
                             ("interpreted", stepcontrol.interpreted_kernel(tableaus[name]))):

            def run(rec, kernel=kernel):
                return stepcontrol.adaptive_integrate(kernel, rec.rhs(rhs), tol, y_0,
                                                      t_start, t_stop, last=True,
                                                      options=options)

            def check(raw):
                t_n, y_n = raw
                # global error in units of the requested tolerance, RMS over
                # the ensemble (the controller's own norm)
                scaled = math.sqrt(float(np.mean(((y_n - ref) / scale) ** 2)))
                problems = []
                if t_n != t_stop:
                    problems.append(f"ends at t = {t_n!r}, not t_stop")
                if not scaled <= 1.0:
                    problems.append(f"scaled RMS error vs DOP853 {scaled:.3e} > 1")
                return Outcome(_bits(t_n, y_n), scaled, problems)

            def attempts(kernel=kernel):
                return _log_attempts(stepcontrol.integrate_info(
                    kernel, rhs, tol, y_0, t_start, t_stop, options=options))

            solves.append(Solve(f"{name}/{kind}", run, check, attempts))
    return solves


# -------------------------------------------------------------- cli session

CLI_SESSIONS = 3
RIGID_BODY_INVARIANT_LIMIT = 1e-9
# Largest |y_n - y_ref| a trajectory's final state may show, per run.
CLI_END_LIMIT = {"vdp-dopri5": 1e-8, "rigid-body-dopri8": 1e-9, "vdp-fixed": 1e-9}


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _grid_problems(times: np.ndarray, t_stop: float) -> list[str]:
    problems = []
    if times.size < 2 or not np.all(np.diff(times) > 0):
        problems.append("times do not increase strictly")
    if times.size and times[-1] != t_stop:
        problems.append(f"last time {times[-1]!r} is not t_stop {t_stop!r}")
    return problems


def _rigid_body_invariants(states: np.ndarray) -> np.ndarray:
    x1, x2, x3 = states[:, 0], states[:, 1], states[:, 2]
    return np.stack((x1 * x1 - 4.0 * x3 * x3, 2.0 * x2 * x2 + 5.0 * x3 * x3), axis=1)


def committed_generated_hashes(root: Path) -> dict[str, str]:
    """sha256 of every committed module under src/rkforge/generated."""
    folder = root / "src" / "rkforge" / "generated"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(folder.glob("*.py"))}


def _cli_run(argv):
    """Timed operation: `cli.main(argv)` with the counting wrapper around the
    rhs of the case the CLI looks up."""

    def run(rec):
        original = cli.benchmark_case

        def counted_case(name):
            case = original(name)
            return replace(case, problem=replace(case.problem,
                                                 rhs=rec.rhs(case.problem.rhs)))

        cli.benchmark_case = counted_case
        try:
            code = rec.wrap(CLI_MAIN, cli.main)(argv)
        finally:
            cli.benchmark_case = original
        if code != 0:
            raise SolveFailed(f"forge {argv[0]} exited {code}")
    return run


def cli_session(seed: int, short: bool = False, workdir: Path | None = None,
                root: Path | None = None, **_) -> list[Solve]:
    """`cli.main` in process: `forge generate`, two adaptive trajectory runs,
    a steplog run and a fixed-step run, each writing CSV files.  A round runs
    this session CLI_SESSIONS times, each into its own directory, so that
    one timed round lasts a few seconds.  The inputs are the CLI's own
    benchmark problems, so the seed does not enter."""
    workdir = Path(workdir)
    budget = str(SHORT_MAX_STEPS if short else 10 ** 6)
    options = IntegrationOptions(max_steps=int(budget))
    expected_hashes = committed_generated_hashes(Path(root))

    # (label, argv builder taking the session directory, check taking it too,
    # attempts); the checks and step counts are shared by every session
    kinds = []

    def check_generate(folder):
        problems = []
        text = (folder / "manifest.txt").read_bytes()
        got = dict(line.split(" ") for line in text.decode().splitlines())
        if got != expected_hashes:
            problems.append("generate manifest differs from sha256 of the committed modules")
        return Outcome(text, None, problems)

    kinds.append(("generate",
                  lambda folder: ["generate", "--out", str(folder / "generated"),
                                  "--output", str(folder / "manifest.txt")],
                  check_generate, lambda: 0))

    # adaptive trajectory runs
    for label, method, problem, tol in (("vdp-dopri5", "DOPRI5", "vdp", 1e-9),
                                        ("rigid-body-dopri8", "DOPRI8", "rigid-body", 1e-10)):
        case = benchmark_case(problem)
        ref = reference_end_state(case.problem.rhs, case.y_0, case.t_start, case.t_stop)

        def argv(folder, label=label, method=method, problem=problem, tol=tol):
            return ["solve", "--method", method, "--problem", problem, "--atol", repr(tol),
                    "--rtol", repr(tol), "--max-steps", budget,
                    "--output", str(folder / f"{label}.csv")]

        def check(folder, label=label, case=case, ref=ref, problem=problem):
            out = folder / f"{label}.csv"
            problems = []
            _, rows = _read_csv(out)
            data = np.array(rows, dtype=float)
            times, states = data[:, 0], data[:, 1:]
            problems += _grid_problems(times, case.t_stop)
            err = float(np.max(np.abs(states[-1] - ref)))
            if not err <= CLI_END_LIMIT[label]:
                problems.append(f"{label}: end state off DOP853 by {err:.3e}")
            if problem == "rigid-body":
                inv = _rigid_body_invariants(states)
                drift = float(np.max(np.abs(inv - inv[0])))
                if not drift <= RIGID_BODY_INVARIANT_LIMIT:
                    problems.append(f"rigid-body invariant drift {drift:.3e}")
            text = out.read_bytes()
            return Outcome(text, err, problems, len(text))

        @functools.cache
        def attempts(method=method, case=case, tol=tol):
            return _log_attempts(stepcontrol.integrate_info(
                generated.METHODS[method].KERNEL, case.problem, Tolerances(tol, tol),
                case.y_0, case.t_start, case.t_stop, options=options))

        kinds.append((label, argv, check, attempts))

    # steplog run
    case = benchmark_case("brusselator")
    steplog_tol = 1e-6

    def steplog_argv(folder):
        return ["solve", "--method", "ERK43b", "--problem", "brusselator",
                "--atol", repr(steplog_tol), "--rtol", repr(steplog_tol), "--t0", "0",
                "--t1", "20", "--output-kind", "steplog", "--max-steps", budget,
                "--output", str(folder / "brusselator-steplog.csv")]

    def check_steplog(folder):
        out = folder / "brusselator-steplog.csv"
        problems = []
        header, rows = _read_csv(out)
        accepted = [r for r in rows if r[0] == "accepted"]
        acc_t = np.array([float(r[1]) for r in accepted])
        acc_h = [float(r[2]) for r in accepted]
        errors = np.array([float(r[3]) for r in accepted])
        if header != ["kind", "t", "h", "error"] or len(accepted) + sum(
                r[0] == "rejected" for r in rows) != len(rows):
            problems.append("steplog rows malformed")
        problems += _grid_problems(acc_t, 20.0)
        if not np.all(errors <= 1.0):
            problems.append("an accepted step has error > 1")
        if abs(math.fsum(acc_h) - 20.0) > 1e-10 * 20.0:
            problems.append(f"accepted h sum to {math.fsum(acc_h)!r}, not the span 20")
        text = out.read_bytes()
        return Outcome(text, None, problems, len(text))

    @functools.cache
    def steplog_attempts():
        return _log_attempts(stepcontrol.integrate_info(
            generated.METHODS["ERK43b"].KERNEL, case.problem,
            Tolerances(steplog_tol, steplog_tol), case.y_0, 0.0, 20.0, options=options))

    kinds.append(("brusselator-steplog", steplog_argv, check_steplog, steplog_attempts))

    # fixed-step run
    vdp = benchmark_case("vdp")
    h = 1e-3
    ref_fixed = reference_end_state(vdp.problem.rhs, vdp.y_0, vdp.t_start, vdp.t_stop)
    n_steps = math.ceil((vdp.t_stop - vdp.t_start) / h - 1e-9)

    def fixed_argv(folder):
        return ["solve", "--method", "Fehlberg45", "--problem", "vdp", "--h", repr(h),
                "--output", str(folder / "vdp-fixed.csv")]

    def check_fixed(folder):
        out = folder / "vdp-fixed.csv"
        problems = []
        _, rows = _read_csv(out)
        data = np.array(rows, dtype=float)
        problems += _grid_problems(data[:, 0], vdp.t_stop)
        if data.shape[0] != n_steps + 1:
            problems.append(f"{data.shape[0] - 1} fixed steps, expected {n_steps}")
        err = float(np.max(np.abs(data[-1, 1:] - ref_fixed)))
        if not err <= CLI_END_LIMIT["vdp-fixed"]:
            problems.append(f"vdp-fixed: end state off DOP853 by {err:.3e}")
        text = out.read_bytes()
        return Outcome(text, err, problems, len(text))

    kinds.append(("vdp-fixed", fixed_argv, check_fixed, lambda: n_steps))

    solves = []
    for k in range(1 if short else CLI_SESSIONS):
        folder = workdir / f"session-{k}"
        folder.mkdir(parents=True, exist_ok=True)
        for label, argv, check, attempts in kinds:
            solves.append(Solve(f"{label}/{k}", _cli_run(argv(folder)),
                                lambda _, check=check, folder=folder: check(folder),
                                attempts))
    return solves


BUILDERS = {
    "arenstorf-tight": arenstorf_tight,
    "ensemble-wide": ensemble_wide,
    "cli-session": cli_session,
}
