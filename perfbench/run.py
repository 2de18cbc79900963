"""rkforge benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload arenstorf-tight --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Each run is one process and one thread (BLAS is pinned to one
thread before numpy loads).  It asks the program for each solve's step
count once (untimed, which also warms caches), then repeats whole rounds of
the workload's solves until `--seconds` of solving have passed, checking
every output.  Set-up is measured in fresh interpreters spawned between
solves, spread over those seconds.  With `--trace 1` it instead pairs an
untraced round with a traced one and reports per-layer numbers.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it records the environment.  See README.md.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SPAWNS = 21
TABLEAU_REPEATS = 5
WORKLOADS = ("arenstorf-tight", "ensemble-wide", "cli-session")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "us_per_attempt": "us",
    "step_attempts": "count",
    "rhs_evals": "count",
    "global_error": "1",
}
PER_LAYER_UNITS = {
    "problems.rhs_calls": "count",
    "problems.rhs_s": "s",
    "generated.step_calls": "count",
    "generated.step_self_s": "s",
    "stepcontrol.generic_step_self_s": "s",
    "stepcontrol.error_norm_calls": "count",
    "stepcontrol.error_norm_s": "s",
    "stepcontrol.controller_s": "s",
    "stepcontrol.driver_self_s": "s",
    "stepcontrol.accept_ratio": "1",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "codegen.generate_s": "s",
    "tableau.parse_validate_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _import_program():
    if not (SRC / "rkforge" / "__init__.py").is_file():
        raise BenchError(f"no rkforge sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rkforge

    if Path(rkforge.__file__).resolve().parent != (SRC / "rkforge").resolve():
        raise BenchError(f"imported rkforge from {rkforge.__file__}, not from {SRC}")


def _failures() -> tuple:
    """Exceptions that mark a failed operation: counted, and the run goes on."""
    from bench_workloads import SolveFailed
    from rkforge.stepcontrol import IntegrationError

    return IntegrationError, SolveFailed


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


class SetupProbe:
    """Time from spawning a fresh interpreter to rkforge being ready.

    One spawn at the start only warms the file cache and bytecode.  The
    `spawns` timed ones are spread evenly over the measuring window: the
    k-th falls due once k / spawns of `seconds` of solving have passed, and
    is taken in the gap after the solve that is running then.  The reported
    value is their median.
    """

    def __init__(self, spawns: int, seconds: float):
        self.spawns, self.seconds = spawns, seconds
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.times: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_child.py")], cwd=ROOT,
                              env=self.env, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate(timeout=120)
        if child.returncode != 0 or not line.startswith("ready"):
            raise BenchError(f"set-up probe failed (exit {child.returncode}): {line!r}")
        return elapsed

    def catch_up(self, solving_s: float) -> None:
        """Take every spawn that is due after `solving_s` seconds of solving."""
        while (len(self.times) < self.spawns
               and len(self.times) * self.seconds <= solving_s * self.spawns):
            self.times.append(self._spawn())

    def median(self) -> float:
        self.catch_up(float("inf"))
        return statistics.median(self.times)


class Tally:
    """Solves attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def fail(self, label: str, why: str, wrong_output: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong_output
        if len(self.notes) < 50:
            self.notes.append(f"{label}: {why}")


def count_attempts(solves, tally: Tally) -> list:
    """Each solve's step attempts, from the program's own step log."""
    failures = _failures()
    counts = []
    for s in solves:
        tally.attempted += 1
        try:
            counts.append(s.attempts())
        except failures as exc:
            tally.fail(s.label, f"{type(exc).__name__}: {exc}", wrong_output=False)
            counts.append(None)
    return counts


def run_round(solves, rec, tally: Tally, gap=None):
    """One timed pass over every solve, then the (untimed) checks.

    `gap(seconds solved so far in this round)` is called, untimed, after
    each solve.  Returns (seconds, outcomes, rhs calls per solve, step calls
    per solve); an outcome is None for a failed solve.
    """
    from bench_trace import GENERATED_STEP, GENERIC_STEP

    failures = _failures()
    raws, rhs, steps = [], [], []
    elapsed = 0.0
    gc.collect()  # every round starts from the same heap state
    for s in solves:
        rhs_before = rec.rhs_calls
        steps_before = rec.calls(GENERATED_STEP) + rec.calls(GENERIC_STEP)
        start = time.perf_counter()
        try:
            raws.append(s.run(rec))
        except failures as exc:
            raws.append(exc)
        elapsed += time.perf_counter() - start
        rhs.append(rec.rhs_calls - rhs_before)
        steps.append(rec.calls(GENERATED_STEP) + rec.calls(GENERIC_STEP) - steps_before)
        if gap is not None:
            gap(elapsed)

    outcomes = []
    for s, raw in zip(solves, raws):
        tally.attempted += 1
        if isinstance(raw, failures):
            tally.fail(s.label, f"{type(raw).__name__}: {raw}", wrong_output=False)
            outcomes.append(None)
            continue
        outcome = s.check(raw)
        if outcome.problems:
            tally.fail(s.label, "; ".join(outcome.problems), wrong_output=True)
        outcomes.append(outcome)
    return elapsed, outcomes, rhs, steps


def _same(solves, a, b, tally: Tally, what: str) -> None:
    """Outputs and rhs counts of two rounds must agree bit for bit."""
    for s, (out_a, rhs_a), (out_b, rhs_b) in zip(solves, zip(*a), zip(*b)):
        if (out_a is None) != (out_b is None) or rhs_a != rhs_b or (
                out_a is not None and out_a.bits != out_b.bits):
            tally.correct = False
            tally.notes.append(f"{s.label}: {what} differ")


def build(workload: str, seed: int, short: bool, workdir: Path):
    from bench_workloads import BUILDERS

    return BUILDERS[workload](seed, short=short, workdir=workdir, root=ROOT)


def _tableau_probe() -> float:
    """Median traced span of parsing and validating the shipped method file."""
    from bench_trace import TABLEAU, Tracer
    from rkforge import parse_method_file, shipped_method_path, validate_tableau

    def parse_validate():
        methods = parse_method_file(shipped_method_path().read_bytes())
        return [validate_tableau(t).ok for t in methods]

    probe = Tracer()
    traced = probe.wrap(TABLEAU, parse_validate)
    for _ in range(TABLEAU_REPEATS):
        if not all(traced()):
            raise BenchError("shipped method file does not validate")
    _, _, start, end = probe.arrays()
    return float(statistics.median(end - start))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 short: bool = False, setup_spawns: int = SETUP_SPAWNS,
                 trace_path: Path | None = None) -> dict:
    """Run one workload and return the result object (see the module doc)."""
    workdir = OUT / f"work-{os.getpid()}"
    tally = Tally()
    try:
        setup = None if trace else SetupProbe(setup_spawns, seconds)
        solves = build(workload, seed, short, workdir)
        attempts = count_attempts(solves, tally)
        if trace:
            metrics = _traced(solves, attempts, seconds, tally, trace_path, workload, seed)
        else:
            metrics = _untraced(solves, attempts, seconds, tally, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "notes": tally.notes}


def _untraced(solves, attempts, seconds, tally, setup: SetupProbe) -> dict:
    from bench_trace import Counter

    times, first = [], None
    while True:
        solved = sum(times)
        elapsed, outcomes, rhs, _ = run_round(
            solves, Counter(), tally, gap=lambda in_round: setup.catch_up(solved + in_round))
        times.append(elapsed)
        if first is None:
            first = (outcomes, rhs)
        else:
            _same(solves, first, (outcomes, rhs), tally, "outputs of two untraced rounds")
        if sum(times) >= seconds:
            break
    outcomes, rhs = first
    solve_s = statistics.median(times)
    step_attempts = sum(a for a in attempts if a is not None)
    errors = [o.error for o in outcomes if o is not None and o.error is not None]
    values = {
        "setup_s": setup.median(),
        "solve_s": solve_s,
        "us_per_attempt": solve_s / step_attempts * 1e6 if step_attempts else 0.0,
        "step_attempts": step_attempts,
        "rhs_evals": sum(rhs),
        "global_error": max(errors, default=0.0),
    }
    print(json.dumps({"rounds": len(times), "solve_s_each": times}), file=sys.stderr)
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def _traced(solves, attempts, seconds, tally, trace_path, workload, seed) -> dict:
    from bench_trace import Counter, Tracer, layer_metrics

    parse_validate_s = _tableau_probe()
    pairs = []
    begin = time.perf_counter()
    while True:
        plain_s, plain_out, plain_rhs, _ = run_round(solves, Counter(), tally)
        tracer = Tracer()
        with tracer.installed():
            traced_s, traced_out, traced_rhs, traced_steps = run_round(solves, tracer, tally)
        # fidelity: the traced twin returns the same bits, rhs and step counts
        _same(solves, (plain_out, plain_rhs), (traced_out, traced_rhs), tally,
              "traced and untraced outputs or rhs counts")
        for s, want, got in zip(solves, attempts, traced_steps):
            if want is not None and want != got:
                tally.correct = False
                tally.notes.append(f"{s.label}: traced run took {got} steps, "
                                   f"the step log says {want}")
        m = layer_metrics(tracer)
        m["cli.csv_bytes"] = sum(o.output_bytes for o in traced_out if o is not None)
        m["tableau.parse_validate_s"] = parse_validate_s
        m["trace.overhead_s"] = traced_s - plain_s
        pairs.append(m)
        if time.perf_counter() - begin >= seconds:
            break
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_path, {"workload": workload, **environment(seed)})
    return {k: {"value": statistics.median_low(p[k] for p in pairs), "unit": u}
            for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
        env = environment(args.seed)
        trace_path = OUT / f"trace-{args.workload}.npz" if args.trace else None
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              trace_path=trace_path)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    for note in result.pop("notes"):
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
