"""One-off layer sweep: per-call cost of each stepping layer against N.

    python3 perfbench/sweep.py

For N in {2, 4, 10, 100, 1000} it times, in microseconds per call (median
of 5 samples, each a loop of at least 0.04 s):
  * the generated DOPRI5 step kernel with a trivial rhs (stage arithmetic);
  * the interpreted DOPRI5 kernel (`interpreted_kernel`) with the same rhs;
  * `error_norm` on two N-vectors;
  * the controller (`propose_step_size` + `rescale_rejected`), N-free.
It also times `DOPRI5_last` on arenstorf:1 at atol 1e-12, rtol 0 end to end
and reports microseconds per step attempt.  Not part of the benchmark runs;
its figures are the reference table in README.md.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rkforge import shipped_methods, stepcontrol  # noqa: E402
from rkforge.generated import dopri5  # noqa: E402
from rkforge.problems import benchmark_case  # noqa: E402

DIMENSIONS = (2, 4, 10, 100, 1000)


def per_call_us(fn, sample_s=0.04, repeats=5) -> float:
    """Median over `repeats` samples, each a loop of at least `sample_s`."""

    def sample(loops):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        return time.perf_counter() - start

    loops = 1
    while (elapsed := sample(loops)) < sample_s:
        loops *= 2
    samples = [elapsed] + [sample(loops) for _ in range(repeats - 1)]
    return statistics.median(samples) / loops * 1e6


def sweep() -> dict:
    tableau = next(t for t in shipped_methods() if t.name == "DOPRI5")
    generic = stepcontrol.interpreted_kernel(tableau).step
    tol = stepcontrol.Tolerances(1e-8, 1e-8)
    cp = stepcontrol.ControllerParams.for_order(5)
    rows = []
    for n in DIMENSIONS:
        y = np.linspace(0.5, 1.5, n)
        dy = np.full(n, 0.1)

        def f(t, y_, dy=dy):  # trivial rhs: a constant derivative
            return dy

        y_next, y_hat = dopri5._step(f, 0.0, y, 1e-3)
        rows.append({
            "N": n,
            "generated_step_us": per_call_us(lambda: dopri5._step(f, 0.0, y, 1e-3)),
            "generic_step_us": per_call_us(lambda: generic(f, 0.0, y, 1e-3)),
            "error_norm_us": per_call_us(lambda: stepcontrol.error_norm(y_next, y_hat, tol)),
            "controller_us": per_call_us(lambda: (stepcontrol.propose_step_size(1e-3, 0.5, 0.4, cp),
                                                  stepcontrol.rescale_rejected(1e-3, 2.0, cp))),
        })
    case = benchmark_case("arenstorf:1")
    log = dopri5.DOPRI5_info(case.problem, 1e-12, 0.0, case.y_0, case.t_start, case.t_stop)
    attempts = log.accepted_t.size + log.rejected_t.size
    times = []
    for _ in range(3):
        start = time.perf_counter()
        dopri5.DOPRI5_last(case.problem, 1e-12, 0.0, case.y_0, case.t_start, case.t_stop)
        times.append(time.perf_counter() - start)
    us_per_attempt = statistics.median(times) / attempts * 1e6
    return {"layers": rows,
            "arenstorf1_dopri5_1e-12": {"attempts": int(attempts),
                                        "us_per_attempt": us_per_attempt}}


def main() -> int:
    result = sweep()
    print("| N | generated step µs | generic step µs | error_norm µs | controller µs |")
    print("|---:|---:|---:|---:|---:|")
    for r in result["layers"]:
        print(f"| {r['N']} | {r['generated_step_us']:.1f} | {r['generic_step_us']:.1f} "
              f"| {r['error_norm_us']:.1f} | {r['controller_us']:.2f} |")
    e2e = result["arenstorf1_dopri5_1e-12"]
    print(f"\nDOPRI5_last on arenstorf:1 at atol 1e-12: {e2e['attempts']} attempts, "
          f"{e2e['us_per_attempt']:.1f} µs per attempt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
