"""The benchmark's traced twin reproduces an untraced solve exactly.

perfbench/bench_trace.py times rkforge's layers by patching module attributes
of rkforge.stepcontrol and rkforge.cli, and rebuilds every StepKernel it sees
from the kernel's fields.  A kernel field the rebuild drops, or an error norm
computed somewhere other than the patched stepcontrol.error_norm, would make
the traced round differ from the untraced one or go uncounted.  This reads
perfbench/ and changes nothing there.
"""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rkforge import cli
from rkforge.generated import METHODS
from rkforge.problems import benchmark_case
from rkforge.stepcontrol import fixed_integrate

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import bench_trace
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", ["DOPRI5", "ERK43b"])
def test_traced_solve_matches_untraced(name):
    module = METHODS[name]
    case = benchmark_case("arenstorf:1")
    rhs = case.problem.rhs
    args = (1e-10, 0.0, case.y_0, case.t_start, case.t_stop)
    log = getattr(module, f"{name}_info")(rhs, *args)
    attempts = log.accepted_t.size + log.rejected_t.size
    assert log.rejected_t.size > 0

    counter = bench_trace.Counter()
    t_plain, y_plain = getattr(module, f"{name}_last")(counter.rhs(rhs), *args)

    tracer = bench_trace.Tracer()
    with tracer.installed():
        t_traced, y_traced = getattr(module, f"{name}_last")(tracer.rhs(rhs), *args)

    assert (t_traced, y_traced.tobytes()) == (t_plain, y_plain.tobytes())
    assert tracer.rhs_calls == counter.rhs_calls > 0
    assert tracer.calls(bench_trace.ERROR_NORM) == attempts
    assert tracer.calls(bench_trace.GENERATED_STEP) == attempts


def test_traced_fixed_run_matches_untraced():
    # the twin wraps the kernel's step in a plain function, which hands the
    # generated step arrays; the fixed form that skips Fehlberg45's stage 6
    # is asked for through the drivers' f, so the twin takes it too
    kernel = METHODS["Fehlberg45"].KERNEL
    case = benchmark_case("vdp")
    h = 0.01
    steps = round((case.t_stop - case.t_start) / h)

    def run(driver, counter):
        problem = replace(case.problem, rhs=counter.rhs(case.problem.rhs))
        return driver(kernel, problem, h, case.y_0, case.t_start, case.t_stop, last=True)

    counter = bench_trace.Counter()
    t_plain, y_plain = run(fixed_integrate, counter)
    tracer = bench_trace.Tracer()
    with tracer.installed():
        t_traced, y_traced = run(cli.fixed_integrate, tracer)

    assert (t_traced, y_traced.tobytes()) == (t_plain, y_plain.tobytes())
    assert tracer.rhs_calls == counter.rhs_calls == 5 * steps
    assert tracer.calls(bench_trace.GENERATED_STEP) == steps
