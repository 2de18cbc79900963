"""Counting and tracing wrappers placed around rkforge's layer boundaries.

`Counter` is what the untraced runs use: it only counts the rhs calls the
benchmark passes in.  `Tracer` additionally records one span (name, start,
end, parent) per call at every layer boundary.  Its `installed()` context
patches module attributes of `rkforge.stepcontrol` and `rkforge.cli` for the
duration of a traced round and restores them afterwards; nothing under
`src/` is edited.  Spans live in flat in-memory arrays and are written out
once, when the run ends.
"""
from __future__ import annotations

import contextlib
import json
import time
from array import array

import numpy as np

from rkforge import cli, stepcontrol
from rkforge.stepcontrol import StepKernel

# Layer names, one per span kind.
RHS = "problems.rhs"
GENERATED_STEP = "generated.step"
GENERIC_STEP = "stepcontrol.generic_step"
ERROR_NORM = "stepcontrol.error_norm"
ACCEPT = "stepcontrol.controller.accept"
REJECT = "stepcontrol.controller.reject"
DRIVER = "stepcontrol.driver"
CLI_MAIN = "cli.main"
CODEGEN = "codegen.generate"
TABLEAU = "tableau.parse_validate"


class Counter:
    """Counts rhs calls; records no spans and patches nothing."""

    def __init__(self):
        self.rhs_calls = 0

    def rhs(self, fn):
        def counted(t, y):
            self.rhs_calls += 1
            return fn(t, y)
        return counted

    def wrap(self, name, fn):
        return fn

    def calls(self, name) -> int:
        return 0


class Tracer(Counter):
    """Counter that also records a span around every layer call."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._calls: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
        return self._ids[name]

    def calls(self, name) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self._calls[nid]

    def wrap(self, name, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, calls, clock = self._stack, self._calls, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            calls[nid] += 1
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def rhs(self, fn):
        return super().rhs(self.wrap(RHS, fn))

    def _kernel(self, kernel: StepKernel) -> StepKernel:
        module = getattr(kernel.step, "__module__", "") or ""
        layer = GENERATED_STEP if module.startswith("rkforge.generated") else GENERIC_STEP
        return StepKernel(name=kernel.name, order=kernel.order, stages=kernel.stages,
                          step=self.wrap(layer, kernel.step))

    def _driver(self, fn):
        span = self.wrap(DRIVER, fn)

        def driver(kernel, *args, **kwargs):
            return span(self._kernel(kernel), *args, **kwargs)

        return driver

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer boundaries for one traced round, then restore them.

        `stepcontrol._adaptive_loop` is the single adaptive loop behind every
        adaptive driver (the generated `NAME`, `NAME_last`, `NAME_info`, the
        library entry points and `forge solve`), so wrapping it and the
        kernel it receives covers all of them.  The fixed-step driver is
        reached through `cli.fixed_integrate`.
        """
        patches = [
            (stepcontrol, "_adaptive_loop", self._driver(stepcontrol._adaptive_loop)),
            (stepcontrol, "error_norm", self.wrap(ERROR_NORM, stepcontrol.error_norm)),
            (stepcontrol, "propose_step_size", self.wrap(ACCEPT, stepcontrol.propose_step_size)),
            (stepcontrol, "rescale_rejected", self.wrap(REJECT, stepcontrol.rescale_rejected)),
            (cli, "fixed_integrate", self._driver(cli.fixed_integrate)),
            (cli, "generate_module_set", self.wrap(CODEGEN, cli.generate_module_set)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.intc).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def totals(self):
        """Per layer name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the part its child spans cover.
        """
        name_id, parent, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def save(self, path, meta: dict) -> None:
        """Write every span, compressed, with the run's metadata."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, name_id=name_id, parent=parent, start=start, end=end,
                            names=np.array(self.names), meta=np.array(json.dumps(meta)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    totals = tracer.totals()

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    accepted, rejected = get(ACCEPT)[0], get(REJECT)[0]
    return {
        "problems.rhs_calls": get(RHS)[0],
        "problems.rhs_s": get(RHS)[1],
        "generated.step_calls": get(GENERATED_STEP)[0],
        "generated.step_self_s": get(GENERATED_STEP)[2],
        "stepcontrol.generic_step_self_s": get(GENERIC_STEP)[2],
        "stepcontrol.error_norm_calls": get(ERROR_NORM)[0],
        "stepcontrol.error_norm_s": get(ERROR_NORM)[1],
        "stepcontrol.controller_s": get(ACCEPT)[1] + get(REJECT)[1],
        "stepcontrol.driver_self_s": get(DRIVER)[2],
        "stepcontrol.accept_ratio": (accepted / (accepted + rejected)
                                     if accepted + rejected else 0.0),
        "cli.self_s": get(CLI_MAIN)[2],
        "codegen.generate_s": get(CODEGEN)[1],
    }
