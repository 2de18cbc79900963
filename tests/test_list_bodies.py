"""The per-dimension list bodies of the generated modules.

For lists of 1 to WIDE_N floats a generated _step runs its list body with
each component written out, which codegen.list_body renders the first time
_step sees that length.  It must give _step_n's bits, reuse slots included,
and read the module's constants when called, so that a patched constant
acts at once and leaves nothing behind when it is restored.
"""
import math
import zlib

import numpy as np
import pytest

from rkforge.codegen import list_body
from rkforge.generated import METHODS, dopri5
from rkforge.stepcontrol import WIDE_N
from test_stage_reuse import Counted

SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 0.0]


def as_bytes(values):
    """A list or reuse slot as bytes, so that -0.0 and NaN payloads count;
    None stays None."""
    return None if values is None else np.array(values, dtype=float).tobytes()


def seeded_rhs(rng, n, special):
    """A nonlinear, non-autonomous list rhs of n components; with
    ``special``, one weight in three is inf, -inf, NaN or a signed zero, so
    that the stages carry them."""
    weights = rng.standard_normal(n).tolist()
    if special:
        weights = [SPECIAL[a // 3 % 5] if a % 3 == 0 else w for a, w in enumerate(weights)]
    shift = rng.standard_normal(n).tolist()

    def rhs(t, y):
        return [w * (v - 0.1 * v * v) + s * math.cos(t) for w, v, s in zip(weights, y, shift)]

    return rhs


@pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_per_dimension_body_has_the_bits_of_step_n(name, special):
    module = METHODS[name]
    rng = np.random.default_rng(zlib.crc32(f"{name} {special}".encode()))
    for n in range(1, WIDE_N + 1):
        body = list_body(vars(module), n)
        assert body is not module._step_n and module._BODIES[n] is body
        f = seeded_rhs(rng, n, special)
        y = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)).tolist()
        y[0] = -0.0
        t, h = rng.uniform(-5, 5), 10.0 ** rng.uniform(-4, 0)
        for k1 in (None, f(t, y)):
            slots = [[k1, "unset"], [k1, "unset"]]
            got = body(f, t, y, h, slots[0])
            want = module._step_n(f, t, y, h, slots[1])
            assert [as_bytes(v) for v in got] == [as_bytes(v) for v in want], (name, n)
            assert [type(v) for v in got] == [list, list]
            assert [as_bytes(v) for v in slots[0]] == [as_bytes(v) for v in slots[1]], (name, n)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_step_runs_the_body_of_its_length(monkeypatch, name):
    module = METHODS[name]
    monkeypatch.setattr(module, "_BODIES", {})
    f = lambda t, y: [-v for v in y]
    for n in (1, 4, WIDE_N, WIDE_N + 1):
        module._step(f, 0.0, [1.0] * n, 0.1)
    assert sorted(module._BODIES) == [1, 4, WIDE_N, WIDE_N + 1]
    assert module._BODIES[WIDE_N + 1] is module._step_n
    assert all(module._BODIES[n] is not module._step_n for n in (1, 4, WIDE_N))


def test_a_weight_patched_at_first_use_freezes_no_reuse_decision(monkeypatch):
    # the first N = 2 body is rendered while B_1 is moved; restored, DOPRI5
    # hands its last stage over again: 7 calls, then 6 for each of 9 steps
    monkeypatch.setattr(dopri5, "_BODIES", {})
    original = dopri5.B_1
    monkeypatch.setattr(dopri5, "B_1", original + 1e-3)
    reuse = [None, None]
    dopri5._step(lambda t, y: [y[1], -y[0]], 0.0, [1.0, 0.5], 0.1, reuse)
    assert reuse[1] is None and 2 in dopri5._BODIES
    monkeypatch.setattr(dopri5, "B_1", original)
    f = Counted(lambda t, y: np.array([y[1], -y[0]]))
    dopri5.DOPRI5_fixed_last(f, 0.1, np.array([1.0, 0.5]), 0.0, 1.0)
    assert f.calls == 61


@pytest.mark.parametrize("name", ["DOPRI5", "DOPRI8", "Fehlberg45"])
def test_a_constant_patched_after_first_use_changes_the_result(monkeypatch, name):
    module = METHODS[name]
    f = lambda t, y: [y[1], -y[0] + math.cos(t)]
    args = (0.0, [1.0, 0.5], 0.1)
    before = module._step(f, *args)
    assert 2 in module._BODIES
    monkeypatch.setattr(module, "B_1", module.B_1 + 1e-3)
    patched = module._step(f, *args)
    assert patched[0] != before[0] and patched[1] == before[1]
    assert patched == module._step_n(f, *args)
    monkeypatch.undo()
    assert module._step(f, *args) == before
