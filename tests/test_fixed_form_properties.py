"""Property: the fixed form of a list body has the full body's y_next.

A fixed-step run asks a generated step for y_next alone, and the step runs
the fixed form of its list body (codegen.list_body with a negative length).
On random tableaux of 2 to 13 stages whose zero patterns leave stages read
only by b_hat, stages that nothing reads, and FSAL and non-FSAL last rows,
the fixed form must give the full body's y_next bit for bit, hand y_next
back in the y_hat_next slot, leave reuse as the full body does, and call the
rhs once per live stage: stage 1, the stages of nonzero weight in b, the
last stage when it is handed over, and every stage that a live stage's row
of a reads.
"""
import math
import zlib
from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rkforge.codegen import list_body, render_method_module  # noqa: E402
from rkforge.stepcontrol import WIDE_N  # noqa: E402
from rkforge.tableau import ButcherTableau  # noqa: E402
from test_list_bodies import as_bytes  # noqa: E402
from test_stage_reuse import Counted  # noqa: E402

VALUES = st.sampled_from([F(1, 2), F(-1, 3), F(2), F(3, 4), F(-5, 7), F(1, 9), F(-3, 2)])


def weights(draw, s, pattern):
    """A row of s weights that sums to 1, nonzero at most where ``pattern``
    is true and at least once."""
    row = [draw(VALUES) if on else F(0) for on in pattern]
    first = next((j for j, w in enumerate(row) if w), 0)
    row[first] += 1 - sum(row)
    return row


@st.composite
def tableaux(draw):
    s = draw(st.integers(2, 13))
    a = [[F(0)] * s for _ in range(s)]
    for i in range(1, s):
        a[i][:i] = [draw(VALUES) if on else F(0)
                    for on in draw(st.lists(st.booleans(), min_size=i, max_size=i))]
    fsal = draw(st.booleans())
    b_pattern = draw(st.lists(st.booleans(), min_size=s, max_size=s))
    b = weights(draw, s, b_pattern[:-1] + [not fsal and b_pattern[-1]])
    if fsal:  # c_s = 1 follows from the row sum
        a[-1] = b[:]
    b_hat = weights(draw, s, draw(st.lists(st.booleans(), min_size=s, max_size=s)))
    c = [sum(row) for row in a]
    return ButcherTableau(name="Rand", description="", s=s, p=1, p_hat=1,
                          a=tuple(map(tuple, a)), b=tuple(b), b_hat=tuple(b_hat), c=tuple(c))


def live_stages(t: ButcherTableau) -> set:
    """The stages that y_next or the FSAL hand-over reads, as a fixed point."""
    live = {0} | {j for j, w in enumerate(t.b) if w}
    if t.c[-1] == 1 and t.a[-1] == t.b:
        live.add(t.s - 1)
    while True:
        more = live | {j for i in live for j, w in enumerate(t.a[i]) if w}
        if more == live:
            return live
        live = more


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(tableaux())
def test_fixed_form_has_the_bits_of_the_full_body(t):
    namespace = {}
    exec(compile(render_method_module(t), "<Rand>", "exec"), namespace)
    live = len(live_stages(t))
    rng = np.random.default_rng(zlib.crc32(repr(t).encode()))
    for n in range(1, WIDE_N + 2):
        weights_n = rng.standard_normal(n).tolist()
        f = Counted(lambda t, y: [w * (v - 0.1 * v * v) + math.cos(t)
                                  for w, v in zip(weights_n, y)])
        y = rng.standard_normal(n).tolist()
        t_m, h = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3, -1)
        slots = [[None, "unset"], [None, "unset"]]
        want = list_body(namespace, n)(f, t_m, y, h, slots[0])
        f.calls = 0
        got = list_body(namespace, -n)(f, t_m, y, h, slots[1])
        assert f.calls == live, n
        assert as_bytes(got[0]) == as_bytes(want[0]), n
        assert got[1] is got[0]
        assert [as_bytes(v) for v in slots[1]] == [as_bytes(v) for v in slots[0]], n
