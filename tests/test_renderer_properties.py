"""Property: the rendered module agrees with its own loop, with array_step,
and with the first-same-as-last rule, on random tableaux.

Each tableau is rendered with codegen._module_source, the path that `forge
generate` takes once a tableau is valid; the order conditions play no part
here, so it is not validated.  For N = 1..WIDE_N, without reuse and with a
carried k1, the per-N body must give _step_n's bits for both results and both
reuse slots, and stay within criterion 3's 1e-12 of array_step on the
module's _ARRAYS.  Bit equality with array_step is not required: its BLAS
products sum in another order.  reuse[1] must be set exactly when the floats
are first same as last, and then hold the bits of f(t + h, y_next).
"""
import math
import zlib
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rkforge.codegen import _module_source, list_body  # noqa: E402
from rkforge.stepcontrol import WIDE_N, array_step, first_same_as_last  # noqa: E402
from test_fixed_form_properties import tableaux  # noqa: E402
from test_list_bodies import as_bytes  # noqa: E402


def ulp_off(r: F, up: bool) -> F:
    """The double next to r's nearest double, as an exact rational."""
    return F(float(np.nextafter(float(r), math.inf if up else -math.inf)))


@st.composite
def last_rows(draw):
    """A tableau of tableaux() as drawn, or with the last row of a set to b
    and c_s = 1 (first same as last), with one entry of that row one ulp
    off, with one entry off by less than half an ulp (equal as floats), or
    with c_s other than 1.  c_s is set explicitly; the rows need not sum to
    it, since nothing here validates."""
    t = draw(tableaux())
    kind = draw(st.sampled_from(["drawn", "fsal", "ulp", "below-ulp", "c_s"]))
    if kind == "drawn":
        return t
    b = list(t.b)
    b[0], b[-1] = b[0] + b[-1], F(0)  # a row of a is strictly lower
    row, c_s = b[:], F(1)
    j = draw(st.sampled_from([j for j, w in enumerate(b) if w]))
    if kind == "ulp":
        row[j] = ulp_off(row[j], draw(st.booleans()))
    elif kind == "below-ulp":
        row[j] += F(1, 10 ** 30)
    elif kind == "c_s":
        c_s = draw(st.sampled_from([F(1, 2), F(3, 4), F(2), ulp_off(F(1), True),
                                    ulp_off(F(1), False)]))
    a = t.a[:-1] + (tuple(row),)
    return replace(t, a=a, b=tuple(b), c=t.c[:-1] + (c_s,))


def floats_fsal(t) -> bool:
    """First same as last on the nearest doubles, worked out apart from
    stepcontrol: c_s is 1.0 and the last row of a equals b."""
    return float(t.c[-1]) == 1.0 and all(float(x) == float(w) for x, w in zip(t.a[-1], t.b))


def worst_deviation(got, ref) -> float:
    """Criterion 3's measure: the largest relative deviation of got from ref."""
    ref = np.asarray(ref)
    return float(np.max(np.abs(np.asarray(got) - ref) / np.maximum(np.abs(ref), 1e-30)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(last_rows())
def test_rendered_bodies_agree_with_step_n_and_array_step(t):
    namespace = {}
    exec(compile(_module_source(t), "<Rand>", "exec"), namespace)
    arrays = namespace["_ARRAYS"]
    fsal = floats_fsal(t)
    assert first_same_as_last(arrays) == fsal
    rng = np.random.default_rng(zlib.crc32(repr(t).encode()))
    for n in range(1, WIDE_N + 1):
        mat = (rng.standard_normal((n, n)) / n).tolist()

        def f(t, y):
            return [sum(m * v for m, v in zip(row, y)) + math.cos(t + u)
                    for row, u in zip(mat, y)]

        def f_array(t, y):
            return np.array(f(t, y.tolist()))

        y = rng.standard_normal(n).tolist()
        t_m, h = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3, -1)
        for carried in (False, True):
            slots = [[f(t_m, y), "unset"] if carried else None for _ in range(3)]
            want = namespace["_step_n"](f, t_m, y, h, slots[0])
            got = list_body(namespace, n)(f, t_m, y, h, slots[1])
            assert [as_bytes(v) for v in got] == [as_bytes(v) for v in want], n
            array_reuse = slots[2] and [np.array(slots[2][0]), None]
            ref = array_step(arrays, f_array, t_m, np.array(y), h, array_reuse)
            assert max(worst_deviation(v, r) for v, r in zip(got, ref)) < 1e-12, n
            if not carried:
                continue
            assert [as_bytes(v) for v in slots[1]] == [as_bytes(v) for v in slots[0]], n
            assert (slots[1][1] is not None) == fsal == (array_reuse[1] is not None), n
            if fsal:
                assert as_bytes(slots[1][1]) == as_bytes(f(t_m + h, got[0])), n
                assert as_bytes(array_reuse[1]) == as_bytes(f_array(t_m + h, ref[0])), n
