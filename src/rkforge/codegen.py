"""Render specialized solver modules from text templates.

Each method yields one Python module whose step kernel is fully unrolled:
every nonzero coefficient becomes a named scalar constant (A_i_j, B_j, BH_j,
C_i) rendered at 17 significant digits, and terms with zero coefficients are
simply absent.  One template, templates/solver.py.tmpl, is declarative text
with {{name}} placeholders, read and checked once; all expansion logic
(per-stage loops, zero elision, whether the last stage is first same as
last) lives in this renderer, which fills every placeholder in a single pass.

Wide systems run stepcontrol.array_step on the module's _ARRAYS, which
coefficient_arrays builds from the module's constants once, when the module
is imported.  The module's list body, _step_n, loops over the components.
For lists of 1 to WIDE_N floats, list_body renders the same block of the
template again at run time, with the components written out (y_0, y_1 = y,
and each stage input [y_0 + h * (A_3_1 * k1_0 + A_3_2 * k2_0), ...]) from
the module's own constant names; a generated _step calls it the first time
it sees a length and caches the result in the module's _BODIES under that
length N, once per process.  A fixed-step run asks for y_next alone (the
mark fixed on its f, see StepKernel), and _step then runs the fixed form,
which list_body renders from the same block and caches under -N: no y_hat
row, y_next in the y_hat_next slot, and no line for a stage that neither
y_next nor the FSAL hand-over reads (_live).  The module files carry only
_step_n, so a fresh interpreter compiles no body that it does not run.
Both helpers find the constants by the one naming rule,
tableau.coefficient_names.  The list bodies read the constants when called,
so a constant rebound later changes them at once, and never the wide path.
"""
from __future__ import annotations

import functools
import hashlib
import keyword
import os
import re
import tempfile
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .stepcontrol import WIDE_N, first_same_as_last
from .tableau import (ButcherTableau, beyond_doubles, coefficient_names,
                      render_coefficient_literal, validate_tableau)

__all__ = [
    "TemplateError",
    "check_template",
    "violation_lines",
    "render_method_module",
    "generate_module_set",
    "format_manifest",
    "list_body",
    "coefficient_arrays",
]

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")

# The placeholders the renderer fills; the template uses each of them and no
# other.
_PLACEHOLDERS = frozenset({
    "method_name", "order", "embedded_order", "stages", "description",
    "constants", "components", "stage_lines", "y_update", "y_hat_update",
    "last_stage",
})

# The names a rendered module binds or reads at module scope besides its
# drivers and its coefficient constants; a driver of the same name would
# shadow it.
_MODULE_NAMES = frozenset({
    "StepKernel", "Tolerances", "adaptive_integrate", "fixed_integrate",
    "integrate_info", "step_on_arrays", "list_body", "coefficient_arrays", "_ARRAYS",
    "_BODIES", "_step_n", "_step", "KERNEL", "range", "type", "list", "len", "globals",
    "getattr",
})

# The names of coefficient constants; list_body and coefficient_arrays find a
# module's constants by them, so no driver may be named so.
_CONSTANT_RE = re.compile(r"A_\d+_\d+|BH?_\d+|C_\d+")

_DRIVER_SUFFIX_RE = re.compile(r"^def \{\{method_name\}\}(\w*)\(", re.MULTILINE)


class TemplateError(ValueError):
    """Template uses an unknown placeholder, lacks a required one, or lacks
    the _step_n block that list_body renders."""


def _list_block(text: str) -> str:
    """The template's one _step_n block, from its def line to the blank
    lines after it."""
    start = text.find("def _step_n(")
    end = text.find("\n\n\n", start)
    if text.count("def _step_n(") != 1 or end < 0:
        raise TemplateError("need exactly one 'def _step_n(' block, "
                            "ended by two blank lines")
    return text[start:end + 1]


def check_template(text: str) -> str:
    """Return the template text if its placeholders are exactly the known set
    and it has exactly one _step_n block."""
    used = set(_PLACEHOLDER_RE.findall(text))
    unknown = used - _PLACEHOLDERS
    if unknown:
        raise TemplateError(f"unknown placeholders {sorted(unknown)}")
    missing = _PLACEHOLDERS - used
    if missing:
        raise TemplateError(f"missing required placeholders {sorted(missing)}")
    _list_block(text)
    return text


@functools.cache
def _template() -> str:
    """The packaged solver template, read and checked once."""
    path = resources.files(__package__) / "templates" / "solver.py.tmpl"
    return check_template(path.read_text(encoding="utf-8"))


def _increment(names, n=None) -> str | None:
    """y + h * (weighted sum of stages) as a list of floats, or None when
    every weight is zero.

    Zero weights are elided and the terms are summed left to right in stage
    order, for each component a in r, or, given n, for components 0..n-1
    written out (the per-N body): the same terms either way.
    """
    def component(a):
        terms = " + ".join(f"{w} * k{j + 1}{a}" for j, w in enumerate(names) if w)
        return f"y{a} + h * ({terms})"

    if not any(names):
        return None
    if n is None:
        return f"[{component('[a]')} for a in r]"
    return f"[{', '.join(component(f'_{a}') for a in range(n))}]"


def _unpack(name, n) -> str:
    """The statement that binds the n components of ``name`` to name_0, ..."""
    return f"{', '.join(f'{name}_{a}' for a in range(n))}{',' * (n == 1)} = {name}"


def _stage_lines(a, b, b_hat, c, n=None) -> str:
    """Unrolled stage evaluations on float lists, one line per stage after
    the first whose row of a is not None (_step_n's body).  Given n, each
    stage that a later line reads is unpacked into its components after it,
    k1 first."""
    read = {j for row in (*a, b, b_hat) if row for j, w in enumerate(row) if w}
    lines = [f"    {_unpack('k1', n)}"] if n is not None and 0 in read else []
    for i in (i for i in range(1, len(a)) if a[i] is not None):
        time = f"t + {c[i]} * h" if c[i] else "t"
        lines.append(f"    k{i + 1} = f({time}, {_increment(a[i], n) or 'y'})")
        if n is not None and i in read:
            lines.append(f"    {_unpack(f'k{i + 1}', n)}")
    return "\n".join(lines)


def _last_stage(a, b, c, coefficients) -> str:
    """_step_n's reuse[1] (see StepKernel): the last stage, or "None".

    The last stage is f(t + h, y_next) when ``coefficients``, the float
    (a, b, b_hat, c) that the module's constants hold, are
    first_same_as_last, array_step's rule: its input then sums y_next's
    floats in order.  The body checks it again at call time: a
    rebound constant (a patched weight) turns the reuse off.
    """
    if not first_same_as_last(coefficients):
        return "None"
    last_row = ", ".join(n for n in a[-1] if n)
    weights = ", ".join(n for n in b if n)
    return f"k{len(a)} if ({last_row}, {c[-1]}) == ({weights}, 1.0) else None"


def _live(a, b, last_stage) -> set:
    """The stages that y_next or the reuse hand-over reads: stage 1, the
    stages of nonzero weight in b, the last stage when ``last_stage`` hands
    it over, and every stage that a live stage's row of a reads."""
    live = {0, *(j for j, w in enumerate(b) if w)}
    if last_stage != "None":
        live.add(len(a) - 1)
    for i in range(len(a) - 1, 0, -1):  # row i reads only stages before it
        if i in live:
            live.update(j for j, w in enumerate(a[i]) if w)
    return live


def _list_values(names, coefficients, n=None, fixed=False) -> dict:
    """The placeholders of _step_n's block: its components and stages, per
    component a in r, or for components 0..n-1 written out.  The ``fixed``
    form computes no y_hat row, hands y_next back in its place, and has no
    line for a stage outside _live."""
    a, b, b_hat, c = names
    last_stage = _last_stage(a, b, c, coefficients)
    if fixed:
        live = _live(a, b, last_stage)
        a, b_hat = [row if i in live else None for i, row in enumerate(a)], [None] * len(b)
    return {
        "components": "r = range(len(y))" if n is None else _unpack("y", n),
        "stage_lines": _stage_lines(a, b, b_hat, c, n),
        "y_update": _increment(b, n),
        "y_hat_update": "y_next" if fixed else _increment(b_hat, n),
        "last_stage": last_stage,
    }


def _docstring_safe(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"""', '\\"\\"\\"')


def _fill(text: str, values: dict) -> str:
    return _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], text)


def _module_source(t: ButcherTableau) -> str:
    """The template with every placeholder filled for t.  Its reuse
    hand-over is decided on the layout that the module's _ARRAYS gets at
    import, built from the constants that it renders."""
    # every nonzero coefficient is named; a valid tableau's upper triangle
    # of a and its c_1 are None
    a, b, b_hat, c = names = coefficient_names((t.a, t.b, t.b_hat, t.c), lambda _, v: v != 0)
    constants = {n: v for n, v in zip(chain(*a, b, b_hat, c), chain(*t.a, t.b, t.b_hat, t.c)) if n}
    lines = "\n".join(f"{n} = {render_coefficient_literal(v)}" for n, v in constants.items())
    arrays = coefficient_arrays({n: float(v) for n, v in constants.items()}, t.s)
    return _fill(_template(), {
        "method_name": t.name,
        "order": str(t.p),
        "embedded_order": str(t.p_hat),
        "stages": str(t.s),
        "description": _docstring_safe(t.description),
        "constants": lines,
        **_list_values(names, arrays),
    })


def list_body(namespace: dict, n: int):
    """A generated module's list body for lists of |n| floats, given the
    module's globals, which cache it in _BODIES[n]; n < 0 asks for the
    fixed form, which returns (y_next, y_next).

    For 1 <= |n| <= WIDE_N it is the template's _step_n with each component
    written out, and for any other n < 0 _step_n's loop in fixed form:
    rendered from the constant names that the module binds, its FSAL reuse
    and live stages decided from _ARRAYS, and compiled into the module's
    namespace, so that it reads the constants when called.  Its terms are
    _step_n's, in _step_n's order, so it gives the same bits.  For any other
    n it is _step_n itself.
    """
    body = namespace["_step_n"]
    if n < 0 or 1 <= n <= WIDE_N:
        coefficients = namespace["_ARRAYS"]
        names = coefficient_names(coefficients, lambda name, v: name in namespace)
        size = abs(n) if abs(n) <= WIDE_N else None
        values = _list_values(names, coefficients, size, fixed=n < 0)
        source = _fill(_list_block(_template()), values)
        scope = {}
        filename = f"<{body.__code__.co_filename}, N = {abs(n)}{', fixed' * (n < 0)}>"
        exec(compile(source, filename, "exec"), namespace, scope)
        body = scope["_step_n"]
    namespace["_BODIES"][n] = body
    return body


def coefficient_arrays(namespace: dict, s: int):
    """array_step's coefficient arrays (a, b, b_hat, c) of an s-stage
    generated module, given its globals: each entry is the constant that
    the module binds under that coefficient's name, 0.0 where it binds none.

    A module builds its _ARRAYS so once, when it is imported; a constant
    rebound later changes its list bodies, which read the constants when
    called, and never the wide path.
    """
    a, *vectors = coefficient_names(([range(s)] * s, *[range(s)] * 3), lambda *_: True)
    return (np.array([[namespace.get(n, 0.0) for n in row] for row in a]),
            *(np.array([namespace.get(n, 0.0) for n in v]) for v in vectors))


def _name_problem(t: ButcherTableau) -> str | None:
    """Why the generated module cannot use ``t.name`` (a keyword, or a driver
    named like a constant or one of _MODULE_NAMES), or None if it can."""
    if keyword.iskeyword(t.name) or keyword.iskeyword(t.name.lower()):
        return (f"method name {t.name!r} or its module name "
                f"{t.name.lower()!r} is a Python keyword")
    for suffix in _DRIVER_SUFFIX_RE.findall(_template()):
        if t.name + suffix in _MODULE_NAMES or _CONSTANT_RE.fullmatch(t.name + suffix):
            return (f"method name {t.name!r} gives a driver {t.name + suffix} "
                    f"that shadows a name of the generated module or is named "
                    f"like a coefficient")
    return None


def violation_lines(t: ButcherTableau, report) -> list[str]:
    """Why no module can be generated for t, as `forge validate` words it:
    one "NAME: violation: ..." line per violation in ``report`` (t's
    validate_tableau report), then one for coefficients beyond the doubles
    and one for an unusable method name."""
    found = [str(v) for v in report.violations]
    found += filter(None, (beyond_doubles(t), _name_problem(t)))
    return [f"{t.name}: violation: {v}" for v in found]


def _require_valid(methods) -> None:
    """Raise ValueError listing every violation of ``methods``, validating
    each tableau once."""
    found = [line for t in methods for line in violation_lines(t, validate_tableau(t))]
    if found:
        raise ValueError("; ".join(found))


def render_method_module(t: ButcherTableau) -> str:
    """Full per-method module: constants, step kernel and all five drivers."""
    _require_valid([t])
    return _module_source(t)


def _index_source(methods) -> str:
    lines = ['"""Registry of generated embedded Runge-Kutta solver modules.', "",
             "Generated by `forge generate`; do not edit by hand.", '"""']
    lines += [f"from . import {t.name.lower()}" for t in methods]
    lines += ["", "METHODS = {", *(f'    "{t.name}": {t.name.lower()},' for t in methods), "}", ""]
    return "\n".join(lines)


def _atomic_write(path: Path, content: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def generate_module_set(methods, out_dir: str | Path):
    """Write one solver module per method plus the registry index.

    Returns the manifest: a list of (relative path, sha256 hex) pairs sorted
    by path.  Files are replaced atomically.  Duplicate method names and
    violations abort before anything is written, with a ValueError that
    lists every violation_lines line; each tableau is validated once.
    """
    methods = list(methods)
    seen = {}
    for t in methods:
        key = t.name.lower()
        if key in seen:
            raise ValueError(
                f"duplicate method name {t.name!r} (collides with {seen[key]!r})")
        seen[key] = t.name
    _require_valid(methods)
    rendered = [(f"{t.name.lower()}.py", _module_source(t)) for t in methods]
    rendered.append(("__init__.py", _index_source(methods)))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for rel, content in rendered:
        _atomic_write(out_dir / rel, content)
        digest = hashlib.sha256(content.encode("utf-8")).hexdigest()
        manifest.append((rel, digest))
    manifest.sort()
    return manifest


def format_manifest(manifest) -> str:
    """One line per file: '<relative-path> <sha256-hex>'."""
    return "\n".join(f"{rel} {digest}" for rel, digest in manifest)
