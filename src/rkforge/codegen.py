"""Render specialized solver modules from text templates.

Each method yields one Python module whose step kernel is fully unrolled:
every nonzero coefficient becomes a named scalar constant (A_i_j, B_j, BH_j,
C_i) rendered at 17 significant digits, and terms with zero coefficients are
simply absent; wide systems get the same constants as stepcontrol.array_step's
arrays.  One template, templates/solver.py.tmpl, is declarative text with
{{name}} placeholders, read and checked once; all expansion logic (per-stage
loops, zero elision, whether the last stage is first same as last) lives in
this renderer, which fills every placeholder in a single pass.
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

from .tableau import ButcherTableau, render_coefficient_literal, validate_tableau

__all__ = [
    "TemplateError",
    "check_template",
    "violation_lines",
    "render_method_module",
    "generate_module_set",
    "format_manifest",
]

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")

# The placeholders the renderer fills; the template uses each of them and no
# other.
_PLACEHOLDERS = frozenset({
    "method_name", "order", "embedded_order", "stages", "description",
    "constants", "arrays", "stage_lines", "y_update", "y_hat_update", "last_stage",
})

# The names a rendered module binds or reads at module scope besides its
# drivers and its coefficient constants; a driver of the same name would
# shadow it.
_MODULE_NAMES = frozenset({
    "np", "StepKernel", "Tolerances", "adaptive_integrate", "fixed_integrate",
    "integrate_info", "step_on_arrays", "_ARRAYS", "_step", "KERNEL", "range", "type",
    "list", "len",
})

_DRIVER_SUFFIX_RE = re.compile(r"^def \{\{method_name\}\}(\w*)\(", re.MULTILINE)


class TemplateError(ValueError):
    """Template uses an unknown placeholder or lacks a required one."""


def check_template(text: str) -> str:
    """Return the template text if its placeholders are exactly the known set."""
    used = set(_PLACEHOLDER_RE.findall(text))
    unknown = used - _PLACEHOLDERS
    if unknown:
        raise TemplateError(f"unknown placeholders {sorted(unknown)}")
    missing = _PLACEHOLDERS - used
    if missing:
        raise TemplateError(f"missing required placeholders {sorted(missing)}")
    return text


@functools.cache
def _template() -> str:
    """The packaged solver template, read and checked once."""
    path = resources.files(__package__) / "templates" / "solver.py.tmpl"
    return check_template(path.read_text(encoding="utf-8"))


def _names(t: ButcherTableau):
    """The constant name of every coefficient in the (a, b, b_hat, c) layout,
    or None where it is zero (a valid tableau's upper triangle of a and its
    c_1 are all None)."""
    def row(values, prefix):
        return [f"{prefix}_{j + 1}" if v != 0 else None for j, v in enumerate(values)]

    return ([row(r, f"A_{i + 1}") for i, r in enumerate(t.a)],
            row(t.b, "B"), row(t.b_hat, "BH"), row(t.c, "C"))


def _constant_lines(t: ButcherTableau, a, b, b_hat, c) -> str:
    pairs = zip(chain(*a, b, b_hat, c), chain(*t.a, t.b, t.b_hat, t.c))
    return "\n".join(f"{n} = {render_coefficient_literal(v)}" for n, v in pairs if n)


def _arrays(a, b, b_hat, c) -> str:
    """The named constants as array_step's coefficient arrays, 0.0 for zeros."""
    def array(names):
        return ", ".join(n or "0.0" for n in names)

    rows = "".join(f"        [{array(r)}],\n" for r in a)
    return f"    np.array([\n{rows}    ]),\n" + "\n".join(
        f"    np.array([{array(v)}])," for v in (b, b_hat, c))


def _increment(names) -> str | None:
    """y + h * (weighted sum of stages) as a list of floats, or None when
    every weight is zero.

    Zero weights are elided and the terms are summed left to right in stage
    order.
    """
    terms = [f"{n} * k{j + 1}[a]" for j, n in enumerate(names) if n]
    if not terms:
        return None
    return f"[y[a] + h * ({' + '.join(terms)}) for a in r]"


def _stage_lines(a, c) -> str:
    """Unrolled stage evaluations on float lists, one line per stage after
    the first (_step's list body)."""
    lines = []
    for i in range(1, len(a)):
        time = f"t + {c[i]} * h" if c[i] else "t"
        lines.append(f"    k{i + 1} = f({time}, {_increment(a[i]) or 'y'})")
    return "\n".join(lines)


def _last_stage(t: ButcherTableau, a, b, c) -> str:
    """_step's reuse[1] (see StepKernel): the last stage, or "None".

    The last stage is f(t + h, y_next) when its row of a has b's doubles and
    c_s is 1.0: its input then sums y_next's floats in order.  The doubles
    are float(v) of the exact coefficients, which the rendered literals
    reparse to.  The renderer decides this from the tableau, and the body
    checks it again at call time: a rebound constant (a patched weight) turns
    the reuse off.
    """
    if [float(v) for v in (*t.a[-1], t.c[-1])] != [float(v) for v in (*t.b, 1)]:
        return "None"
    last_row = ", ".join(n for n in a[-1] if n)
    weights = ", ".join(n for n in b if n)
    return f"k{len(a)} if ({last_row}, {c[-1]}) == ({weights}, 1.0) else None"


def _docstring_safe(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"""', '\\"\\"\\"')


def _module_source(t: ButcherTableau) -> str:
    """The template with every placeholder filled for t."""
    a, b, b_hat, c = names = _names(t)
    values = {
        "method_name": t.name,
        "order": str(t.p),
        "embedded_order": str(t.p_hat),
        "stages": str(t.s),
        "description": _docstring_safe(t.description),
        "constants": _constant_lines(t, *names),
        "arrays": _arrays(*names),
        "stage_lines": _stage_lines(a, c),
        "y_update": _increment(b),
        "y_hat_update": _increment(b_hat),
        "last_stage": _last_stage(t, a, b, c),
    }
    return _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], _template())


def _name_problem(t: ButcherTableau) -> str | None:
    """Why the generated module cannot use ``t.name`` (a keyword, or a driver
    named like a constant or one of _MODULE_NAMES), or None if it can."""
    if keyword.iskeyword(t.name) or keyword.iskeyword(t.name.lower()):
        return (f"method name {t.name!r} or its module name "
                f"{t.name.lower()!r} is a Python keyword")
    a, b, b_hat, c = _names(t)
    bound = _MODULE_NAMES.union(chain(*a, b, b_hat, c))
    for suffix in _DRIVER_SUFFIX_RE.findall(_template()):
        if t.name + suffix in bound:
            return (f"method name {t.name!r} gives a driver {t.name + suffix} "
                    f"that shadows a name of the generated module")
    return None


def violation_lines(t: ButcherTableau, report) -> list[str]:
    """Why no module can be generated for t, as `forge validate` words it:
    one "NAME: violation: ..." line per violation in ``report`` (t's
    validate_tableau report), then one for an unusable method name."""
    found = [str(v) for v in report.violations]
    if problem := _name_problem(t):
        found.append(problem)
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
    for t in methods:
        lines.append(f"from . import {t.name.lower()}")
    lines.append("")
    lines.append("METHODS = {")
    for t in methods:
        lines.append(f'    "{t.name}": {t.name.lower()},')
    lines.append("}")
    lines.append("")
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
