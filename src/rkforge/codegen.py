"""Render specialized solver modules from text templates.

Each method yields one Python module whose step kernel is fully unrolled:
every nonzero coefficient becomes a named scalar constant (A_i_j, B_j, BH_j,
C_i) rendered at 17 significant digits, and terms with zero coefficients are
simply absent.  One template, templates/solver.py.tmpl, is declarative text
with {{name}} placeholders, read and checked once; all expansion logic
(per-stage loops, zero elision) lives in this renderer, which fills every
placeholder in a single pass.

The adaptive drivers delegate error-norm and step-update arithmetic to
rkforge.stepcontrol, which keeps the control formulas in one place.
"""
from __future__ import annotations

import functools
import hashlib
import os
import re
import tempfile
from importlib import resources
from pathlib import Path

from .tableau import ButcherTableau, render_coefficient_literal, validate_tableau

__all__ = [
    "TemplateError",
    "check_template",
    "render_method_module",
    "generate_module_set",
    "format_manifest",
]

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")

# The placeholders the renderer fills; the template uses each of them and no
# other.
_PLACEHOLDERS = frozenset({
    "method_name", "order", "embedded_order", "stages", "description",
    "constants", "stage_lines", "y_update", "y_hat_update",
    "wide_stage_lines", "wide_y_update", "wide_y_hat_update",
})


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


def _constant_lines(t: ButcherTableau) -> str:
    lines = []
    for i in range(t.s):
        for j in range(i):
            if t.a[i][j] != 0:
                lines.append(f"A_{i + 1}_{j + 1} = "
                             f"{render_coefficient_literal(t.a[i][j])}")
    for j in range(t.s):
        if t.b[j] != 0:
            lines.append(f"B_{j + 1} = {render_coefficient_literal(t.b[j])}")
    for j in range(t.s):
        if t.b_hat[j] != 0:
            lines.append(f"BH_{j + 1} = {render_coefficient_literal(t.b_hat[j])}")
    for i in range(1, t.s):
        if t.c[i] != 0:
            lines.append(f"C_{i + 1} = {render_coefficient_literal(t.c[i])}")
    return "\n".join(lines)


def _increment(weights, prefix: str, wide: bool) -> str | None:
    """y + h * (weighted sum of stages), or None when every weight is zero.

    Zero weights are elided and the terms are summed left to right in stage
    order.  The float-list form combines one component at a time; the wide
    form uses whole-array expressions.
    """
    index = "" if wide else "[a]"
    terms = [f"{prefix}_{j + 1} * k{j + 1}{index}"
             for j, w in enumerate(weights) if w != 0]
    if not terms:
        return None
    if wide:
        return f"y + h * ({' + '.join(terms)})"
    return f"np.array([yl[a] + h * ({' + '.join(terms)}) for a in r])"


def _stage_lines(t: ButcherTableau, wide: bool) -> str:
    """Fully unrolled stage evaluations, one line per stage.

    The float-list body keeps stage values as plain float lists and combines
    them componentwise in Python, which beats array arithmetic on small
    systems, where numpy's per-operation dispatch dominates.  Above the
    crossover stepcontrol.WIDE_N the wide body's whole-array expressions win.
    Elementwise numpy arithmetic rounds exactly like Python floats and both
    bodies share term order, so they return bit-identical results.  The wide
    body copies every stage value because an rhs may return the same buffer
    on each call.
    """
    def evaluate(call):
        return f"np.array({call}, dtype=float)" if wide else f"{call}.tolist()"

    lines = [f"    k1 = {evaluate('f(t, y)')}"]
    for i in range(1, t.s):
        time = f"t + C_{i + 1} * h" if t.c[i] != 0 else "t"
        state = _increment(t.a[i][:i], f"A_{i + 1}", wide) or "y"
        lines.append(f"    k{i + 1} = {evaluate(f'f({time}, {state})')}")
    return "\n".join(lines)


def _docstring_safe(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"""', '\\"\\"\\"')


def _render(text: str, values: dict) -> str:
    return _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], text)


def _placeholder_values(t: ButcherTableau) -> dict:
    return {
        "method_name": t.name,
        "order": str(t.p),
        "embedded_order": str(t.p_hat),
        "stages": str(t.s),
        "description": _docstring_safe(t.description),
        "constants": _constant_lines(t),
        "stage_lines": _stage_lines(t, wide=False),
        "y_update": _increment(t.b, "B", wide=False),
        "y_hat_update": _increment(t.b_hat, "BH", wide=False),
        "wide_stage_lines": _stage_lines(t, wide=True),
        "wide_y_update": _increment(t.b, "B", wide=True),
        "wide_y_hat_update": _increment(t.b_hat, "BH", wide=True),
    }


def _require_valid(t: ButcherTableau) -> None:
    report = validate_tableau(t)
    if not report.ok:
        problems = "; ".join(str(v) for v in report.violations)
        raise ValueError(f"tableau {t.name!r} is invalid: {problems}")


def render_method_module(t: ButcherTableau) -> str:
    """Full per-method module: constants, step kernel and all five drivers."""
    _require_valid(t)
    return _render(_template(), _placeholder_values(t))


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
    lines.append("")
    lines.append("def get_method(name):")
    lines.append('    """Generated solver module for a method name."""')
    lines.append("    try:")
    lines.append("        return METHODS[name]")
    lines.append("    except KeyError:")
    lines.append("        raise KeyError(f\"no generated solver named {name!r}\") from None")
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
    by path.  Files are replaced atomically; duplicate method names and
    invalid tableaus abort before anything is written.
    """
    methods = list(methods)
    seen = {}
    for t in methods:
        key = t.name.lower()
        if key in seen:
            raise ValueError(
                f"duplicate method name {t.name!r} (collides with {seen[key]!r})")
        seen[key] = t.name
    rendered = [(f"{t.name.lower()}.py", render_method_module(t)) for t in methods]
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
