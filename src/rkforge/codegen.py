"""Render specialized solver modules from text templates.

Each method yields one Python module whose step kernel is fully unrolled:
every nonzero coefficient becomes a named scalar constant (A_i_j, B_j, BH_j,
C_i) rendered at 17 significant digits, and terms with zero coefficients are
simply absent.  The templates are declarative text with {{name}} placeholders
split into sections by "#:: section <name>" marker lines; all expansion logic
(per-stage loops, zero elision) lives in this renderer.

The adaptive drivers delegate error-norm and step-update arithmetic to
rkforge.stepcontrol, which keeps the control formulas in one place.
"""
from __future__ import annotations

import hashlib
import os
import re
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .tableau import ButcherTableau, render_coefficient_literal, validate_tableau

__all__ = [
    "TemplateError",
    "TemplateSet",
    "GeneratedModule",
    "VARIANTS",
    "load_templates",
    "render_solver_source",
    "render_method_module",
    "generate_module_set",
    "format_manifest",
]

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")
_SECTION_RE = re.compile(r"^#:: section (\w+)[ \t]*\n", re.MULTILINE)

# Placeholders the renderer knows how to fill.
_KNOWN_PLACEHOLDERS = frozenset({
    "method_name", "order", "embedded_order", "stages", "description",
    "constants", "stage_lines", "y_update", "y_hat_update",
    "wide_stage_lines", "wide_y_update", "wide_y_hat_update",
})
# Placeholders that must be present, per template role.
_REQUIRED = {
    "adaptive": _KNOWN_PLACEHOLDERS,
    "fixed": frozenset({"method_name"}),
}
_SECTIONS = {
    "adaptive": ("prelude", "trajectory", "last", "info"),
    "fixed": ("fixed_trajectory", "fixed_last"),
}

VARIANTS = ("adaptive-trajectory", "adaptive-last", "adaptive-info",
            "fixed-trajectory", "fixed-last")


class TemplateError(ValueError):
    """Template failed to load: bad section structure or unknown placeholder."""


@dataclass(frozen=True)
class TemplateSet:
    """Parsed solver templates: section name -> section text."""

    adaptive_name: str
    fixed_name: str
    adaptive_sections: dict
    fixed_sections: dict


@dataclass(frozen=True)
class GeneratedModule:
    """Rendered standalone solver source for one method and one variant."""

    method_name: str
    variant: str
    source: str


def _split_sections(text: str, role: str, name: str) -> dict:
    matches = list(_SECTION_RE.finditer(text))
    if not matches:
        raise TemplateError(f"{name}: no '#:: section' markers found")
    head = text[:matches[0].start()]
    if head.strip():
        raise TemplateError(f"{name}: text before the first section marker")
    sections = {}
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        key = m.group(1)
        if key in sections:
            raise TemplateError(f"{name}: duplicate section {key!r}")
        sections[key] = text[m.end():end]
    expected = _SECTIONS[role]
    if tuple(sections) != expected:
        raise TemplateError(
            f"{name}: sections {tuple(sections)} do not match expected {expected}")
    placeholders = set(_PLACEHOLDER_RE.findall(text))
    unknown = placeholders - _KNOWN_PLACEHOLDERS
    if unknown:
        raise TemplateError(f"{name}: unknown placeholders {sorted(unknown)}")
    missing = _REQUIRED[role] - placeholders
    if missing:
        raise TemplateError(f"{name}: missing required placeholders {sorted(missing)}")
    return sections


def load_templates(adaptive_path: str | Path | None = None,
                   fixed_path: str | Path | None = None) -> TemplateSet:
    """Load and validate the solver templates (package defaults unless given)."""
    if adaptive_path is None:
        adaptive_name = "adaptive.py.tmpl"
        adaptive_text = (resources.files(__package__) / "templates" /
                         adaptive_name).read_text(encoding="utf-8")
    else:
        adaptive_name = str(adaptive_path)
        adaptive_text = Path(adaptive_path).read_text(encoding="utf-8")
    if fixed_path is None:
        fixed_name = "fixed.py.tmpl"
        fixed_text = (resources.files(__package__) / "templates" /
                      fixed_name).read_text(encoding="utf-8")
    else:
        fixed_name = str(fixed_path)
        fixed_text = Path(fixed_path).read_text(encoding="utf-8")
    return TemplateSet(
        adaptive_name=adaptive_name,
        fixed_name=fixed_name,
        adaptive_sections=_split_sections(adaptive_text, "adaptive", adaptive_name),
        fixed_sections=_split_sections(fixed_text, "fixed", fixed_name),
    )


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
    def sub(match):
        return values[match.group(1)]
    out = _PLACEHOLDER_RE.sub(sub, text)
    leftover = _PLACEHOLDER_RE.search(out)
    if leftover:
        raise TemplateError(f"unfilled placeholder {leftover.group(0)}")
    return out


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


def render_solver_source(t: ButcherTableau,
                         templates: TemplateSet | None = None) -> tuple[GeneratedModule, ...]:
    """Render the five solver variants for one (valid) method.

    Each variant's source is a standalone module: the shared prelude
    (constants plus the unrolled step kernel) followed by that variant's
    driver function.
    """
    _require_valid(t)
    templates = templates or load_templates()
    values = _placeholder_values(t)
    prelude = _render(templates.adaptive_sections["prelude"], values)
    out = []
    for variant, role, section in (
            ("adaptive-trajectory", "adaptive", "trajectory"),
            ("adaptive-last", "adaptive", "last"),
            ("adaptive-info", "adaptive", "info"),
            ("fixed-trajectory", "fixed", "fixed_trajectory"),
            ("fixed-last", "fixed", "fixed_last")):
        sections = (templates.adaptive_sections if role == "adaptive"
                    else templates.fixed_sections)
        body = _render(sections[section], values)
        out.append(GeneratedModule(method_name=t.name, variant=variant,
                                   source=prelude + body))
    return tuple(out)


def render_method_module(t: ButcherTableau,
                         templates: TemplateSet | None = None) -> str:
    """Full per-method module: prelude plus all five driver variants."""
    _require_valid(t)
    templates = templates or load_templates()
    values = _placeholder_values(t)
    parts = [_render(templates.adaptive_sections["prelude"], values)]
    for section in ("trajectory", "last", "info"):
        parts.append(_render(templates.adaptive_sections[section], values))
    for section in ("fixed_trajectory", "fixed_last"):
        parts.append(_render(templates.fixed_sections[section], values))
    return "".join(parts)


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


def generate_module_set(methods, out_dir: str | Path,
                        templates: TemplateSet | None = None):
    """Write one solver module per method plus the registry index.

    Returns the manifest: a list of (relative path, sha256 hex) pairs sorted
    by path.  Files are replaced atomically; duplicate method names abort
    before anything is written.
    """
    methods = list(methods)
    seen = {}
    for t in methods:
        key = t.name.lower()
        if key in seen:
            raise ValueError(
                f"duplicate method name {t.name!r} (collides with {seen[key]!r})")
        seen[key] = t.name
    for t in methods:
        _require_valid(t)
    templates = templates or load_templates()

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rendered = [(f"{t.name.lower()}.py", render_method_module(t, templates))
                for t in methods]
    rendered.append(("__init__.py", _index_source(methods)))

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
