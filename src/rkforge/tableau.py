"""Butcher tableaus of embedded explicit Runge-Kutta pairs, kept in exact rationals.

A method is described by its stage count s, the orders p (main) and p_hat
(embedded), the strictly lower-triangular stage matrix ``a``, the two weight
rows ``b`` and ``b_hat``, and the nodes ``c``.  All coefficients are stored as
`fractions.Fraction` so that consistency checks (row sums, weight sums) are
exact; conversion to 64-bit floats happens only when solver source is
rendered or a kernel is built.
"""
from __future__ import annotations

import decimal
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ButcherTableau",
    "TableauError",
    "MethodParseError",
    "MethodSchemaError",
    "MethodDimensionError",
    "CoefficientError",
    "Violation",
    "ValidationReport",
    "parse_rational",
    "parse_method_file",
    "validate_tableau",
    "strict_warnings",
    "render_coefficient_literal",
]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")
_IDENTIFIER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# A quotient in this context is exact or raises Inexact: it passes the exact
# decimals of at most 17 significant digits (down to 1e-1000015).
_SHORT_DECIMAL = decimal.Context(prec=17, traps=[decimal.Inexact])


class TableauError(ValueError):
    """Base class for method-file and coefficient errors."""


class MethodParseError(TableauError):
    """Malformed JSON; carries the byte offset of the failure where it is known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class MethodSchemaError(TableauError):
    """Missing or ill-typed key; names the key and the method index."""


class MethodDimensionError(TableauError):
    """Array length inconsistent with the declared stage count."""


class CoefficientError(TableauError):
    """Unparseable coefficient entry (bad syntax, zero denominator, ...)."""


def parse_rational(value) -> Fraction:
    """Parse one coefficient entry: a string "m" or "m/n", or an exact integer.

    Non-integer JSON numbers are rejected: accepting 0.1 would silently inject
    binary representation error into a pipeline that is exact until rendering.
    Write such values as "1/10".
    """
    if isinstance(value, bool):
        raise CoefficientError(f"coefficient must be a string or number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise CoefficientError(f"coefficient {value!r} is not a finite number")
        if value != int(value):
            raise CoefficientError(
                f"non-integer number {value!r} is not exact; write it as a fraction string \"m/n\"")
        return Fraction(int(value))
    if isinstance(value, str):
        # the regex refuses what Fraction(str) would also read: whitespace,
        # "+", decimal points, exponents and underscores
        if not _RATIONAL_RE.match(value):
            raise CoefficientError(f"coefficient string {value!r} does not match m or m/n")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise CoefficientError(f"zero denominator in {value!r}") from None
        except ValueError as exc:  # more digits than int() reads
            raise CoefficientError(f"coefficient string of {len(value)} characters: {exc}") from None
    raise CoefficientError(f"coefficient must be a string or number, got {type(value).__name__}")


@dataclass(frozen=True)
class ButcherTableau:
    """Embedded explicit Runge-Kutta pair of orders p(p_hat) with s stages."""

    name: str
    description: str
    s: int
    p: int
    p_hat: int
    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    b_hat: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        if self.s < 1:
            raise MethodDimensionError(f"{self.name}: stage count must be positive, got {self.s}")
        for label, seq in (("b", self.b), ("b_hat", self.b_hat), ("c", self.c)):
            if len(seq) != self.s:
                raise MethodDimensionError(
                    f"{self.name}: {label} has length {len(seq)}, expected stage count {self.s}")
        if len(self.a) != self.s or any(len(row) != self.s for row in self.a):
            raise MethodDimensionError(
                f"{self.name}: a must be a {self.s}x{self.s} matrix")


@dataclass(frozen=True)
class Violation:
    """One violated tableau invariant; residuals are exact rationals."""

    code: str
    message: str
    residual: Fraction | None = None

    def __str__(self):
        return self.message


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _coeff_array(obj, key: str, idx: int):
    try:
        return obj[key]
    except KeyError:
        raise MethodSchemaError(f"method {idx}: missing key {key!r}") from None


def _parse_row(values, label: str, name: str) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise MethodSchemaError(f"{name}: {label} must be an array")
    return tuple(parse_rational(v) for v in values)


def parse_method_file(data: bytes | str) -> list[ButcherTableau]:
    """Parse a UTF-8 JSON method file into tableaus, preserving input order.

    The file is an array of objects with keys name, description, stage, order,
    extrapolation_order, a, b, b_hat, c.  Coefficients are strings "m" / "m/n"
    or exact integers.  Names must differ case-insensitively, since each names
    a generated module; ButcherTableau checks every array length.
    """
    if isinstance(data, bytes):
        if data.startswith(b"\xef\xbb\xbf"):
            raise MethodParseError("method file must be UTF-8 without BOM", 0)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MethodParseError(f"invalid UTF-8: {exc.reason}", exc.start) from None
    else:
        text = data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MethodParseError(f"malformed JSON: {exc.msg}", exc.pos) from None
    except ValueError as exc:  # an integer with more digits than int() reads
        raise MethodParseError(f"unreadable JSON number: {exc}") from None
    if not isinstance(doc, list):
        raise MethodSchemaError("method file must be a JSON array of method objects")

    tableaus = []
    seen = {}
    for idx, obj in enumerate(doc):
        if not isinstance(obj, dict):
            raise MethodSchemaError(f"method {idx}: expected an object")
        name, description, stage, order, p_hat = (_coeff_array(obj, key, idx) for key in (
            "name", "description", "stage", "order", "extrapolation_order"))
        for label, value in (("name", name), ("description", description)):
            if not isinstance(value, str):
                raise MethodSchemaError(f"method {idx}: {label} must be a string")
        for label, value in (("stage", stage), ("order", order),
                             ("extrapolation_order", p_hat)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise MethodSchemaError(
                    f"method {idx} ({name}): {label} must be a positive integer")
        key = name.lower()
        if key in seen:
            raise MethodSchemaError(f"method {idx}: duplicate method name {name!r} "
                                    f"(collides with {seen[key]!r})")
        seen[key] = name

        a_rows = _coeff_array(obj, "a", idx)
        if not isinstance(a_rows, list):
            raise MethodSchemaError(f"{name}: a must be an array")
        a = tuple(_parse_row(row, f"a row {i + 1}", name) for i, row in enumerate(a_rows))
        b, b_hat, c = (_parse_row(_coeff_array(obj, key, idx), key, name)
                       for key in ("b", "b_hat", "c"))
        tableaus.append(ButcherTableau(name=name, description=description, s=stage,
                                       p=order, p_hat=p_hat, a=a, b=b, b_hat=b_hat, c=c))
    return tableaus


def validate_tableau(t: ButcherTableau, strict: bool = False) -> ValidationReport:
    """Check every tableau invariant with exact rational arithmetic.

    Violations are data, not exceptions: the report lists each broken
    invariant with its exact residual.  With ``strict`` the standard
    second-order condition sum(b_j c_j) = 1/2 is additionally checked for
    p >= 2 and reported as a warning only (full order conditions for p >= 2
    are deliberately out of scope here).
    """
    violations = []

    if not _IDENTIFIER_RE.match(t.name):
        violations.append(Violation(
            "bad-name", f"name {t.name!r} is not a valid identifier"))

    for i in range(t.s):
        for j in range(i, t.s):
            if t.a[i][j] != 0:
                violations.append(Violation(
                    "not-lower-triangular",
                    f"not strictly lower-triangular at ({i + 1},{j + 1})",
                    t.a[i][j]))

    if t.c[0] != 0:
        violations.append(Violation(
            "c1-nonzero", f"c^1 must be 0, got {t.c[0]}", t.c[0]))

    for i in range(t.s):
        rowsum = sum(t.a[i][:i], Fraction(0))
        residual = t.c[i] - rowsum
        if residual != 0:
            violations.append(Violation(
                "row-sum", f"row-sum, stage {i + 1}, residual {residual}", residual))

    for label, row in (("b", t.b), ("b_hat", t.b_hat)):
        residual = sum(row, Fraction(0)) - 1
        if residual != 0:
            violations.append(Violation(
                f"{label}-sum", f"sum of {label} differs from 1 by {residual}", residual))

    return ValidationReport(tuple(violations), strict_warnings(t) if strict else ())


def strict_warnings(t: ButcherTableau) -> tuple[Violation, ...]:
    """The warnings of validate_tableau(t, strict=True): the second-order
    condition sum(b_j c_j) = 1/2 for p >= 2."""
    residual = sum((bj * cj for bj, cj in zip(t.b, t.c)), Fraction(0)) - Fraction(1, 2)
    if t.p < 2 or residual == 0:
        return ()
    return (Violation("order-2", f"sum of b_j c_j differs from 1/2 by {residual}", residual),)


def render_coefficient_literal(r: Fraction) -> str:
    """Decimal literal for a coefficient, reparsing to the nearest 64-bit float.

    Exact finite decimals of at most 17 significant digits are emitted
    exactly (1/2 -> "0.5"); integers carry a trailing ".0"; everything else is
    the 17-significant-digit rendering of the nearest 64-bit float, which is
    the value both the generated code and the generic kernel will compute
    with.
    """
    if r.denominator == 1:
        return f"{r.numerator}.0"
    try:
        return format(_SHORT_DECIMAL.divide(r.numerator, r.denominator), "f")
    except decimal.Inexact:
        try:
            return "%.17g" % float(r)
        except OverflowError:
            raise CoefficientError(f"coefficient {r} overflows a 64-bit float") from None
