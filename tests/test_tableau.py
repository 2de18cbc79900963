import json
import random
from fractions import Fraction

import pytest

from rkforge.tableau import (
    ButcherTableau,
    CoefficientError,
    MethodDimensionError,
    MethodParseError,
    MethodSchemaError,
    parse_method_file,
    parse_rational,
    render_coefficient_literal,
    validate_tableau,
)

# The three-stage sample pair used throughout: a 2(3) method.
SAMPLE = """
[{
  "name": "sample3",
  "description": "three-stage sample pair",
  "stage": 3,
  "order": 2,
  "extrapolation_order": 3,
  "a": [["0", "0", "0"], ["1", "0", "0"], ["1/4", "1/4", "0"]],
  "b": ["1/2", "1/2", "0"],
  "b_hat": ["1/6", "1/6", "2/3"],
  "c": ["0", "1", "1/2"]
}]
"""


def sample_tableau():
    return parse_method_file(SAMPLE)[0]


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("1/4") == Fraction(1, 4)
        assert parse_rational("-7200/2197") == Fraction(-7200, 2197)

    def test_integer_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational(3) == 3
        assert parse_rational(-2.0) == -2  # integer-valued JSON number

    def test_non_integer_float_rejected(self):
        with pytest.raises(CoefficientError):
            parse_rational(0.1)

    def test_zero_denominator(self):
        with pytest.raises(CoefficientError):
            parse_rational("1/0")

    def test_bad_syntax(self):
        for bad in ("1/2/3", "a/b", "1.5", "", "1 /2"):
            with pytest.raises(CoefficientError):
                parse_rational(bad)

    def test_format_round_trip_random(self):
        rng = random.Random(20240817)
        for _ in range(500):
            r = Fraction(rng.randint(-10 ** 9, 10 ** 9),
                         rng.randint(1, 10 ** 9))
            assert parse_rational(str(r)) == r


class TestParseMethodFile:
    def test_sample_object(self):
        t = sample_tableau()
        assert t.s == 3 and t.p == 2 and t.p_hat == 3
        assert t.a[2][0] == Fraction(1, 4) and t.a[2][1] == Fraction(1, 4)
        assert t.b == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        assert t.b_hat == (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3))
        assert t.c == (Fraction(0), Fraction(1), Fraction(1, 2))

    def test_empty_array(self):
        assert parse_method_file(b"[]") == []

    def test_order_preserved(self):
        doc = json.loads(SAMPLE)
        second = dict(doc[0], name="zeta")
        first = dict(doc[0], name="alpha")
        out = parse_method_file(json.dumps([second, first]))
        assert [t.name for t in out] == ["zeta", "alpha"]

    def test_malformed_json_reports_offset(self):
        with pytest.raises(MethodParseError) as exc:
            parse_method_file(b'[{"name": }]')
        assert exc.value.offset == 10

    def test_missing_key_names_key_and_index(self):
        doc = json.loads(SAMPLE)
        del doc[0]["b_hat"]
        with pytest.raises(MethodSchemaError, match=r"method 0.*b_hat"):
            parse_method_file(json.dumps(doc))

    def test_length_mismatch_names_array(self):
        # ButcherTableau checks every length, for parsed tableaus too
        cases = [
            ("b", ["1/2", "1/2"], "b has length 2"),
            ("a", [["0", "0", "0"], ["1", "0", "0"]], "a must be a 3x3 matrix"),
            ("a", [["0", "0", "0"], ["1", "0"], ["1/4", "1/4", "0"]],
             "a must be a 3x3 matrix"),
            ("c", ["0", "1", "1/2", "1"], "c has length 4"),
            ("b", ["1"], "b has length 1"),
            ("b_hat", ["1/6", "5/6"], "b_hat has length 2"),
        ]
        for key, value, message in cases:
            doc = json.loads(SAMPLE)
            doc[0][key] = value
            with pytest.raises(MethodDimensionError, match=message):
                parse_method_file(json.dumps(doc))

    def test_zero_denominator_is_value_error(self):
        doc = json.loads(SAMPLE)
        doc[0]["c"] = ["0", "1/0", "1/2"]
        with pytest.raises(CoefficientError):
            parse_method_file(json.dumps(doc))

    def test_bom_rejected(self):
        with pytest.raises(MethodParseError):
            parse_method_file(b"\xef\xbb\xbf[]")

    def test_non_array_document(self):
        with pytest.raises(MethodSchemaError):
            parse_method_file(b"{}")


def _sample_with(**changes) -> str:
    doc = json.loads(SAMPLE)
    doc[0].update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("data, error, match", [
    (_sample_with(c=["0", True, "1/2"]), CoefficientError, "got True"),
    (_sample_with(c=["0", {"n": 1}, "1/2"]), CoefficientError, "got dict"),
    (_sample_with(a="0"), MethodSchemaError, "sample3: a must be an array"),
    (_sample_with(a=[["0", "0", "0"], "1", ["1/4", "1/4", "0"]]), MethodSchemaError,
     "sample3: a row 2 must be an array"),
    ('["sample3"]', MethodSchemaError, "method 0: expected an object"),
    (_sample_with(name=3), MethodSchemaError, "method 0: name must be a string"),
    (_sample_with(stage=0), MethodSchemaError,
     r"method 0 \(sample3\): stage must be a positive integer"),
    (b'[{"name": "\xff"}]', MethodParseError,
     r"invalid UTF-8: invalid start byte \(byte offset 11\)"),
], ids=["bool", "dict", "a-not-array", "a-row-not-array", "entry-not-object",
        "name-not-string", "stage-below-1", "invalid-utf8"])
def test_refused_method_file(data, error, match):
    with pytest.raises(error, match=match):
        parse_method_file(data)


class TestValidateTableau:
    def test_sample_ok(self):
        report = validate_tableau(sample_tableau())
        assert report.ok and report.violations == ()

    def test_row_sum_violation_with_exact_residual(self):
        t = sample_tableau()
        broken = ButcherTableau(
            name=t.name, description=t.description, s=t.s, p=t.p, p_hat=t.p_hat,
            a=t.a, b=t.b, b_hat=t.b_hat,
            c=(Fraction(0), Fraction(1), Fraction(1, 3)))
        report = validate_tableau(broken)
        assert not report.ok
        [v] = report.violations
        assert v.code == "row-sum" and "stage 3" in v.message
        assert v.residual == Fraction(-1, 6)

    def test_diagonal_entry_violation(self):
        t = sample_tableau()
        a = [list(row) for row in t.a]
        a[1][1] = Fraction(1)
        broken = ButcherTableau(
            name=t.name, description=t.description, s=t.s, p=t.p, p_hat=t.p_hat,
            a=tuple(tuple(r) for r in a), b=t.b, b_hat=t.b_hat, c=t.c)
        report = validate_tableau(broken)
        [v] = report.violations
        assert v.code == "not-lower-triangular"
        assert "(2,2)" in v.message

    def test_weight_sum_violation(self):
        t = sample_tableau()
        broken = ButcherTableau(
            name=t.name, description=t.description, s=t.s, p=t.p, p_hat=t.p_hat,
            a=t.a, b=(Fraction(1, 2), Fraction(1, 2), Fraction(1, 10)),
            b_hat=t.b_hat, c=t.c)
        report = validate_tableau(broken)
        [v] = report.violations
        assert v.code == "b-sum" and v.residual == Fraction(1, 10)

    def test_nonzero_first_node(self):
        t = sample_tableau()
        broken = ButcherTableau(
            name=t.name, description=t.description, s=t.s, p=t.p, p_hat=t.p_hat,
            a=t.a, b=t.b, b_hat=t.b_hat, c=(Fraction(1, 5), *t.c[1:]))
        codes = {v.code: v for v in validate_tableau(broken).violations}
        assert codes["c1-nonzero"].residual == Fraction(1, 5)
        assert codes["c1-nonzero"].message == "c^1 must be 0, got 1/5"

    def test_stage_count_must_be_positive(self):
        with pytest.raises(MethodDimensionError, match="stage count must be positive, got 0"):
            ButcherTableau(name="none", description="", s=0, p=1, p_hat=1,
                           a=(), b=(), b_hat=(), c=())

    def test_bad_name(self):
        t = sample_tableau()
        broken = ButcherTableau(
            name="3bad name", description="", s=t.s, p=t.p, p_hat=t.p_hat,
            a=t.a, b=t.b, b_hat=t.b_hat, c=t.c)
        assert any(v.code == "bad-name"
                   for v in validate_tableau(broken).violations)

    def test_pure(self):
        t = sample_tableau()
        assert validate_tableau(t) == validate_tableau(t)

    def test_strict_order2_warning(self):
        t = sample_tableau()
        report = validate_tableau(t, strict=True)
        # the sample pair is second order, so no warning
        assert report.ok and report.warnings == ()
        skewed = ButcherTableau(
            name="skew", description="", s=2, p=2, p_hat=1,
            a=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
            b=(Fraction(1), Fraction(0)), b_hat=(Fraction(0), Fraction(1)),
            c=(Fraction(0), Fraction(1)))
        report = validate_tableau(skewed, strict=True)
        assert report.ok  # warnings do not fail validation
        assert report.warnings and report.warnings[0].code == "order-2"


class TestRenderCoefficientLiteral:
    def test_exact_short_decimals(self):
        assert render_coefficient_literal(Fraction(1, 2)) == "0.5"
        assert render_coefficient_literal(Fraction(1, 10)) == "0.1"
        assert render_coefficient_literal(Fraction(-3, 4)) == "-0.75"
        assert render_coefficient_literal(Fraction(25, 8)) == "3.125"

    def test_integers_carry_point_zero(self):
        assert render_coefficient_literal(Fraction(3)) == "3.0"
        assert render_coefficient_literal(Fraction(-8)) == "-8.0"
        assert render_coefficient_literal(Fraction(0)) == "0.0"

    def test_seventeen_digit_rendering(self):
        assert render_coefficient_literal(Fraction(1, 6)) == "0.16666666666666666"
        assert render_coefficient_literal(Fraction(1, 3)) == "0.33333333333333331"
        # a finite decimal of 18 significant digits is not written exactly
        assert render_coefficient_literal(Fraction(123456789012345678, 10 ** 5)) \
            == "1234567890123.4568"

    def test_reparse_recovers_nearest_double(self):
        rng = random.Random(99)
        for _ in range(1000):
            r = Fraction(rng.randint(-10 ** 9, 10 ** 9) or 1,
                         rng.randint(1, 10 ** 9))
            assert float(render_coefficient_literal(r)) == float(r)

    def test_overflow_is_a_coefficient_error(self):
        with pytest.raises(CoefficientError, match="overflows a 64-bit float"):
            render_coefficient_literal(Fraction(10 ** 400, 3))

    @pytest.mark.parametrize("r", [10 ** 400, -10 ** 400, 2 ** 1024 - 2 ** 970],
                             ids=["10^400", "-10^400", "2^1024-2^970"])
    def test_integer_overflow_is_a_coefficient_error(self, r):
        # 2^1024 - 2^970 lies halfway between the largest double and 2^1024,
        # so it rounds to even, up and out of range
        with pytest.raises(CoefficientError, match="overflows a 64-bit float"):
            render_coefficient_literal(Fraction(r))

    def test_largest_double_renders(self):
        literal = render_coefficient_literal(Fraction(2 ** 1024 - 2 ** 971))
        assert literal == f"{2 ** 1024 - 2 ** 971}.0"
        assert float(literal) == 1.7976931348623157e308

    def test_deterministic(self):
        r = Fraction(-5103, 18656)
        assert render_coefficient_literal(r) == render_coefficient_literal(r)
