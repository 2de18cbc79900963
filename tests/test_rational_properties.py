"""Round trips of the exact coefficients: method-file text to Fraction, and
Fraction to the decimal literal the generated modules carry."""
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rkforge.tableau import parse_rational, render_coefficient_literal  # noqa: E402

BOUND = 10 ** 30
NUMERATORS = st.integers(-BOUND, BOUND)
DENOMINATORS = st.integers(1, BOUND)
FRACTIONS = st.one_of(
    st.fractions(),
    st.builds(Fraction, NUMERATORS, DENOMINATORS),
    # small denominators, as published tableaus have
    st.builds(Fraction, NUMERATORS, st.integers(1, 10 ** 4)),
).filter(lambda r: abs(r) <= BOUND)

# non-integer m/10^k of at most 17 significant digits
SHORT_DECIMALS = st.builds(lambda m, k: Fraction(m, 10 ** k),
                           st.integers(-(10 ** 17 - 1), 10 ** 17 - 1),
                           st.integers(1, 40)).filter(lambda r: r.denominator != 1)
# denominators with a prime factor other than 2 or 5: no finite decimal
NON_TERMINATING = FRACTIONS.filter(
    lambda r: r.denominator // math.gcd(r.denominator, 10 ** r.denominator.bit_length()) != 1)

# derandomized, so every run draws the same examples
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@PROPERTY
@given(NUMERATORS, DENOMINATORS)
def test_parse_reads_numerator_and_denominator(p, q):
    assert parse_rational(f"{p}/{q}") == Fraction(p, q)
    assert parse_rational(str(p)) == Fraction(p)


@PROPERTY
@given(FRACTIONS)
def test_literal_reparses_to_the_nearest_double(r):
    # float(Fraction) rounds correctly, so it is the nearest double
    assert float(render_coefficient_literal(r)) == float(r)


@PROPERTY
@given(SHORT_DECIMALS, NON_TERMINATING)
def test_literal_is_the_exact_decimal_or_the_double_at_17_digits(short, other):
    assert Fraction(render_coefficient_literal(short)) == short
    assert render_coefficient_literal(other) == "%.17g" % float(other)


@PROPERTY
@given(NUMERATORS)
def test_integer_literal_has_a_trailing_point_zero(p):
    literal = render_coefficient_literal(Fraction(p))
    assert literal == f"{p}.0"
    assert float(literal) == float(p)
