"""Exact rational functions of the dimension variable d.

Oracles: hand-computed sums and products of small fractions, evaluation
against Fraction arithmetic (an independent exact route), and the
serialization grammar checked by round-tripping both output formats.
"""

import json
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immom.ratfun import LinearFactors, RationalFunction

R = RationalFunction


def golden_strings():
    """Every rational-function string shipped in the golden tables."""
    text = resources.files("immom.data").joinpath("golden_tables.json").read_text()
    data = json.loads(text)
    out = []
    for row in data["table1"]:
        out.append(row["mean"])
        out.append(row["fourth"])
        if "fourth_erratum" in row:
            out.append(row["fourth_erratum"]["corrected"])
    return out


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def ratfun_strategy():
    """Random small rational functions built from fractions and 1/(d+c)."""
    atoms = st.one_of(
        small_fractions.map(R.from_fraction),
        st.integers(min_value=-3, max_value=3).map(
            lambda c: R.ratio(1, {c: 1})
        ),
    )
    return st.lists(atoms, min_size=1, max_size=4).map(
        lambda fs: _combine(fs)
    )


def _combine(fs):
    out = fs[0]
    for i, f in enumerate(fs[1:]):
        out = out * f if i % 2 else out + f
    return out


# ---------------------------------------------------------------------------
# construction and canonical form


def test_from_integer_and_fraction():
    assert R.from_integer(5).evaluate(17) == 5
    q = R.from_fraction(Fraction(-3, 7))
    for d in (1, 2, 10):
        assert q.evaluate(d) == Fraction(-3, 7)


def test_common_content_moves_to_prefactor():
    f = R.ratio((4, 8), {0: 1})  # (4 + 8d)/d
    assert f.prefactor == 4
    assert f.numer == (1, 2)


def test_shared_linear_factor_cancels():
    f = R.ratio((2, 2), {1: 1, 2: 1})  # (2 + 2d)/((d+1)(d+2))
    assert f == R.ratio(2, {2: 1})
    assert f.to_machine() == "2 / (d + 2)"
    g = R.parse("(2*d+2)/(d+1)")
    assert g == R.from_integer(2)


def test_immutability():
    f = R.from_integer(1)
    with pytest.raises(AttributeError):
        f.prefactor = 2


def test_zero():
    z = R.from_integer(0)
    assert z.is_zero()
    assert z.to_display() == "0"
    assert z.evaluate(3) == 0
    assert (z + R.from_integer(2)).evaluate(1) == 2
    with pytest.raises(ValueError):
        z.leading_asymptotics()


# ---------------------------------------------------------------------------
# arithmetic


def test_add_example():
    got = R.ratio(1, {0: 1}) + R.ratio(1, {1: 1})  # 1/d + 1/(d+1)
    assert got == R.parse("(2*d + 1) / (d*(d + 1))")
    assert got.to_machine() == "(2*d + 1) / (d*(d + 1))"


def test_sub_and_neg():
    a = R.parse("6 / ((d - 1)*d*(d + 1))")
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert (a + (-a)).evaluate(5) == 0


def test_int_operands():
    a = R.ratio(1, {0: 1})
    assert (a + 1).evaluate(2) == Fraction(3, 2)
    assert (1 + a).evaluate(2) == Fraction(3, 2)
    assert (2 * a).evaluate(2) == 1
    assert (a * 2) == 2 * a


def test_mul_cancels_against_denominator():
    a = R.ratio(1, {0: 1, 1: 1})      # 1/(d(d+1))
    b = R.ratio((0, 1))                # the polynomial d
    assert (a * b) == R.ratio(1, {1: 1})


@settings(max_examples=80)
@given(ratfun_strategy(), ratfun_strategy())
def test_add_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60)
@given(ratfun_strategy(), ratfun_strategy(), ratfun_strategy())
def test_add_mul_associate_and_distribute(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80)
@given(ratfun_strategy(), ratfun_strategy(), st.integers(min_value=4, max_value=40))
def test_evaluate_is_a_homomorphism(a, b, d):
    # evaluation at a non-pole point commutes with the arithmetic,
    # with plain Fraction arithmetic as the independent oracle
    assert (a + b).evaluate(d) == a.evaluate(d) + b.evaluate(d)
    assert (a * b).evaluate(d) == a.evaluate(d) * b.evaluate(d)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_example():
    f = R.parse("6 / ((d - 1)*d*(d + 1))")
    assert f.evaluate(3) == Fraction(1, 4)
    assert f.evaluate(2) == 1


def test_evaluate_at_pole_raises():
    f = R.parse("6 / ((d - 1)*d*(d + 1))")
    for d in (-1, 0, 1):
        with pytest.raises((ZeroDivisionError, ValueError)):
            f.evaluate(d)


def test_pole_message_names_the_displayed_factor():
    f = R.parse("6 / ((d - 3)*d*(d + 1))")
    assert f.to_display() == "6 / (d (d - 3) (d + 1))"
    for d, factor in ((3, "d - 3"), (0, "d"), (-1, "d + 1")):
        with pytest.raises(ValueError, match=rf"^pole at d = {d} \(factor {re.escape(factor)}\)$"):
            f.evaluate(d)


def test_evaluate_fractional_point():
    f = R.ratio(1, {0: 1})
    assert f.evaluate(Fraction(1, 2)) == 2


# ---------------------------------------------------------------------------
# asymptotics


def test_leading_asymptotics_examples():
    assert R.from_integer(5).leading_asymptotics() == (Fraction(5), 0)
    f = R.parse("6 / ((d - 1)*d*(d + 1))")
    assert f.leading_asymptotics() == (Fraction(6), 3)
    g = R.parse("4*(3*d^2 - d + 2) / (d^2*(d^2 - 1)*(d + 2)*(d + 3))")
    assert g.leading_asymptotics() == (Fraction(12), 4)
    h = R.parse("(2*d + 1) / (d*(d + 1))")
    assert h.leading_asymptotics() == (Fraction(2), 1)


@settings(max_examples=60)
@given(ratfun_strategy())
def test_leading_asymptotics_matches_large_d_limit(f):
    if f.is_zero():
        return
    coeff, decay = f.leading_asymptotics()
    d = 10**6
    approx = f.evaluate(d) * Fraction(d) ** decay
    # relative error of the leading term is O(1/d)
    assert abs(approx - coeff) <= abs(coeff) * Fraction(1, 10**4)


# ---------------------------------------------------------------------------
# serialization


def test_display_examples():
    assert R.parse("6/((d-1)*d*(d+1))").to_display() == "6 / (d (d^2 - 1))"
    assert R.ratio(1, {1: 1}).to_display() == "1 / (d + 1)"
    assert R.ratio(1, {0: 1}).to_display() == "1 / d"
    assert R.ratio(2, {0: 1, 1: 1}).to_display() == "2 / (d (d + 1))"


def test_machine_grammar_has_no_juxtaposition():
    for s in golden_strings():
        m = R.parse(s).to_machine()
        assert not re.search(r"\)\s*\(", m)
        assert not re.search(r"\d\s*\(", m)
        assert not re.search(r"\)\s*d", m)
        assert not re.search(r"\dd", m)


def test_round_trip_machine_and_display_over_golden_corpus():
    corpus = golden_strings()
    assert len(corpus) >= 28
    for s in corpus:
        f = R.parse(s)
        assert R.parse(f.to_machine()) == f
        assert R.parse(f.to_display()) == f


@settings(max_examples=100)
@given(ratfun_strategy())
def test_round_trip_random(f):
    assert R.parse(f.to_machine()) == f
    assert R.parse(f.to_display()) == f


def test_parse_whitespace_and_signs():
    assert R.parse(" - 6 / ( d * ( d + 1 ) ) ") == R.ratio(-6, {0: 1, 1: 1})
    assert R.parse("d^2 - 1") == R.ratio((-1, 0, 1))
    assert R.parse("-d") == R.ratio((0, -1))


def test_parse_rejects_malformed():
    for bad in ["6 // d", "d**2", "x + 1", "(d", "1 / ", "2^d"]:
        with pytest.raises(ValueError):
            R.parse(bad)


def test_eq_hash_consistent():
    a = R.parse("6/((d-1)*d*(d+1))")
    b = R.ratio(6, {-1: 1, 0: 1, 1: 1})
    assert a == b
    assert hash(a) == hash(b)
    assert a != R.ratio(6, {0: 1})
