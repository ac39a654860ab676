"""Partitions, hooks, dimensions, dominance.

Oracles: hand-checkable small diagrams, the textbook hook-length and
Weyl dimension formulas recomputed naively in conftest, and classical
partition counts p(m) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42.
"""

import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_dim_symmetric, naive_unitary_numerator
from immom.partitions import (
    Dominance,
    Partition,
    as_partition,
    conjugate,
    dim_symmetric,
    dim_unitary,
    dominance_covers,
    dominates,
    hook_product,
    hooks,
    parse_partition,
    partition_index,
    partition_list,
    partitions_of,
    unitary_numerator,
)

partitions_strategy = st.lists(
    st.integers(min_value=1, max_value=9), min_size=0, max_size=7
).map(lambda xs: Partition(sorted(xs, reverse=True)))


# ---------------------------------------------------------------------------
# construction and parsing


def test_partition_validates():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_immutable():
    lam = Partition((2, 1))
    with pytest.raises(AttributeError):
        lam.parts = (3,)


def test_str_and_empty():
    assert str(Partition((6, 4, 1))) == "6,4,1"
    assert str(Partition()) == "-"
    assert Partition().n == 0
    assert len(Partition((3, 3, 1))) == 3


def test_parse_forms():
    assert parse_partition("6,4,1").parts == (6, 4, 1)
    assert parse_partition("[6,4,1]").parts == (6, 4, 1)
    assert parse_partition("2,1^3").parts == (2, 1, 1, 1)
    assert parse_partition("1^4").parts == (1, 1, 1, 1)
    assert parse_partition(" 3 , 2 ").parts == (3, 2)
    assert parse_partition("").parts == ()
    assert parse_partition("1,3,2").parts == (3, 2, 1)  # sorted for the caller


def test_parse_rejects_garbage():
    for bad in ["2,,1", "a", "2^-1", "1.5"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


@pytest.mark.parametrize("text, item", [
    ("x", "x"), ("2^x", "2^x"), ("3, y ,1", "y"), ("2^", "2^"), ("^3", "^3"),
    ("[1.5]", "1.5"),
])
def test_parse_error_names_the_text_and_the_item(text, item):
    message = f"cannot read item {item!r} of partition {text!r}; write parts like 3 or 3^2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_partition(text)


@given(partitions_strategy)
def test_parse_str_round_trip(lam):
    assert parse_partition(str(lam)) == lam


def test_as_partition_coerces():
    assert as_partition([3, 1]).parts == (3, 1)
    lam = Partition((2,))
    assert as_partition(lam) is lam


# ---------------------------------------------------------------------------
# enumeration


def test_partition_counts():
    counts = [len(partition_list(m)) for m in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_order_reverse_lex():
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    # first is the single row, last the single column, for every m
    for m in range(1, 9):
        ps = partition_list(m)
        assert ps[0].parts == (m,)
        assert ps[-1].parts == (1,) * m


def test_partition_index_inverts_list():
    for m in range(8):
        idx = partition_index(m)
        for i, p in enumerate(partition_list(m)):
            assert idx[p.parts] == i


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_examples():
    assert conjugate((4, 2, 1)).parts == (3, 2, 1, 1)
    assert conjugate((3,)).parts == (1, 1, 1)
    assert conjugate(()).parts == ()


@given(partitions_strategy)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam).n == lam.n


# ---------------------------------------------------------------------------
# hooks and dimensions


def test_hooks_example():
    # (3, 2): hook lengths  4 3 1 / 2 1
    assert hooks((3, 2)) == [[4, 3, 1], [2, 1]]
    assert hook_product((3, 2)) == 24
    assert hook_product((2, 2)) == 12


def test_dim_symmetric_examples():
    assert dim_symmetric(()) == 1
    assert dim_symmetric((3,)) == 1
    assert dim_symmetric((1, 1, 1)) == 1
    assert dim_symmetric((2, 1)) == 2
    assert dim_symmetric((2, 2)) == 2
    assert dim_symmetric((3, 2)) == 5


def test_dim_symmetric_against_naive_hooks():
    for m in range(11):
        for lam in partition_list(m):
            assert dim_symmetric(lam) == naive_dim_symmetric(lam.parts)


def test_sum_of_squares_is_group_order():
    for m in range(1, 11):
        assert sum(dim_symmetric(p) ** 2 for p in partition_list(m)) == factorial(m)


def test_conjugate_preserves_dim():
    for m in range(1, 9):
        for lam in partition_list(m):
            assert dim_symmetric(lam) == dim_symmetric(conjugate(lam))


def test_unitary_numerator_factored_form():
    # (2, 1): cells give offsets 0, +1, -1 -> d(d+1)(d-1)
    assert unitary_numerator((2, 1)) == {0: 1, 1: 1, -1: 1}
    for m in range(9):
        for lam in partition_list(m):
            facs = unitary_numerator(lam)
            for d in (m, m + 1, m + 5):
                value = 1
                for off, mult in facs.items():
                    value *= Fraction(d + off) ** mult
                assert value == naive_unitary_numerator(lam.parts, d)


def test_dim_unitary_examples():
    assert dim_unitary((2, 1), 3) == 8        # adjoint of the rank-3 case
    assert dim_unitary((1, 1), 2) == 1        # top exterior power
    assert dim_unitary((2,), 2) == 3
    assert dim_unitary((1,), 7) == 7
    assert dim_unitary((1, 1, 1), 2) == 0     # more rows than the dimension


def test_dim_unitary_full_antisymmetric_is_binomial():
    from math import comb

    for d in range(1, 8):
        for k in range(1, d + 1):
            assert dim_unitary((1,) * k, d) == comb(d, k)


def test_dim_unitary_full_symmetric_is_multiset_count():
    from math import comb

    for d in range(1, 8):
        for k in range(1, 6):
            assert dim_unitary((k,), d) == comb(d + k - 1, k)


def test_dim_unitary_fractional_argument():
    q = dim_unitary((2,), Fraction(1, 2))
    assert q == Fraction(1, 2) * Fraction(3, 2) / 2


# ---------------------------------------------------------------------------
# dominance order


def test_dominance_examples():
    assert dominates((2, 1), (1, 1, 1)) is Dominance.GREATER
    assert dominates((1, 1, 1), (2, 1)) is Dominance.LESS
    assert dominates((3,), (3,)) is Dominance.EQUAL
    assert dominates((3, 1, 1, 1), (2, 2, 2)) is Dominance.INCOMPARABLE
    with pytest.raises(ValueError):
        dominates((2,), (1,))


def test_dominance_extremes():
    for m in range(2, 9):
        row, col = (m,), (1,) * m
        for lam in partition_list(m):
            if lam.parts != row:
                assert dominates(row, lam) is Dominance.GREATER
            if lam.parts != col:
                assert dominates(lam, col) is Dominance.GREATER


def test_dominance_is_a_partial_order():
    flip = {
        Dominance.GREATER: Dominance.LESS,
        Dominance.LESS: Dominance.GREATER,
        Dominance.EQUAL: Dominance.EQUAL,
        Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
    }
    for m in range(1, 9):
        ps = partition_list(m)
        rel = {(a.parts, b.parts): dominates(a, b) for a in ps for b in ps}
        for a in ps:
            assert rel[a.parts, a.parts] is Dominance.EQUAL
            for b in ps:
                assert rel[b.parts, a.parts] is flip[rel[a.parts, b.parts]]
                for c in ps:  # transitivity of the strict relation
                    if (
                        rel[a.parts, b.parts] is Dominance.GREATER
                        and rel[b.parts, c.parts] is Dominance.GREATER
                    ):
                        assert rel[a.parts, c.parts] is Dominance.GREATER


def transitive_reduction(m):
    """The covers of the dominance order, from the pairwise relation."""
    ps = partition_list(m)
    above = {(a, b) for a in ps for b in ps if dominates(a, b) is Dominance.GREATER}
    return {(a, b) for a, b in above
            if not any((a, c) in above and (c, b) in above for c in ps)}


def test_dominance_covers_are_the_transitive_reduction():
    for m in range(13):
        covers = dominance_covers(m)
        assert len(covers) == len(set(covers)), m
        assert set(covers) == transitive_reduction(m), m


def test_dominance_cover_counts():
    assert [len(dominance_covers(m)) for m in (12, 20, 25)] == [128, 1430, 5110]


def test_dominance_reverses_under_conjugation():
    for m in range(1, 9):
        for lam in partition_list(m):
            for mu in partition_list(m):
                if dominates(lam, mu) is Dominance.GREATER:
                    assert (
                        dominates(conjugate(lam), conjugate(mu)) is Dominance.LESS
                    )


@settings(max_examples=60)
@given(partitions_strategy, st.integers(min_value=0, max_value=30))
def test_dim_unitary_monotone_in_d(lam, extra):
    # N(lam, d)/H is nonnegative and nondecreasing for d >= number of rows
    d0 = len(lam.parts) + extra
    assert 0 <= dim_unitary(lam, d0) <= dim_unitary(lam, d0 + 1)
