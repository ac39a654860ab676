"""Every nonzero A_xi(lam) with |lam| <= 6 against the committed corpus.

tests/data/class_coefficients.json records what the fourth-moment engine
gives (written by tests/make_class_coefficients.py).  The default suite
checks every shape with n <= 5 and the five shapes of 6 that take under
about 1 s; the other six shapes of 6 (about 20 s together) run under -m slow.
The fourth moments assembled from the corpus integers are checked against
the independent leading coefficients J(lam) for every shape of 6.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from immom.partitions import parse_partition, partition_list
from immom.moments import leading_coefficient
from immom.seminormal import class_coefficients
from immom.weingarten import irreducible_sum

CORPUS = json.loads(
    (Path(__file__).resolve().parent / "data" / "class_coefficients.json").read_text())
FAST_SIX = ["6", "2,2,2", "2,2,1,1", "2,1,1,1,1", "1,1,1,1,1,1"]
SLOW_SIX = [str(lam) for lam in partition_list(6) if str(lam) not in FAST_SIX]


def computed(shape):
    """The engine's coefficients of one shape, in the corpus's text form and
    canonical xi order."""
    return [(str(xi), str(a))
            for xi, a in class_coefficients(parse_partition(shape)).items()]


def test_corpus_covers_every_shape_up_to_six():
    assert list(CORPUS) == [str(lam) for n in range(1, 7) for lam in partition_list(n)]
    assert sum(len(c) for c in CORPUS.values()) == 264
    assert len(SLOW_SIX) == 6


@pytest.mark.parametrize("shape", [s for s in CORPUS if parse_partition(s).n <= 5]
                         + FAST_SIX)
def test_class_coefficients_match_the_corpus(shape):
    assert computed(shape) == list(CORPUS[shape].items())


@pytest.mark.slow
@pytest.mark.parametrize("shape", SLOW_SIX)
def test_class_coefficients_match_the_corpus_slow_shapes_of_six(shape):
    assert computed(shape) == list(CORPUS[shape].items())


def test_corpus_asymptotics_match_leading_coefficient_at_six():
    # the d^-12 tail of sum A_xi / (H(xi) N(xi, d)) over the corpus integers
    # is J(lam), which leading_coefficient computes by its own character sum
    for shape in (s for s in CORPUS if parse_partition(s).n == 6):
        fourth = irreducible_sum({parse_partition(xi): int(a)
                                  for xi, a in CORPUS[shape].items()})
        assert fourth.leading_asymptotics() == (
            Fraction(leading_coefficient(parse_partition(shape))), 12), shape
