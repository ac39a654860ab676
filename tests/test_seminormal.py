"""Young's seminormal form modulo a prime, as used by the fourth-moment engine.

The engine's coefficients are checked against the enumeration kernel in
test_moments; these tests check the pieces they rest on: the tableau
tables, that the two-term row updates define a representation with the
stated character and invariant form, and the adjacent-transposition words.
"""

from itertools import combinations

import numpy as np

from immom.characters import character
from immom.partitions import dim_symmetric, partition_list
from immom.seminormal import _apply, interleave, primes, reduced_word, tableaux
from immom.symgroup import Permutation

P = primes()[0]


def _matrices(xi):
    """Dense rho(s_k) modulo P for every adjacent transposition of xi."""
    tab = tableaux(xi.parts)
    eye = np.eye(len(tab), dtype=np.int64)
    action = tab.action(P)
    return tab, [_apply([k], eye, action, tab.partner, P) for k in range(xi.n - 1)]


def test_tables_enumerate_each_standard_tableau_once():
    for m in range(1, 9):
        for xi in partition_list(m):
            tab = tableaux(xi.parts)
            assert len(tab) == dim_symmetric(xi), xi
            assert len({w.tobytes() for w in tab.words}) == len(tab)
            for k in range(m - 1):
                back = tab.partner[k][tab.partner[k]]
                assert np.array_equal(back, np.arange(len(tab)))


def test_action_is_a_representation_with_the_invariant_form():
    for m in (5, 6):
        for xi in partition_list(m):
            tab, rho = _matrices(xi)
            d = tab.form(P)
            eye = np.eye(len(tab), dtype=np.int64)
            for k, s in enumerate(rho):
                assert np.array_equal(s @ s % P, eye), (xi, k)
                assert np.array_equal(s.T @ (d[:, None] * s % P) % P, np.diag(d)), (xi, k)
            for a, b in combinations(range(m - 1), 2):
                ab = rho[a] @ rho[b] % P
                power = 3 if b == a + 1 else 2
                prod = eye
                for _ in range(power):
                    prod = prod @ ab % P
                assert np.array_equal(prod, eye), (xi, a, b)


def test_traces_are_the_characters():
    for m in (4, 6, 7):
        for xi in partition_list(m):
            _, rho = _matrices(xi)
            cycle = rho[0]
            for length in range(2, m + 1):
                mu = (length,) + (1,) * (m - length)
                assert int(np.trace(cycle)) % P == character(xi, mu) % P, (xi, mu)
                if length < m:
                    cycle = cycle @ rho[length - 1] % P


def test_reduced_words_spell_their_permutations():
    for n in range(1, 6):
        block_swap = list(range(n, 2 * n)) + list(range(n))
        for img in (block_swap, interleave(n)):
            word = reduced_word(img)
            product = Permutation.identity(2 * n)
            for k in word:
                s = list(range(2 * n))
                s[k], s[k + 1] = k + 1, k
                product = product * Permutation(s)
            assert product == Permutation(img)
            inversions = sum(img[i] > img[j] for i, j in combinations(range(2 * n), 2))
            assert len(word) == inversions
        assert len(reduced_word(block_swap)) == n * n
