"""Irreducible characters of symmetric groups.

Characters are computed by the Murnaghan-Nakayama rule in beta-set form:
a border strip of length r is removed from the first-column hook lengths
by replacing some b with b-r, and the sign is (-1)^(number of beta entries
jumped over).  Values are exact integers, memoized on (shape, class).
character_row(lam) evaluates one irrep on every class, which is all a
caller that needs a single row should pay for; CharacterTable stacks these
rows.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial, prod

import numpy as np

from .partitions import Partition, as_partition, partition_index, partition_list


@cache
def _chi(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    length = len(lam)
    beta = [lam[i] + length - 1 - i for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b < r or b - r in beta_set:
            continue
        height = sum(1 for x in beta if b - r < x < b)
        new_beta = sorted(beta_set - {b} | {b - r}, reverse=True)
        new_lam = tuple(x - (length - 1 - i) for i, x in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        term = _chi(new_lam, rest)
        total += -term if height % 2 else term
    return total


def character(lam, mu) -> int:
    """Character value of the irrep lam on the class with cycle type mu."""
    lam, mu = as_partition(lam), as_partition(mu)
    if lam.n != mu.n:
        raise ValueError("shape and cycle type must partition the same number")
    return _chi(lam.parts, mu.parts)


def character_of(lam, perm) -> int:
    """Character of the irrep lam evaluated at a Permutation."""
    return character(lam, perm.cycle_type())


def class_size(mu) -> int:
    """Number of permutations with cycle type mu (cached per cycle type)."""
    return _class_size(as_partition(mu).parts)


@cache
def _class_size(mu: tuple) -> int:
    z = prod(part**k * factorial(k) for part, k in Counter(mu).items())
    return factorial(sum(mu)) // z


def character_row(lam) -> np.ndarray:
    """Character values of irrep lam on every class of S_n, as a read-only
    int64 array in the canonical class order (partition_list(n)).

    Built once per shape, whatever form lam is given in; about 2 ms at
    n = 10, where the whole table takes about 18 ms.
    """
    return _row(as_partition(lam).parts)


@cache
def _row(lam: tuple) -> np.ndarray:
    row = np.array([_chi(lam, mu.parts) for mu in partition_list(sum(lam))],
                   dtype=np.int64)
    row.setflags(write=False)
    return row


class CharacterTable:
    """Full character table of S_m, frozen after construction.

    Rows are irreps and columns are classes, both in the canonical
    reverse lexicographic partition order.  Reads after construction are
    plain lookups with no locking or mutation.
    """

    def __init__(self, m: int):
        self.m = m
        self.partitions = partition_list(m)
        self.index = partition_index(m)
        values = np.stack([character_row(lam) for lam in self.partitions])
        values.setflags(write=False)
        self.values = values
        self.class_sizes = tuple(class_size(mu) for mu in self.partitions)

    def row(self, lam) -> np.ndarray:
        """Character values of irrep lam on every class (canonical order)."""
        return self.values[self.index[as_partition(lam).parts]]

    def value(self, lam, mu) -> int:
        lam, mu = as_partition(lam), as_partition(mu)
        return int(self.values[self.index[lam.parts], self.index[mu.parts]])



@cache
def character_table(m: int) -> CharacterTable:
    """The character table of S_m (built once per process)."""
    return CharacterTable(m)
