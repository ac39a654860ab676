"""Permutations of {1..m} and the special elements of S_2n used throughout.

The doubled group S_2n acts on 2n symbols; a pair (p, q) of permutations of
{1..n} embeds block-diagonally (symbol i for the plus block, n+i for the
minus block), epsilon(A) swaps i with n+i for i in A, and theta(l, k) is the
involution exchanging {1..k} with {l+1..l+k}.  Serialized forms are always
1-indexed one-line notation; in-memory images are 0-indexed.

The vectorized engines use the array forms: permutation_table(m) is all of
S_m as one image array, marked_orbits(m, k) is one row per orbit of S_m
under conjugation by the permutations fixing k marked points, and
cycle_keyer(m) classifies batches of image rows by cycle type, walking
them in blocks of _KEY_BLOCK rows, so that its temporary arrays (mostly one
int64 gather index per entry of a block) stay under 1 MiB at m = 12
whatever the batch size; 300 000 rows in one piece took 11.6 MiB.
Permutation.cycle_type stays the scalar reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import permutations as _itertools_permutations, product
from math import factorial

import numpy as np

from .characters import class_size
from .partitions import Partition, partition_list

_KEY_BLOCK = 4096  # rows per cycle_keyer block


@dataclass(frozen=True, repr=False)
class Permutation:
    """Permutation of {1..m}, stored as a tuple of 0-indexed images."""

    img: tuple[int, ...]

    def __init__(self, img):
        img = tuple(img)
        if sorted(img) != list(range(len(img))):
            raise ValueError(f"not a permutation of 0..{len(img)-1}: {img}")
        object.__setattr__(self, "img", img)

    @classmethod
    def one_line(cls, images):
        """Build from 1-indexed one-line notation, e.g. [2, 3, 1]."""
        return cls(tuple(i - 1 for i in images))

    @classmethod
    def identity(cls, m):
        return cls(range(m))

    def to_one_line(self):
        """1-indexed one-line notation (the serialized form)."""
        return tuple(i + 1 for i in self.img)

    @property
    def degree(self):
        return len(self.img)

    def __call__(self, i):
        """Image of the 1-indexed point i."""
        return self.img[i - 1] + 1

    def __mul__(self, other):
        """Composition self o other: apply other first."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self.img[j] for j in other.img)

    def inverse(self):
        inv = [0] * len(self.img)
        for i, j in enumerate(self.img):
            inv[j] = i
        return Permutation(inv)

    def __repr__(self):
        return f"Permutation.one_line({list(self.to_one_line())})"

    def cycle_type(self) -> Partition:
        """Cycle lengths, as a partition of the degree."""
        seen = [False] * len(self.img)
        lengths = []
        for start in range(len(self.img)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.img[j]
                length += 1
            lengths.append(length)
        lengths.sort(reverse=True)
        return Partition(lengths)

    def sign(self) -> int:
        ct = self.cycle_type()
        return -1 if (self.degree - len(ct.parts)) % 2 else 1


def all_permutations(m):
    """Yield the permutations of {1..m} in lexicographic one-line order."""
    for img in _itertools_permutations(range(m)):
        yield Permutation(img)


def permutation_table(m):
    """All of S_m as an (m!, m) uint8 array of 0-indexed images, rows in
    lexicographic order (the order of itertools.permutations(range(m))).

    Built one degree at a time: the block of S_k rows starting with f is f
    followed by the other k-1 symbols, in increasing order, indexed by the
    rows of S_(k-1).  permutation_table(0) is one empty row.
    """
    table = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, m + 1):
        prev = len(table)
        out = np.empty((k * prev, k), dtype=np.uint8)
        for f in range(k):
            block = out[f * prev:(f + 1) * prev]
            block[:, 0] = f
            block[:, 1:] = np.delete(np.arange(k, dtype=np.uint8), f)[table]
        table = out
    return table


@cache
def marked_orbits(m, k):
    """One representative of each orbit of S_m under conjugation by the
    pointwise stabiliser H of the marked points {0..k-1}, and the orbit
    sizes: an (orbits, m) read-only uint8 image array and a read-only int64
    array that sums to m!.

    Conjugating p by h in H relabels the unmarked points and keeps every
    marked one, so it keeps, for each marked point i, the next marked point
    s(i) on i's cycle and the number g_i of unmarked points passed on the
    way, and the cycle type mu of the cycles with no marked point; these
    data also fix the orbit, since any two permutations sharing them are
    matched by the relabelling that lines up their unmarked points.  So the
    orbits are the triples (s in S_k, gaps g >= 0 with sum g <= m - k,
    mu of m - k - sum g).  The centraliser of p in H fixes the unmarked
    points on marked cycles and centralises the rest, so the orbit has
    (m - k)! / z_mu elements.  The representative walks each marked cycle
    through fresh unmarked points k, k+1, ... in turn, then lays the mu
    cycles on the points left.  Enumerated directly, never touching S_m.
    """
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got m={m} k={k}")
    free = m - k
    reps, sizes = [], []
    gap_lists = [g for g in product(range(free + 1), repeat=k) if sum(g) <= free]
    # (cycle type, orbit size) of the unmarked cycles, for each r points left
    tails = [[(mu.parts, factorial(free) // factorial(r) * class_size(mu))
              for mu in partition_list(r)] for r in range(free + 1)]
    for s in _itertools_permutations(range(k)):
        for gaps in gap_lists:
            img = list(range(m))
            nxt = k
            for i, g in enumerate(gaps):
                cur = i
                for u in range(nxt, nxt + g):
                    img[cur] = cur = u
                img[cur] = s[i]
                nxt += g
            for parts, size in tails[m - nxt]:
                cyc = img[:]
                start = nxt
                for part in parts:
                    for j in range(start, start + part):
                        cyc[j] = j + 1
                    cyc[start + part - 1] = start
                    start += part
                reps.append(cyc)
                sizes.append(size)
    assert sum(sizes) == factorial(m), "orbits must partition S_m"
    reps = np.array(reps, dtype=np.uint8).reshape(len(sizes), m)
    sizes = np.array(sizes, dtype=np.int64)
    reps.flags.writeable = sizes.flags.writeable = False
    return reps, sizes


@cache
def cycle_keyer(m):
    """A classifier mapping batches of permutations of degree m to class
    indices (canonical partition order).

    The key is the vector of fixed-point counts of the first floor(m/2)
    powers: parts above m/2 occur at most once, so those counts pin down
    the cycle type, and a dense lookup table turns keys into indices.  The
    batch is walked in blocks of _KEY_BLOCK rows, each power taken by one
    flat gather of the block (power plus the row offsets), so the temporary
    arrays are bounded by the block (under 1 MiB at m = 12), not by the
    batch.
    """
    parts_list = partition_list(m)
    radix = m + 1
    depth = m // 2
    lut = np.full(radix**depth, 255, dtype=np.uint8)
    for ci, mu in enumerate(parts_list):
        counts = Counter(mu.parts)
        key = 0
        for t in range(depth, 0, -1):
            f = sum(length * k for length, k in counts.items() if t % length == 0)
            key = key * radix + f
        assert lut[key] == 255, "fixed-point keys must separate classes"
        lut[key] = ci

    def classify(batch):
        batch = np.asarray(batch)
        ar = np.arange(m, dtype=batch.dtype)
        out = np.empty(len(batch), dtype=np.uint8)
        for start in range(0, len(batch), _KEY_BLOCK):
            block = np.ascontiguousarray(batch[start:start + _KEY_BLOCK])
            flat = block.ravel()
            offset = np.arange(len(block), dtype=np.intp)[:, None] * m
            key = np.zeros(len(block), dtype=np.int64)
            power = block
            scale = 1
            for t in range(1, depth + 1):
                if t > 1:
                    power = flat[power + offset]
                key += (power == ar).sum(axis=1, dtype=np.int64) * scale
                scale *= radix
            out[start:start + len(block)] = lut[key]
        return out

    return classify


def all_subsets(n):
    """Yield the subsets of {1..n} in bitmask order (deterministic)."""
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def embed_pair(p: Permutation, q: Permutation) -> Permutation:
    """Block-diagonal embedding of (p, q) into S_2n.

    Symbols 1..n carry p and symbols n+1..2n carry q: the flattening sends
    the plus copy of i to i and the minus copy to n+i.
    """
    n = p.degree
    if q.degree != n:
        raise ValueError("both factors must act on the same number of symbols")
    return Permutation(tuple(p.img) + tuple(n + j for j in q.img))


def epsilon(A, n) -> Permutation:
    """The involution of S_2n swapping i and n+i for each 1-indexed i in A."""
    img = list(range(2 * n))
    for i in A:
        if not 1 <= i <= n:
            raise ValueError(f"subset element {i} outside 1..{n}")
        img[i - 1], img[n + i - 1] = n + i - 1, i - 1
    return Permutation(img)


def theta(l, k, n) -> Permutation:
    """The involution of S_n exchanging {1..k} with {l+1..l+k} (k <= l).

    Points i <= k go up to i+l, points in {l+1..l+k} come down by l, and
    everything else is fixed.
    """
    if not 0 <= k <= l or l + k > n:
        raise ValueError(f"need 0 <= k <= l and l+k <= n, got l={l} k={k} n={n}")
    img = list(range(n))
    for i in range(k):
        img[i], img[l + i] = l + i, i
    return Permutation(img)
