"""Integer partitions and the dimension data attached to them.

A partition here is a weakly decreasing tuple of positive integers.  Beyond
enumeration and conjugation this module knows the two dimension quantities
that drive everything else: the hook product H(lam) (so dim of the symmetric
group irrep is n!/H) and the factored polynomial N(lam, d) = prod over cells
(d + col - row), whose value divided by H is the dimension of the unitary
group irrep with highest weight lam.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import factorial, prod


@dataclass(frozen=True, repr=False)
class Partition:
    """A weakly decreasing tuple of positive integers (possibly empty)."""

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self):
        """Total size |lam| = sum of the parts."""
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts) if self.parts else "-"


def as_partition(lam) -> Partition:
    """Coerce a Partition, tuple, or list to a Partition."""
    return lam if isinstance(lam, Partition) else Partition(lam)


def parse_partition(text: str) -> Partition:
    """Parse '6,4,1', '[6,4,1]', or exponent form '2,1^3' into a Partition.

    Items may carry a multiplicity exponent (1^3 means three parts equal
    to 1); parts are sorted into weakly decreasing order.
    """
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    if not s or s.strip() == "-":
        return Partition()
    parts = []
    for item in s.split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty item in partition {text!r}")
        base, caret, exp = item.partition("^")
        try:
            p, k = int(base), (int(exp) if caret else 1)
        except ValueError:
            raise ValueError(f"cannot read item {item!r} of partition {text!r}; "
                             "write parts like 3 or 3^2") from None
        if k < 0:
            raise ValueError(f"negative multiplicity in {text!r}")
        parts.extend([p] * k)
    parts.sort(reverse=True)
    return Partition(parts)


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram: column lengths of lam."""
    lam = as_partition(lam)
    if not lam.parts:
        return Partition()
    return Partition(
        sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0])
    )


def hooks(lam):
    """Hook lengths of every cell, row by row."""
    lam = as_partition(lam)
    conj = conjugate(lam).parts
    return [
        [lam.parts[i] - j + conj[j] - i - 1 for j in range(lam.parts[i])]
        for i in range(len(lam.parts))
    ]


def hook_product(lam) -> int:
    """Product of all hook lengths of lam."""
    return prod(v for row in hooks(lam) for v in row)


def dim_symmetric(lam) -> int:
    """Dimension n!/H(lam) of the symmetric group irrep labelled by lam."""
    lam = as_partition(lam)
    return factorial(lam.n) // hook_product(lam)


def unitary_numerator(lam) -> dict[int, int]:
    """Factored form of N(lam, d) = prod over cells (i, j) of (d + j - i).

    Returns {offset: multiplicity}, meaning the product of (d + offset) to
    the given powers.
    """
    lam = as_partition(lam)
    return Counter(j - i for i, p in enumerate(lam.parts) for j in range(p))


def dim_unitary(lam, d):
    """Dimension of the unitary group irrep with highest weight lam, at d.

    Equals N(lam, d)/H(lam); for integer d below the number of rows this is
    0, and the same rational expression evaluated at non-integer d is
    returned as a Fraction.
    """
    num = Fraction(1)
    for off, mult in unitary_numerator(lam).items():
        num *= Fraction(d + off) ** mult
    q = num / hook_product(as_partition(lam))
    return int(q) if q.denominator == 1 else q


class Dominance(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def dominates(lam, mu) -> Dominance:
    """Compare two partitions of the same total in dominance order.

    GREATER means every prefix sum of lam is >= the matching prefix sum of
    mu (lam majorizes mu).
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if lam.n != mu.n:
        raise ValueError("dominance needs partitions of the same total")
    if lam.parts == mu.parts:
        return Dominance.EQUAL
    sums = list(zip(accumulate(lam.parts), accumulate(mu.parts)))
    # Once the shorter partition is exhausted its prefix sums are frozen at
    # the full total, so later positions cannot flip either comparison.
    if all(a >= b for a, b in sums):
        return Dominance.GREATER
    if all(a <= b for a, b in sums):
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def dominance_covers(n):
    """Every cover (lam, mu) of the dominance order on partitions of n.

    lam covers mu exactly when lam is mu with one box moved from row j up to
    row i < j, where j = i + 1 or mu_i = mu_j, and both rows stay weakly
    decreasing (Brylawski, Discrete Math. 6 (1973) 201-219).
    """
    covers = []
    for mu in partition_list(n):
        m = mu.parts + (0,)
        for j in range(1, len(mu)):
            # the box leaves row j, the last of its block of equal parts, for
            # the block's top row, or for the row above when j tops the block
            i = min(m.index(m[j]), j - 1)
            if m[j] > m[j + 1] and (i == 0 or m[i - 1] > m[i]):
                lam = (*m[:i], m[i] + 1, *m[i + 1:j], m[j] - 1, *m[j + 1:])
                covers.append((Partition(p for p in lam if p), mu))
    return covers


def partitions_of(m: int):
    """Yield all partitions of m in reverse lexicographic order.

    Starts at (m) and ends at (1, ..., 1); this ordering is the canonical
    row/column order used for character tables and coefficient vectors.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")

    def gen(remaining, largest, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        for p in range(min(largest, remaining), 0, -1):
            yield from gen(remaining - p, p, prefix + (p,))

    yield from gen(m, m if m else 1, ())


@cache
def partition_list(m: int) -> tuple[Partition, ...]:
    """All partitions of m, in the canonical reverse lexicographic order."""
    return tuple(partitions_of(m))


@cache
def partition_index(m: int) -> dict[tuple, int]:
    """Map from part-tuples of m to their position in partition_list(m)."""
    return {p.parts: i for i, p in enumerate(partition_list(m))}
