"""Per-swap-pair cycle-type histograms, by column orthogonality.

For a shape lam of n and swap sets A, B inside {1..n}, h_c sums
hatchi(pi) hatchi(gamma) over the pairs pi, gamma of the block-diagonal
S_n x S_n in S_2n whose product eps_A pi eps_B gamma has cycle type c.  Its
character transform A_xi(A, B) = sum_c h_c chi^xi(c) is computed exactly
inside each irrep xi (seminormal.pair_coefficient), and

    h_c = |C_c| / (2n)! * sum over xi of chi^xi(c) A_xi(A, B)

in Python integers; a remainder raises ArithmeticError rather than
truncate.
"""

from __future__ import annotations

from math import factorial

from .characters import character, class_size
from .partitions import Partition, as_partition, partition_list
from .seminormal import pair_coefficient


def t_histogram(lam, A, B) -> dict[Partition, int]:
    """The nonzero h_c for the 1-based swap sets A, B, in canonical order."""
    lam = as_partition(lam)
    m = 2 * lam.n
    classes = partition_list(m)
    coeffs = [(xi, pair_coefficient(lam, xi, A, B)) for xi in classes]
    hist = {}
    for ct in classes:
        total = class_size(ct) * sum(character(xi, ct) * a for xi, a in coeffs)
        h, rest = divmod(total, factorial(m))
        if rest:
            raise ArithmeticError(f"class {ct}: {total} is not a multiple of {m}!")
        if h:
            hist[ct] = h
    return hist
