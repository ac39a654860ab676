"""Shared oracles for the test suite.

Everything here is deliberately naive: direct sums over the symmetric group,
textbook formulas, no reuse of the package's optimized paths.  Tests compare
the package against these independent routes.
"""

from fractions import Fraction
from itertools import permutations as iter_permutations
from math import factorial, prod

import numpy as np
import pytest

from immom.partitions import as_partition


def brute_immanant(lam, M):
    """Immanant by the defining sum over all permutations.

    Characters come from the package's table (tested separately against
    hand values and orthogonality), the sum itself is independent of the
    vectorized batch evaluator.
    """
    from immom.characters import character

    lam = as_partition(lam)
    n = lam.n
    total = 0
    for sigma in iter_permutations(range(n)):
        cycles = _cycle_type_of_images(sigma)
        term = prod(M[i][sigma[i]] for i in range(n))
        total += character(lam, cycles) * term
    return total


def _cycle_type_of_images(images):
    n = len(images)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = images[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def brute_permanent(M):
    n = len(M)
    return sum(
        prod(M[i][sigma[i]] for i in range(n))
        for sigma in iter_permutations(range(n))
    )


def hook_lengths(parts):
    """All hook lengths of a Young diagram, row by row."""
    parts = list(parts)
    conj = [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []
    out = []
    for i, p in enumerate(parts):
        for j in range(p):
            out.append((p - j) + (conj[j] - i) - 1)
    return out


def naive_dim_symmetric(parts):
    n = sum(parts)
    return factorial(n) // prod(hook_lengths(parts)) if parts else 1


def naive_unitary_numerator(parts, d):
    """prod over cells (i, j) of (d + j - i), rows/cols 0-based."""
    return prod(
        Fraction(d + j - i) for i, p in enumerate(parts) for j in range(p)
    )


def interval(hi, lo=0):
    """The 1-indexed index set {lo+1, ..., hi} (empty when hi <= lo)."""
    return frozenset(range(lo + 1, hi + 1))


def random_complex_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance-criterion verdict lines after capture ends.

    The acceptance tests print one [PASS]/[FAIL] line each; stdout capture
    swallows the lines of passing tests, so the collected list is emitted
    here, where writes go straight to the run log.
    """
    import sys

    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance"
    )
    lines = getattr(mod, "ANNOUNCED", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
