"""Monte Carlo verification of the exact moment formulas.

Haar unitaries are drawn as QR factorizations of complex Ginibre matrices
with the R-diagonal phase folded back into Q (without that correction QR
output is not Haar).  The estimators read only a few leading columns of U,
so they draw only those: the first k columns of a Haar d x d unitary have
the law of the phase-fixed Q factor of a thin QR of a d x k Ginibre matrix
(Mezzadri 2007, math-ph/0609050).  Sampling is organized in fixed-size
chunks, each seeded by a counter-based generator keyed on (seed, row,
chunk), so results are bit-for-bit reproducible for a given seed no matter
how many workers run the chunks; per-chunk running statistics are merged in
chunk order.  Workers are forked where the platform can fork and spawned
elsewhere.

Immanants are evaluated from their definition as character-weighted
permutation sums, with determinant and permanent fast paths (numpy's det,
and the +-1 sign-sum formula for the permanent).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import sqrt

import numpy as np

from .characters import character_table
from .partitions import Partition, as_partition
from .symgroup import cycle_keyer, permutation_table

CHUNK = 4096
_SIGN_BLOCK = 64  # sign vectors per permanent block: all of them for n <= 7


def _rng(seed, row, chunk):
    key2 = (int(row) << 32) | int(chunk)
    return np.random.Generator(np.random.Philox(key=[int(seed) & (2**64 - 1), key2]))


def haar_batch(d, count, rng, k=None):
    """The first `k` columns (default all d) of `count` independent Haar
    d x d unitaries, as a (count, d, k) stack.

    Only those columns are drawn: the phase-fixed Q of a thin QR of a d x k
    complex Ginibre matrix has the law of the first k columns of a Haar
    unitary (Mezzadri 2007, math-ph/0609050).  For one Ginibre stack it is
    the leading k columns of the full draw, up to rounding.
    """
    k = d if k is None else k
    if not 0 <= k <= d:
        raise ValueError(f"column count must lie in 0..{d}, got {k}")
    g = rng.standard_normal((count, d, k)) + 1j * rng.standard_normal((count, d, k))
    q, r = np.linalg.qr(g)
    diag = np.einsum("...ii->...i", r)
    mag = np.abs(diag)
    phase = np.where(mag == 0, 1.0, diag / np.where(mag == 0, 1.0, mag))
    return q * phase[:, None, :]


def haar_unitary(d, rng):
    """A single Haar-distributed d x d unitary."""
    return haar_batch(d, 1, rng)[0]


@cache
def _char_data(parts):
    n = sum(parts)
    perms = permutation_table(n)
    classes = cycle_keyer(n)(perms)
    chars = character_table(n).row(parts)[classes].astype(np.complex128)
    return perms, chars


def immanant_batch(lam, M):
    """Immanants of a stack (B, n, n) of matrices, as complex values."""
    lam = as_partition(lam)
    n = lam.n
    if M.shape[-2:] != (n, n):
        raise ValueError("matrix block size must equal |lam|")
    if lam.parts == tuple([1] * n):
        return np.linalg.det(M)
    if lam.parts == (n,):
        return permanent_batch(M)
    perms, chars = _char_data(lam.parts)
    # row by row, so no (B, n!, n) gather is formed; the product order is
    # that of prod(axis=2) over the gather, so the values are the same
    terms = M[:, 0, perms[:, 0]]
    for i in range(1, n):
        terms *= M[:, i, perms[:, i]]
    return terms @ chars


def immanant(lam, M):
    """Immanant of one n x n matrix: sum over permutations of the character
    times the matched product of entries."""
    return complex(immanant_batch(lam, np.asarray(M)[None, :, :])[0])


def permanent_batch(M):
    """Permanents of a stack (B, n, n) via the half-size +-1 sign sum.

    The 2^(n-1) sign vectors (delta_1 fixed at +1) are summed in blocks of
    at most _SIGN_BLOCK, so a call holds a (B, _SIGN_BLOCK, n) array rather
    than (B, 2^(n-1), n).
    """
    n = M.shape[-1]
    if n == 1:
        return M[:, 0, 0]
    s = 1 << (n - 1)
    for start in range(0, s, _SIGN_BLOCK):
        bits = np.arange(start, min(start + _SIGN_BLOCK, s))[:, None] >> np.arange(n - 1) & 1
        delta = np.concatenate([np.ones((len(bits), 1)), 1.0 - 2.0 * bits], axis=1)
        part = np.einsum("sk,bkj->bsj", delta, M).prod(axis=2) @ delta.prod(axis=1)
        total = part if start == 0 else total + part
    return total / s


# ---------------------------------------------------------------------------
# estimation


@dataclass(frozen=True)
class MomentEstimate:
    kind: str
    lam: Partition | None
    d: int
    power: int | None
    samples: int
    seed: int
    estimate: complex
    stderr: float

    @property
    def real(self):
        return float(self.estimate.real)


def _merge(stats):
    """Combine per-chunk (count, mean, M2) in the given (chunk) order."""
    n_tot, mean, m2 = 0, 0.0 + 0.0j, 0.0
    for count, cmean, cm2 in stats:
        if count == 0:
            continue
        new_n = n_tot + count
        delta = cmean - mean
        mean = mean + delta * (count / new_n)
        m2 = m2 + cm2 + abs(delta) ** 2 * (n_tot * count / new_n)
        n_tot = new_n
    return n_tot, mean, m2


def _immanant_values(parts, d, power, rng, count):
    n = sum(parts)
    u = haar_batch(d, count, rng, n)
    vals = np.abs(immanant_batch(Partition(parts), u[:, :n])) ** power
    return vals.astype(np.complex128)


def _monomial_values(rows, cols, crows, ccols, d, rng, count):
    u = haar_batch(d, count, rng, 1 + max(cols + ccols, default=-1))
    left = np.prod(u[:, rows, cols], axis=1)
    right = np.prod(u[:, crows, ccols], axis=1)
    return left * np.conj(right)


def _chunk_stats(task, chunk, count):
    """(count, mean, M2) of one chunk; task is (values, seed, row) with
    values(rng, count) giving the chunk's sample values."""
    values, seed, row = task
    vals = values(_rng(seed, row, chunk), count)
    mean = vals.mean()
    m2 = float((np.abs(vals - mean) ** 2).sum())
    return len(vals), complex(mean), m2


def _chunk_plan(samples):
    chunks = []
    c = 0
    while samples > 0:
        take = min(CHUNK, samples)
        chunks.append((c, take))
        samples -= take
        c += 1
    return chunks


def _run_chunks(task, samples, workers):
    """Run every chunk of task and merge them in chunk order; returns
    (count, mean, stderr)."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    plan = _chunk_plan(samples)
    if workers > 1:
        import multiprocessing

        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with multiprocessing.get_context(method).Pool(workers) as pool:
            stats = pool.starmap(_chunk_stats, [(task, c, k) for c, k in plan])
    else:
        stats = [_chunk_stats(task, c, k) for c, k in plan]
    count, mean, m2 = _merge(stats)
    return count, mean, sqrt(m2 / (count - 1) / count)


def estimate_moment(lam, d, power, samples, seed, workers=1, row=0) -> MomentEstimate:
    """Monte Carlo estimate of the moment E |Imm_lam M|^power at dimension d.

    M is the top-left |lam| x |lam| block of a Haar d x d unitary; which
    block is irrelevant in law since row and column rotations preserve the
    Haar measure.  Identical seeds give identical estimates for any worker
    count.
    """
    lam = as_partition(lam)
    if d < lam.n:
        raise ValueError("need d >= |lam| to cut an n x n block")
    task = (partial(_immanant_values, lam.parts, d, power), seed, row)
    count, mean, stderr = _run_chunks(task, samples, workers)
    return MomentEstimate(
        kind="immanant", lam=lam, d=d, power=power, samples=count,
        seed=seed, estimate=mean, stderr=stderr,
    )


def estimate_monomial(rows, cols, conj_rows, conj_cols, d, samples, seed,
                      workers=1, row=0) -> MomentEstimate:
    """Monte Carlo estimate of E prod U[rows, cols] conj(prod U[...]).

    Index lists are 1-based, matching the exact monomial integrals.
    """
    if len(rows) != len(cols) or len(conj_rows) != len(conj_cols):
        raise ValueError("rows and cols, and conj_rows and conj_cols, must have equal lengths")
    if not all(1 <= i <= d for i in (*rows, *cols, *conj_rows, *conj_cols)):
        raise ValueError(f"indices are 1-based and must lie in 1..{d}")
    zero_based = (tuple(i - 1 for i in ix) for ix in (rows, cols, conj_rows, conj_cols))
    task = (partial(_monomial_values, *zero_based, d), seed, row)
    count, mean, stderr = _run_chunks(task, samples, workers)
    return MomentEstimate(
        kind="monomial", lam=None, d=d, power=None, samples=count,
        seed=seed, estimate=mean, stderr=stderr,
    )


def moment_scan(lam, d_values, power, samples, seed, workers=1):
    """Estimates across a d grid; row index feeds the seed derivation so
    each grid point has its own reproducible stream."""
    lam = as_partition(lam)
    out = []
    for row, d in enumerate(d_values):
        est = estimate_moment(lam, d, power, samples, seed, workers=workers, row=row)
        out.append(est)
    return out


def scan_rows(estimates):
    """CSV-ready dict rows for a list of MomentEstimates."""
    rows = []
    for e in estimates:
        rows.append(
            {
                "lambda": "" if e.lam is None else str(e.lam),
                "n": "" if e.lam is None else e.lam.n,
                "d": e.d,
                "power": e.power,
                "samples": e.samples,
                "seed": e.seed,
                "estimate": repr(e.real),
                "stderr": repr(e.stderr),
            }
        )
    return rows
