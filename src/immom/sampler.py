"""Monte Carlo verification of the exact moment formulas.

Haar draws are phase-fixed Q factors of complex Ginibre stacks: the Q of
the QR factorization whose R has a positive real diagonal (without that
convention the Q of a QR is not Haar; Mezzadri 2007, math-ph/0609050).
Permuting the rows and the columns of a Haar unitary keeps its law, so
every statistic sampled here is read off a top-left n x n block M, and
``haar_block`` draws only that block.  Split the d x n Ginibre matrix whose
Q holds the first n columns into G_top (n x n) and G_bot ((d-n) x n); then
M = G_top R^-1 with R^H R = G_top^H G_top + G_bot^H G_bot, so M depends on
G_bot only through the complex Wishart matrix G_bot^H G_bot.  Its Bartlett
factor T (Edelman and Rao, Acta Numerica 14 (2005)) has that Wishart law
with min(d-n, n) rows: upper trapezoidal, T_ii = sqrt(2 Gamma(d-n-i))
(0-based i) and standard complex normals above the diagonal.  ``haar_block``
therefore orthonormalizes [G_top; T], at most 2n rows, and keeps its top n
rows: a draw whose cost does not depend on d.  The orthonormalizer is
classical Gram-Schmidt, every column projected twice, over a batch-last
stack, so each step is one vectorized operation across the whole batch
rather than one LAPACK call per tiny matrix.  Its R diagonal is the norm
of each projected column, real and positive, so no phase correction
follows.

Sampling is organized in fixed-size chunks, each seeded by a
counter-based generator keyed on (seed, row, chunk), so results are
bit-for-bit reproducible for a given seed no matter how many workers run
the chunks; per-chunk running statistics are merged in chunk order.  Every
chunk of a call, of each point of a d-grid scan too, goes through one
pool_map call, so a call starts at most one process pool, with no more
workers than chunks; they are forked where the platform can fork and
spawned elsewhere.  A worker that dies ends the call with
ChildProcessError, not a hang.

Immanants are evaluated from their definition as character-weighted
permutation sums over the permutations whose character is nonzero, with
determinant and permanent fast paths (numpy's det, and the +-1 sign-sum
formula for the permanent).  Both sums run over bounded blocks, so the
memory a worker holds does not grow with the chunk size for any shape: the
permanent over blocks of sign vectors, the general immanant over blocks of
samples holding about _TERM_BLOCK complex terms (1 MiB) each.  Each sum is
a multiply followed by a numpy reduction along the term axis, whose order
is fixed by the number of terms alone, so no value depends on the block
split or on the BLAS thread count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache, partial
from math import sqrt
from time import perf_counter

import numpy as np

from .characters import character_row
from .partitions import Partition, as_partition
from .symgroup import cycle_keyer, permutation_table

log = logging.getLogger(__name__)

CHUNK = 4096
_SIGN_BLOCK = 64  # sign vectors per permanent block: all of them for n <= 7
_TERM_BLOCK = 2**16  # complex terms per general-immanant block


def _rng(seed, row, chunk):
    key2 = (int(row) << 32) | int(chunk)
    return np.random.Generator(np.random.Philox(key=[int(seed) & (2**64 - 1), key2]))


def _orthonormalize(a):
    """The Q factor, with a positive real R diagonal, of every matrix in a
    batch-last stack: a[j] is column j, of shape (rows, count).

    Classical Gram-Schmidt with each column projected out twice, which
    keeps Q orthonormal to rounding even for nearly dependent columns
    ("twice is enough": Parlett, The Symmetric Eigenvalue Problem, 1980);
    the result has the stack's (k, rows, count) layout.
    """
    q = np.empty_like(a)
    for j, v in enumerate(a):
        for _ in range(2 if j else 0):
            coef = [(q[i].conj() * v).sum(axis=0) for i in range(j)]
            v = v - sum(q[i] * c for i, c in enumerate(coef))
        q[j] = v / np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
    return q


def haar_block(d, count, rng, n):
    """The top-left n x n blocks of `count` independent Haar d x d
    unitaries, as a (count, n, n) stack.

    The top n rows of the phase-fixed Q of [G_top; T]: G_top is n x n
    complex Ginibre, and T is the Bartlett factor of the Wishart matrix of
    the d - n rows below (module docstring).  At d = n, T is empty and the
    result is the whole unitary.
    """
    if not 0 <= n <= d:
        raise ValueError(f"block size must lie in 0..{d}, got {n}")
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    m = min(d - n, n)
    a = np.zeros((n, n + m, count), dtype=np.complex128)
    a[:, :n] = g.transpose(2, 1, 0)
    rows, cols = np.triu_indices(m, 1, n)
    shape = (count, len(rows))
    upper = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a[cols, n + rows] = upper.T
    diag = np.arange(m)
    a[diag, n + diag] = np.sqrt(2 * rng.standard_gamma(d - n - diag, (count, m))).T
    return _orthonormalize(a)[:, :n].transpose(2, 1, 0)


def haar_unitary(d, rng):
    """A single Haar-distributed d x d unitary."""
    return haar_block(d, 1, rng, d)[0]


@cache
def _char_data(parts):
    """The permutations of S_n whose character chi^parts is nonzero, in
    lexicographic order, and those characters as float64, both read-only."""
    n = sum(parts)
    perms = permutation_table(n)
    chars = character_row(parts)[cycle_keyer(n)(perms)]
    keep = chars != 0
    perms, chars = perms[keep], chars[keep].astype(np.float64)
    perms.flags.writeable = chars.flags.writeable = False
    return perms, chars


def immanant_batch(lam, M):
    """Immanants of a stack (B, n, n) of matrices, as complex values.

    The general path forms the (samples, terms) products of matched entries,
    one term per permutation with a nonzero character, over consecutive
    blocks of samples of about _TERM_BLOCK complex terms each, so it holds
    two arrays of about 1 MiB whatever B is.  Each sample's terms are
    weighted by the characters and summed along the term axis in an order
    fixed by the number of terms, so every value is bit for bit the same
    whatever the block split and the BLAS thread count.
    """
    lam = as_partition(lam)
    n = lam.n
    if M.shape[-2:] != (n, n):
        raise ValueError("matrix block size must equal |lam|")
    if lam.parts == tuple([1] * n):
        return np.linalg.det(M)
    if lam.parts == (n,):
        return permanent_batch(M)
    perms, chars = _char_data(lam.parts)
    block = max(1, _TERM_BLOCK // len(perms))
    out = np.empty(len(M), dtype=np.complex128)
    for start in range(0, len(M), block):
        m = M[start:start + block]
        # row by row, so no (block, terms, n) gather is formed; the product
        # order is that of prod(axis=2) over the gather, so the values are
        # the same
        terms = m[:, 0, perms[:, 0]]
        for i in range(1, n):
            terms *= m[:, i, perms[:, i]]
        terms *= chars
        # the gather lays the terms out term by term, so sum(axis=1) would
        # add them in sequence across a block but pairwise for a lone
        # sample; reduceat takes every sample's first term plus the pairwise
        # sum of the rest, whatever the block's size and layout
        out[start:start + block] = np.add.reduceat(terms, [0], axis=1)[:, 0]
    return out


def immanant(lam, M):
    """Immanant of one n x n matrix: sum over permutations of the character
    times the matched product of entries."""
    return complex(immanant_batch(lam, np.asarray(M)[None, :, :])[0])


def permanent_batch(M):
    """Permanents of a stack (B, n, n) via the half-size +-1 sign sum.

    The 2^(n-1) sign vectors (delta_1 fixed at +1) are summed in blocks of
    at most _SIGN_BLOCK, so a call holds (B, _SIGN_BLOCK) arrays rather than
    a (B, 2^(n-1), n) one.  Within a block the low sign bits vary: each
    column's signed sums sum_k delta_k M[k, j] are built by doubling, adding
    the rows in order with either sign, and the columns are multiplied in as
    contiguous (B, signs) blocks, so every value is bit for bit the same
    whatever the stack's size and memory layout.
    """
    n = M.shape[-1]
    if n == 0:
        # the permanent of the empty matrix is 1, as for immanant((), M)
        return np.ones(len(M), dtype=np.result_type(M, 1.0))
    s = 1 << (n - 1)
    width = min(s, _SIGN_BLOCK)
    inner = width.bit_length() - 1  # delta_2 .. delta_(inner+1) vary in a block
    parity = np.ones(1)
    for _ in range(inner):
        parity = np.concatenate([parity, -parity])
    for start in range(0, s, width):
        high = [start >> k & 1 for k in range(inner, n - 1)]
        for j in range(n):
            column = M[:, 0, j, None]
            for k in range(1, inner + 1):
                row = M[:, k, j, None]
                column = np.concatenate([column + row, column - row], axis=1)
            for k, minus in enumerate(high, inner + 1):
                column = column - M[:, k, j, None] if minus else column + M[:, k, j, None]
            products = column if j == 0 else products * column
        part = (products * (parity if sum(high) % 2 == 0 else -parity)).sum(axis=1)
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
        new_n = n_tot + count
        delta = cmean - mean
        mean = mean + delta * (count / new_n)
        m2 = m2 + cm2 + abs(delta) ** 2 * (n_tot * count / new_n)
        n_tot = new_n
    return n_tot, mean, m2


def _immanant_values(parts, d, power, rng, count):
    m = haar_block(d, count, rng, sum(parts))
    vals = np.abs(immanant_batch(Partition(parts), m)) ** power
    return vals.astype(np.complex128)


def _monomial_values(rows, cols, crows, ccols, k, d, rng, count):
    u = haar_block(d, count, rng, k)
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


def pool_map(fn, tasks, workers):
    """[fn(*t) for t in tasks], in task order, over at most `workers`
    processes.

    One worker runs the calls here.  More run them on one
    concurrent.futures.ProcessPoolExecutor, whose workers are forked where
    the platform can fork and spawned elsewhere.  A worker that dies
    without returning, most likely killed for lack of memory, breaks the
    pool, and the call ends with ChildProcessError rather than a hang.
    """
    if workers <= 1:
        return [fn(*t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # numpy loads numpy.random lazily; loading it here, not at import
    # of this module, lets forked workers inherit it without making
    # every import of the package pay for it
    import numpy.random

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method)) as pool:
        results = []
        try:
            for future in [pool.submit(fn, *t) for t in tasks]:
                results.append(future.result())
        except BrokenProcessPool as exc:
            raise ChildProcessError(
                f"a worker process died before task {len(results)} of {len(tasks)} returned "
                f"({workers} workers), likely killed for lack of memory") from exc
    return results


def _run_chunks(tasks, samples, workers):
    """Run every chunk of every (values, seed, row) task through one
    pool_map call and merge each task's chunks in chunk order; returns
    (count, mean, stderr) per task."""
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    plan = _chunk_plan(samples)
    stats = pool_map(_chunk_stats, [(task, c, k) for task in tasks for c, k in plan],
                     min(workers, len(tasks) * len(plan)))
    merged = [_merge(stats[i:i + len(plan)]) for i in range(0, len(stats), len(plan))]
    return [(count, mean, sqrt(m2 / (count - 1) / count)) for count, mean, m2 in merged]


def _estimates(kind, lam, power, points, samples, seed, workers):
    """One MomentEstimate per (d, row, values) point, all from one
    _run_chunks call; logs one DEBUG line per call."""
    t0 = perf_counter()
    results = _run_chunks([(values, seed, row) for _, row, values in points], samples, workers)
    if log.isEnabledFor(logging.DEBUG):
        seconds, count = perf_counter() - t0, len(points) * samples
        chunks = len(points) * len(_chunk_plan(samples))
        log.debug("kind=%s d=%s samples=%d chunks=%d workers=%d seconds=%.3f "
                  "samples_per_s=%.0f", kind, ",".join(str(p[0]) for p in points), count,
                  chunks, min(workers, chunks), seconds, count / max(seconds, 1e-9))
    return [MomentEstimate(kind, lam, d, power, count, seed, mean, stderr)
            for (d, _, _), (count, mean, stderr) in zip(points, results)]


def _immanant_estimates(lam, rows_d, power, samples, seed, workers):
    lam = as_partition(lam)
    if any(d < lam.n for _, d in rows_d):
        raise ValueError(f"d must be at least n = {lam.n}")
    points = [(d, row, partial(_immanant_values, lam.parts, d, power)) for row, d in rows_d]
    return _estimates("immanant", lam, power, points, samples, seed, workers)


def estimate_moment(lam, d, power, samples, seed, workers=1, row=0) -> MomentEstimate:
    """Monte Carlo estimate of the moment E |Imm_lam M|^power at dimension d.

    M is the top-left |lam| x |lam| block of a Haar d x d unitary; which
    block is irrelevant in law since row and column rotations preserve the
    Haar measure.  Identical seeds give identical estimates for any worker
    count.
    """
    return _immanant_estimates(lam, [(row, d)], power, samples, seed, workers)[0]


def _relabel(a, b):
    """a and b with their distinct values replaced by 0, 1, ... in sorted
    order, and the number of distinct values."""
    index = {v: i for i, v in enumerate(sorted({*a, *b}))}
    return tuple(index[v] for v in a), tuple(index[v] for v in b), len(index)


def estimate_monomial(rows, cols, conj_rows, conj_cols, d, samples, seed,
                      workers=1, row=0) -> MomentEstimate:
    """Monte Carlo estimate of E prod U[rows, cols] conj(prod U[...]).

    Index lists are 1-based, matching the exact monomial integrals.  The
    distinct rows and the distinct columns are each relabelled 1, 2, ... in
    order, which keeps the law, so the entries are read off the top-left
    k x k block, k the larger of the two distinct counts.
    """
    if len(rows) != len(cols) or len(conj_rows) != len(conj_cols):
        raise ValueError("rows and cols, and conj_rows and conj_cols, must have equal lengths")
    if not all(1 <= i <= d for i in (*rows, *cols, *conj_rows, *conj_cols)):
        raise ValueError(f"indices are 1-based and must lie in 1..{d}")
    rows, conj_rows, k_rows = _relabel(rows, conj_rows)
    cols, conj_cols, k_cols = _relabel(cols, conj_cols)
    values = partial(_monomial_values, rows, cols, conj_rows, conj_cols,
                     max(k_rows, k_cols), d)
    return _estimates("monomial", None, None, [(d, row, values)], samples, seed, workers)[0]


def moment_scan(lam, d_values, power, samples, seed, workers=1):
    """Estimates across a d grid, every chunk of every point on one pool;
    the row index feeds the seed derivation, so each grid point has its own
    reproducible stream, that of estimate_moment at the same row."""
    return _immanant_estimates(lam, list(enumerate(d_values)), power, samples, seed, workers)
