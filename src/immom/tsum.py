"""Vectorized engine behind the fourth-moment character sums.

For a shape lam of n and swap sets A, B inside {1..n}, the quantity driving
the fourth moment is a histogram over cycle types c of S_2n of

    sum of hatchi(pi) * hatchi(gamma)  over pairs pi, gamma in V
    with cycle_type(eps_A * pi * eps_B * gamma) = c,

where V is the block-diagonal copy of S_n x S_n in S_2n and hatchi is the
product character.  Enumerating all |V|^2 pairs is hopeless beyond n=4, so
the pair sum is factored through the double coset decomposition of V by
K = V intersect eps_B V eps_B (all of V when B is empty): writing
pi = t * kappa over a transversal of V/K, each of the |V|^2/|K| composites,
one per t and v = (vp, vm) in V, carries the weight

    C[t, vp, vm] = sum over kappa in K of hatchi(t kappa) chi(gp vp) chi(gm vm)

with (gp, gm) the components of eps_B kappa^-1 eps_B.  Collecting
hatchi(t kappa) into M[t, gp, gm] gives C[t] = X^T M[t] Y with X = chi(gp vp)
and Y = chi(gm vm): two n!-wide gathers and two batched matrix products per
block of vp, bincounted against the cycle types of the composites.  This
runs in float64 and is exact: every term is an integer and every partial
sum is at most |K| max|chi|^4 < 2**53 (checked per call), and blocks keep
each bincount total at most 2**52, so the histogram is bit-identical to the
naive enumeration.

Histograms are additive over a shard split of the transversal rows, which
is what the worker interface exposes; merging shards in any order gives
identical integers.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .characters import character_table
from .partitions import as_partition, partition_list
from .symgroup import cycle_keyer, permutation_table

_MAX_ENGINE_N = 6  # composition tables are (n!)^2; beyond 6 they do not fit


class _PermData:
    """Lexicographic arrays for S_n: images, composition table, inverses,
    and the conjugacy class index of every element."""

    def __init__(self, n):
        if n > _MAX_ENGINE_N:
            raise ValueError(
                f"composition tables for S_{n} would need ({n}!)^2 entries; "
                f"the engine supports n <= {_MAX_ENGINE_N}"
            )
        self.n = n
        P = permutation_table(n)
        self.P = P
        self.size = len(P)
        self._powers = (n ** np.arange(n - 1, -1, -1)).astype(np.int64)
        self._codes = P.astype(np.int64) @ self._powers
        MT = np.empty((self.size, self.size), dtype=np.int32)
        for a in range(self.size):
            MT[a] = self.rank(P[a][P])
        self.MT = MT
        self.INV = self.rank(np.argsort(P, axis=1))
        self.cls_of = cycle_keyer(n)(P)

    def rank(self, rows):
        """Indices of permutation rows (N, n) in lexicographic order."""
        return np.searchsorted(self._codes, rows.astype(np.int64) @ self._powers)


@cache
def perm_data(n) -> _PermData:
    return _PermData(n)


@cache
def _pair_images(n):
    """All of V as 2n-symbol image rows, ordered by i_plus * n! + i_minus."""
    pd = perm_data(n)
    left = np.repeat(pd.P, pd.size, axis=0)
    right = np.tile(pd.P, (pd.size, 1)) + np.uint8(n)
    return np.concatenate([left, right], axis=1)


@cache
def _subset_data(n, b_points):
    """Members of S_n preserving the 0-based point set, and the minimal
    coset representatives of S_n over that Young subgroup (one per image
    set of the points)."""
    pd = perm_data(n)
    if not b_points:
        return np.arange(pd.size), np.array([0])
    idx = np.array(b_points)
    images = pd.P[:, idx]
    members = np.where(np.isin(images, idx).all(axis=1))[0]
    bits = np.bitwise_or.reduce(
        np.left_shift(np.int64(1), images.astype(np.int64)), axis=1
    )
    _, first = np.unique(bits, return_index=True)
    return members, np.sort(first)


def _epsilon_images(n, points):
    img = np.arange(2 * n, dtype=np.uint8)
    for i in points:
        img[i], img[n + i] = n + i, i
    return img


_KEY_CACHE: dict = {}  # (n, A points, B points) -> keys; one degree n at a time
_KEY_CACHE_LIMIT = 1 << 24  # cache cycle-type keys only when they fit easily
_BLOCK_BYTES = 1 << 26  # W, C and keys of one column block


def t_histogram_vec(lam, A, B, shards=1, shard=0):
    """One shard of the weighted cycle-type histogram for eps_A, eps_B.

    A and B are 1-based subsets of {1..n}; the result is an int64 vector
    aligned with partition_list(2n).  Summing over shard = 0..shards-1
    (in any order) gives the full histogram.
    """
    lam = as_partition(lam)
    n = lam.n
    a_pts = tuple(sorted(i - 1 for i in A))
    b_pts = tuple(sorted(i - 1 for i in B))
    if any(not 0 <= p < n for p in a_pts + b_pts):
        raise ValueError("swap sets must lie inside 1..n")
    if len(a_pts) > len(b_pts):
        # product order around conjugation-invariant weights: the histogram
        # for (A, B) equals the one for (B, A), so decompose by the larger set
        a_pts, b_pts = b_pts, a_pts
    if not (0 <= shard < shards):
        raise ValueError("need 0 <= shard < shards")

    pd = perm_data(n)
    table = character_table(n)
    chi_perm = table.row(lam)[pd.cls_of].astype(np.float64)
    chimax = int(np.abs(table.row(lam)).max())
    classify = cycle_keyer(2 * n)
    ncls = len(partition_list(2 * n))
    V2n = _pair_images(n)
    size = pd.size

    members, trans = _subset_data(n, b_pts)
    rho2n = _epsilon_images(n, b_pts)
    m = len(members)
    ksize = m * m
    if ksize * chimax**4 >= 2**53:
        raise RuntimeError("character sums too large for exact float64 matmul")

    # conjugated inverses rho kappa^-1 rho for every kappa in K, as V pairs,
    # and the distinct components gp (first) and gm (second) among them
    PL = pd.P[pd.INV[members]]
    k_inv = np.concatenate(
        [np.repeat(PL, m, axis=0), np.tile(PL, (m, 1)) + np.uint8(n)], axis=1
    )
    g2n = rho2n[k_inv[:, rho2n]]
    gp, ia = np.unique(pd.rank(g2n[:, :n]), return_inverse=True)
    gm, ib = np.unique(pd.rank(g2n[:, n:] - n), return_inverse=True)
    # chi(gp o vp) and chi(gm o vm) for every component of v in V
    X = chi_perm[pd.MT[gp]]
    Y = chi_perm[pd.MT[gm]]

    # transversal pairs owned by this shard
    t_pairs = np.array([(a, b) for a in trans for b in trans])
    own_index = np.arange(len(t_pairs))[shard::shards]
    if not len(own_index):
        return np.zeros(ncls, dtype=np.int64)
    ta, tb = t_pairs[own_index].T
    # hatchi(t kappa) for every owned transversal pair and kappa = (c, d),
    # added into M[t, a, b] where rho kappa^-1 rho = (gp[a], gm[b])
    chiM1 = (chi_perm[pd.MT[ta[:, None], members]][:, :, None]
             * chi_perm[pd.MT[tb[:, None], members]][:, None, :])
    M = np.zeros((len(own_index), len(gp), len(gm)))
    np.add.at(M, (slice(None), ia, ib), chiM1.reshape(-1, ksize))

    E = _epsilon_images(n, a_pts)[np.concatenate(
        [pd.P[t_pairs[:, 0]], pd.P[t_pairs[:, 1]] + np.uint8(n)], axis=1
    )[:, rho2n]]
    cached = None
    if len(t_pairs) * size * size <= _KEY_CACHE_LIMIT:
        def build():
            out = np.empty((len(t_pairs), size * size), dtype=np.uint8)
            for i in range(len(t_pairs)):
                out[i] = classify(E[i][V2n])
            return out
        cached = _cached_keys(n, a_pts, b_pts, build)[own_index]
    else:
        E_own = E[own_index]

    # key bytes per composite: the cached uint8 key, or the image row, one
    # power with its match mask and classify's two int64 sums
    key_bytes = 1 if cached is not None else 6 * n + 16
    block = _block_size(len(own_index), len(gm), size, ksize * chimax**4, key_bytes)
    hist = np.zeros(ncls, dtype=np.int64)
    for p0 in range(0, size, block):
        p1 = min(p0 + block, size)
        W = np.matmul(X[:, p0:p1].T, M)
        C = W.reshape(-1, len(gm)) @ Y
        if cached is not None:
            keys = cached[:, p0 * size:p1 * size]
        else:
            composed = E_own[:, V2n[p0 * size:p1 * size]]
            keys = classify(composed.reshape(-1, 2 * n))
        part = np.bincount(keys.ravel(), weights=C.ravel(), minlength=ncls)
        hist += _to_int64(part)
    return hist


def _cached_keys(n, a_pts, b_pts, build):
    key = (n, a_pts, b_pts)
    if key not in _KEY_CACHE:
        for stale in [k for k in _KEY_CACHE if k[0] != n]:
            del _KEY_CACHE[stale]
        _KEY_CACHE[key] = build()
    return _KEY_CACHE[key]


def _block_size(t_rows, inner, size, maxC, key_bytes):
    """Columns vp per block.  A block bincounts t_rows * size * block terms
    of size at most maxC, so its totals stay exact in float64 while they
    are at most 2**52; W, C and the keys take t_rows * block times
    (8 * inner + (8 + key_bytes) * size) bytes, at most _BLOCK_BYTES."""
    exact = 2**52 // (t_rows * size * maxC)
    if exact < 1:
        raise RuntimeError("one column block exceeds exact float64 range")
    mem = _BLOCK_BYTES // (t_rows * (8 * inner + (8 + key_bytes) * size))
    return max(1, min(size, exact, mem))


def _to_int64(hist):
    out = np.rint(hist)
    if not np.array_equal(out, hist):
        raise RuntimeError("histogram accumulation lost exactness")
    return out.astype(np.int64)


def histogram_shard_sizes(n, B):
    """Number of transversal pairs for the set B (the shardable axis)."""
    _, trans = _subset_data(n, tuple(sorted(i - 1 for i in B)))
    return len(trans) ** 2
