"""Haar sampling and Monte Carlo moment estimation.

Oracles: unitarity checked directly, immanants checked against the naive
permutation sum (conftest) and against the pivoted determinant, estimator
means checked against the exact closed forms, and the reproducibility
contract checked bit for bit.
"""

import multiprocessing
import tracemalloc
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from conftest import brute_immanant, brute_permanent, random_complex_matrix
from immom.characters import character
from immom.moments import det_moment, mean
from immom.partitions import Partition, partition_list
from immom.sampler import (
    CHUNK,
    MomentEstimate,
    _char_data,
    _rng,
    estimate_moment,
    estimate_monomial,
    haar_batch,
    haar_unitary,
    immanant,
    immanant_batch,
    moment_scan,
    permanent_batch,
    scan_rows,
)
from immom.symgroup import all_permutations


# ---------------------------------------------------------------------------
# Haar unitaries


class _FixedGinibre:
    """Stands in for a generator: each standard_normal call hands out the
    leading columns of the next of two fixed Gaussian stacks, so a thin and
    a full draw factor the same Ginibre matrix."""

    def __init__(self, real, imag):
        self.parts = [real, imag]

    def standard_normal(self, shape):
        part = self.parts.pop(0)
        assert part.shape[:-1] == shape[:-1]
        return part[..., : shape[-1]]


def test_haar_batch_shape_and_unitarity():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 8, 64):
        batch = haar_batch(d, 5, rng)
        assert batch.shape == (5, d, d)
        assert batch.dtype == np.complex128
        eye = np.eye(d)
        for U in batch:
            assert np.abs(U.conj().T @ U - eye).max() <= 1e-12
    # the thin draw is the full draw's leading columns, and has orthonormal
    # columns, when both factor one Ginibre stack
    for d in (1, 2, 5, 20):
        real = rng.standard_normal((5, d, d))
        imag = rng.standard_normal((5, d, d))
        full = haar_batch(d, 5, _FixedGinibre(real, imag))
        for k in sorted({1, (d + 1) // 2, d}):
            thin = haar_batch(d, 5, _FixedGinibre(real, imag), k)
            assert thin.shape == (5, d, k)
            assert np.allclose(thin, full[..., :k], rtol=0, atol=1e-12), (d, k)
            gram = thin.conj().transpose(0, 2, 1) @ thin
            assert np.abs(gram - np.eye(k)).max() <= 1e-12, (d, k)
    with pytest.raises(ValueError):
        haar_batch(3, 2, rng, 4)


def test_haar_unitary_single():
    rng = np.random.default_rng(6)
    U = haar_unitary(3, rng)
    assert U.shape == (3, 3)
    assert np.abs(U.conj().T @ U - np.eye(3)).max() <= 1e-12


def test_haar_dimension_one_is_a_phase():
    rng = np.random.default_rng(7)
    batch = haar_batch(1, 100, rng)
    assert np.allclose(np.abs(batch[:, 0, 0]), 1.0, atol=1e-12)


def test_haar_first_entry_second_moment():
    # E|U11|^2 = 1/d, checked within five standard errors
    for d in (2, 3, 5):
        est = estimate_moment((1,), d, 2, samples=3 * 10**4, seed=40 + d)
        exact = 1.0 / d
        assert abs(est.estimate.real - exact) <= 5 * est.stderr


def test_haar_entries_decorrelated_under_phase_convention():
    # with the phase correction the first column is isotropic:
    # E U11 conj(U21) = 0 within five standard errors
    est = estimate_monomial([1], [1], [2], [1], 3, samples=3 * 10**4, seed=11)
    assert abs(est.estimate) <= 5 * est.stderr


# ---------------------------------------------------------------------------
# immanant evaluation


def test_immanant_identity_matrix():
    assert immanant((2, 1), np.eye(3)) == pytest.approx(2.0)
    assert immanant((3,), np.eye(3)) == pytest.approx(1.0)
    assert immanant((1, 1, 1), np.eye(3)) == pytest.approx(1.0)


def test_immanant_all_ones():
    M = np.ones((3, 3))
    assert immanant((3,), M) == pytest.approx(6.0)   # permanent
    assert immanant((1, 1, 1), M) == pytest.approx(0.0)
    assert immanant((2, 1), M) == pytest.approx(0.0)


def test_immanant_diagonal():
    M = np.diag([1.0, 2.0, 3.0])
    assert immanant((1, 1, 1), M) == pytest.approx(6.0)
    assert immanant((3,), M) == pytest.approx(6.0)
    assert immanant((2, 1), M) == pytest.approx(12.0)  # 2 * product


def test_determinant_path_matches_pivoted_determinant(rng):
    for n in (2, 3, 5):
        M = np.stack([random_complex_matrix(rng, n) for _ in range(4)])
        got = immanant_batch((1,) * n, M)
        want = np.linalg.det(M)
        assert np.abs(got - want).max() <= 1e-10 * max(1, np.abs(want).max())


def test_permanent_matches_naive_sum(rng):
    # n = 8 sums its 2^7 sign vectors in two blocks
    for n in (2, 3, 4, 5, 8):
        M = np.stack([random_complex_matrix(rng, n) for _ in range(3)])
        got = permanent_batch(M)
        want = np.array([brute_permanent(m.tolist()) for m in M])
        assert np.abs(got - want).max() <= 1e-10 * max(1, np.abs(want).max())


def test_permanent_memory_is_bounded_by_the_sign_block(rng):
    # the unblocked sign sum formed (256, 2^9, 10) complex values, 20 MiB
    M = rng.standard_normal((256, 10, 10)) + 1j * rng.standard_normal((256, 10, 10))
    tracemalloc.start()
    try:
        permanent_batch(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_general_immanant_matches_naive_sum(rng):
    # includes shapes with at least two distinct part sizes, which exercise
    # the general character-sum path rather than the det/perm shortcuts
    for n in (3, 4):
        M = np.stack([random_complex_matrix(rng, n) for _ in range(3)])
        for lam in partition_list(n):
            got = immanant_batch(lam, M)
            want = np.array([brute_immanant(lam, m.tolist()) for m in M])
            assert np.abs(got - want).max() <= 1e-9 * max(
                1, np.abs(want).max()
            ), lam


def test_character_data_is_exact_per_permutation():
    # the permutation rows and characters behind the general immanant path
    # equal the scalar enumeration and cycle type, with no tolerance
    for n in range(2, 6):
        perms = list(all_permutations(n))
        for lam in partition_list(n):
            rows, chars = _char_data(lam.parts)
            assert np.array_equal(rows, [p.img for p in perms])
            assert np.array_equal(chars, [character(lam, p.cycle_type()) for p in perms])


def test_general_immanant_is_the_gather_product_bit_for_bit():
    # the gather-and-prod form the row-by-row product replaced, kept as the
    # reference; (n) and (1^n) take the permanent and determinant paths
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        M = rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n))
        for lam in partition_list(n):
            if lam.parts in ((n,), (1,) * n):
                continue
            perms, chars = _char_data(lam.parts)
            want = M[:, np.arange(n)[None, :], perms].prod(axis=2) @ chars
            assert np.array_equal(immanant_batch(lam, M), want), lam


def test_immanant_single_matrix_wrapper(rng):
    M = random_complex_matrix(rng, 3)
    got = immanant((2, 1), M)
    assert isinstance(got, complex)
    assert got == pytest.approx(immanant_batch((2, 1), M[None])[0])


def test_immanant_invariant_under_simultaneous_relabeling(rng):
    for n in (3, 4):
        M = random_complex_matrix(rng, n)
        for lam in partition_list(n):
            base = immanant(lam, M)
            for p in all_permutations(n):
                P = np.eye(n)[[p(i) - 1 for i in range(1, n + 1)]]
                relabeled = P @ M @ P.T
                assert immanant(lam, relabeled) == pytest.approx(base)


# ---------------------------------------------------------------------------
# the estimator contract


def test_estimate_fields():
    est = estimate_moment((2,), 4, 2, samples=1000, seed=1)
    assert isinstance(est, MomentEstimate)
    assert est.kind == "immanant"
    assert est.lam == Partition((2,))
    assert est.d == 4 and est.power == 2
    assert est.samples == 1000 and est.seed == 1
    assert est.stderr > 0
    assert est.real == est.estimate.real


def test_estimate_guards():
    with pytest.raises(ValueError):
        estimate_moment((2, 1), 2, 2, samples=100, seed=0)  # d < n
    with pytest.raises(ValueError):
        estimate_moment((2,), 4, 2, samples=1, seed=0)  # needs two samples


def test_estimate_matches_exact_mean():
    lam, d = (2, 1), 5
    exact = float(mean(lam).evaluate(d))
    est = estimate_moment(lam, d, 2, samples=4 * 10**4, seed=77)
    assert abs(est.estimate.real - exact) <= 5 * est.stderr
    assert abs(est.estimate.imag) <= 5 * est.stderr


def test_estimate_matches_exact_fourth_moment():
    d = 4
    exact = float(det_moment(2, 2).evaluate(d))
    est = estimate_moment((1, 1), d, 4, samples=4 * 10**4, seed=78)
    assert abs(est.estimate.real - exact) <= 5 * est.stderr


def test_seed_reproducibility_bit_for_bit():
    a = estimate_moment((2,), 3, 2, samples=5000, seed=123)
    b = estimate_moment((2,), 3, 2, samples=5000, seed=123)
    c = estimate_moment((2,), 3, 2, samples=5000, seed=124)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    assert c.estimate != a.estimate


def test_worker_count_does_not_change_the_stream():
    a = estimate_moment((2, 1), 4, 2, samples=3 * CHUNK + 17, seed=9, workers=1)
    b = estimate_moment((2, 1), 4, 2, samples=3 * CHUNK + 17, seed=9, workers=2)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def test_spawned_workers_do_not_change_the_stream(monkeypatch):
    # where fork does not exist the pool spawns its workers
    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(
        multiprocessing, "get_context",
        lambda method=None: methods.append(method) or get_context(method),
    )
    a = estimate_moment((2, 1), 4, 2, samples=2 * CHUNK + 17, seed=9, workers=1)
    b = estimate_moment((2, 1), 4, 2, samples=2 * CHUNK + 17, seed=9, workers=2)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr
    monomial = ([1, 2], [1, 3], [2, 1], [3, 1], 4)
    a = estimate_monomial(*monomial, samples=2 * CHUNK + 17, seed=9, workers=1)
    b = estimate_monomial(*monomial, samples=2 * CHUNK + 17, seed=9, workers=2)
    assert methods == ["spawn", "spawn"]
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def test_stream_contract_chunk_by_chunk():
    # each chunk c of grid row r draws haar_batch(d, k, _rng(seed, r, c), n)
    # and reads its top n x n block; chunk statistics merge in chunk order
    lam, d, power, seed, row = (2, 1), 5, 4, 31, 2
    samples = 2 * CHUNK + 100
    n_tot, mean, m2 = 0, 0.0 + 0.0j, 0.0
    for c, count in enumerate((CHUNK, CHUNK, 100)):
        u = haar_batch(d, count, _rng(seed, row, c), 3)
        vals = (np.abs(immanant_batch(lam, u[:, :3])) ** power).astype(np.complex128)
        cmean = vals.mean()
        cm2 = float((np.abs(vals - cmean) ** 2).sum())
        new_n = n_tot + count
        delta = complex(cmean) - mean
        mean = mean + delta * (count / new_n)
        m2 = m2 + cm2 + abs(delta) ** 2 * (n_tot * count / new_n)
        n_tot = new_n
    est = estimate_moment(lam, d, power, samples, seed, row=row)
    assert est.samples == n_tot == samples
    assert est.estimate == mean
    assert est.stderr == sqrt(m2 / (n_tot - 1) / n_tot)


def test_chunk_boundaries_and_counts():
    for samples in (2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5):
        est = estimate_moment((1,), 2, 2, samples=samples, seed=3)
        assert est.samples == samples


def test_stderr_shrinks_like_root_two():
    base = 2 * 10**4
    a = estimate_moment((2,), 4, 4, samples=base, seed=55)
    b = estimate_moment((2,), 4, 4, samples=2 * base, seed=56)
    ratio = a.stderr / b.stderr
    assert sqrt(2) * 0.85 <= ratio <= sqrt(2) * 1.15


def test_monomial_estimator_seed_contract():
    a = estimate_monomial([1], [1], [1], [1], 2, samples=2000, seed=4)
    b = estimate_monomial([1], [1], [1], [1], 2, samples=2000, seed=4)
    assert a.estimate == b.estimate
    with pytest.raises(ValueError):
        estimate_monomial([1], [1], [1], [1], 2, samples=1, seed=4)


@pytest.mark.parametrize(
    "rows, cols, conj_rows, conj_cols",
    [
        ([1, 2], [1], [1, 2], [1]),  # rows and cols of unequal length
        ([1], [1], [1, 2], [1]),  # conj_rows and conj_cols of unequal length
        ([0], [1], [1], [1]),  # 1-based: 0 would wrap to row d
        ([1], [1], [1], [0]),
        ([4], [1], [4], [1]),  # above d
        ([1], [1], [1], [4]),
    ],
)
def test_monomial_estimator_rejects_malformed_indices(rows, cols, conj_rows, conj_cols):
    with pytest.raises(ValueError):
        estimate_monomial(rows, cols, conj_rows, conj_cols, 3, samples=100, seed=4)


# ---------------------------------------------------------------------------
# scans


def test_moment_scan_rows_and_reproducibility():
    d_values = [3, 4, 5]
    scans = moment_scan((2, 1), d_values, 2, samples=2000, seed=21)
    assert [e.d for e in scans] == d_values
    # each grid point uses an independent, reproducible stream
    again = moment_scan((2, 1), d_values, 2, samples=2000, seed=21)
    for x, y in zip(scans, again):
        assert x.estimate == y.estimate and x.stderr == y.stderr
    # and matches the single-point estimator at the same grid row
    single = estimate_moment((2, 1), 4, 2, samples=2000, seed=21, row=1)
    assert single.estimate == scans[1].estimate


def test_scan_rows_csv_fields():
    scans = moment_scan((2, 1), [3, 4], 2, samples=500, seed=2)
    rows = scan_rows(scans)
    assert len(rows) == 2
    for r, est in zip(rows, scans):
        assert list(r) == [
            "lambda", "n", "d", "power", "samples", "seed", "estimate", "stderr",
        ]
        assert r["lambda"] == "2,1"
        assert r["n"] == 3
        assert r["d"] == est.d
        assert float(r["estimate"]) == est.estimate.real
        assert float(r["stderr"]) == est.stderr
