"""Haar sampling and Monte Carlo moment estimation.

Oracles: unitarity checked directly, the Gram-Schmidt draw checked against
LAPACK QR with the R-diagonal phase fix, the block draw's law checked
against exact Weingarten monomial integrals, immanants checked against the
naive permutation sum (conftest) and against the pivoted determinant,
estimator means checked against the exact closed forms, and the
reproducibility contract checked bit for bit.
"""

import logging
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import immom
from conftest import brute_immanant, brute_permanent, random_complex_matrix
from immom.characters import character
from immom.moments import det_moment, mean, second_moment
from immom.partitions import Partition, partition_list
from immom.sampler import (
    CHUNK,
    _TERM_BLOCK,
    MomentEstimate,
    _char_data,
    _orthonormalize,
    _rng,
    estimate_moment,
    estimate_monomial,
    haar_block,
    haar_unitary,
    immanant,
    immanant_batch,
    moment_scan,
    permanent_batch,
)
from immom.symgroup import all_permutations
from immom.weingarten import monomial_integral


# ---------------------------------------------------------------------------
# Haar unitaries


def test_haar_unitary_is_the_full_block_draw():
    # haar_unitary(d, rng) is haar_block(d, 1, rng, d)[0], drawn from the
    # same normals and leaving the generator in the same state
    for d in (1, 2, 3, 8, 64):
        rng, twin = np.random.default_rng(d), np.random.default_rng(d)
        U = haar_unitary(d, rng)
        assert U.shape == (d, d) and U.dtype == np.complex128
        assert np.array_equal(U, haar_block(d, 1, twin, d)[0])
        assert rng.bit_generator.state == twin.bit_generator.state
        assert np.abs(U.conj().T @ U - np.eye(d)).max() <= 1e-12


def test_orthonormalize_is_phase_fixed_lapack_qr():
    # the independent oracle: LAPACK's QR with each column of Q turned by the
    # phase of R's diagonal entry, which makes that diagonal positive real
    rng = np.random.default_rng(8)
    for d in (1, 2, 5, 20):
        for k in sorted({1, (d + 1) // 2, d}):
            g = rng.standard_normal((5, d, k)) + 1j * rng.standard_normal((5, d, k))
            q, r = np.linalg.qr(g)
            diag = np.einsum("...ii->...i", r)
            want = q * (diag / np.abs(diag))[:, None, :]
            got = _orthonormalize(np.ascontiguousarray(g.transpose(2, 1, 0)))
            assert np.abs(got.transpose(2, 1, 0) - want).max() <= 1e-12, (d, k)
    # nearly parallel columns: one projection leaves an overlap near 1e-8,
    # the second brings it to rounding
    g = rng.standard_normal((50, 6, 4)) + 1j * rng.standard_normal((50, 6, 4))
    g[..., 1] = g[..., 0] + 1e-7 * g[..., 1]
    q = _orthonormalize(np.ascontiguousarray(g.transpose(2, 1, 0))).transpose(2, 1, 0)
    assert np.abs(q.conj().transpose(0, 2, 1) @ q - np.eye(4)).max() <= 1e-12


def test_haar_block_shape_and_the_draw_at_d_equal_n():
    for n in (1, 2, 3, 5):
        for d in (n, n + 1, 2 * n, 3 * n, 50):
            block = haar_block(d, 7, np.random.default_rng(d), n)
            assert block.shape == (7, n, n) and block.dtype == np.complex128
            # a block of a unitary is a contraction
            assert np.linalg.norm(block, 2, axis=(1, 2)).max() <= 1 + 1e-12, (n, d)
        # at d = n, T is empty: the block is the whole unitary, the
        # orthonormalized Ginibre matrix of the first normals drawn
        block = haar_block(n, 9, _rng(4, 1, n), n)
        rng = _rng(4, 1, n)
        g = rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n))
        want = _orthonormalize(np.ascontiguousarray(g.transpose(2, 1, 0)))
        assert np.array_equal(block, want.transpose(2, 1, 0))
        assert np.abs(block.conj().transpose(0, 2, 1) @ block - np.eye(n)).max() <= 1e-12
    with pytest.raises(ValueError):
        haar_block(3, 2, np.random.default_rng(0), 4)


class _CountingRng:
    """A generator that counts the normals and gammas it hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.normals = self.gammas = 0

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        self.normals += out.size
        return out

    def standard_gamma(self, shape, size):
        out = self.rng.standard_gamma(shape, size)
        self.gammas += out.size
        return out


def test_haar_block_draws_the_same_count_for_every_large_d():
    # the cost of a block draw does not depend on d once d >= 2n: n^2
    # complex normals for G_top, n(n-1)/2 above T's diagonal, n gammas on it
    n, count = 4, 3
    for d in (2 * n, 2 * n + 1, 3 * n, 200, 10**6):
        rng = _CountingRng(d)
        haar_block(d, count, rng, n)
        assert (rng.normals, rng.gammas) == (
            count * (2 * n * n + n * (n - 1)), count * n), d
    # below 2n, T has d - n rows
    rng = _CountingRng(0)
    haar_block(n + 1, count, rng, n)
    assert (rng.normals, rng.gammas) == (count * (2 * n * n + 2 * (n - 1)), count)


@pytest.mark.parametrize("d", [3, 4, 6, 9])
def test_haar_block_law_matches_monomial_integrals(d):
    # d = n, n + 1, 2n, 3n for n = 3: T empty, one row, full, full
    n, samples = 3, 4 * 10**4
    block = haar_block(d, samples, np.random.default_rng(900 + d), n)
    monomials = {
        "|M11|^2": ([1], [1], [1], [1]),
        "|M11|^4": ([1, 1], [1, 1], [1, 1], [1, 1]),
        "M11 M22 conj(M12 M21)": ([1, 2], [1, 2], [1, 2], [2, 1]),
    }

    def product(rows, cols):
        return np.prod(block[:, np.array(rows) - 1, np.array(cols) - 1], axis=1)

    for name, (rows, cols, crows, ccols) in monomials.items():
        exact = float(monomial_integral(rows, cols, crows, ccols, d))
        vals = product(rows, cols) * np.conj(product(crows, ccols))
        stderr = np.sqrt(np.mean(np.abs(vals - vals.mean()) ** 2) / samples)
        assert abs(vals.mean() - exact) <= 5 * stderr, (name, d, vals.mean(), exact)


def test_haar_unitary_single():
    rng = np.random.default_rng(6)
    U = haar_unitary(3, rng)
    assert U.shape == (3, 3)
    assert np.abs(U.conj().T @ U - np.eye(3)).max() <= 1e-12


def test_haar_dimension_one_is_a_phase():
    rng = np.random.default_rng(7)
    batch = haar_block(1, 100, rng, 1)
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


def test_permanent_of_the_empty_matrix_is_one():
    for dtype in (np.complex128, np.float64):
        got = permanent_batch(np.zeros((3, 0, 0), dtype=dtype))
        assert got.dtype == dtype and np.array_equal(got, np.ones(3))
    assert permanent_batch(np.zeros((0, 0, 0), dtype=complex)).shape == (0,)
    assert immanant((), np.zeros((0, 0))) == 1


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


def test_permanent_values_do_not_depend_on_the_stack_layout():
    # haar_block returns a sample-innermost view; a lone sample, a leading
    # slice and a C-contiguous copy must all give the stack's values bit for
    # bit (n = 8 sums its sign vectors in two blocks)
    for n in (2, 5, 8):
        M = haar_block(10, 300, np.random.default_rng(n), n)
        want = permanent_batch(M)
        for count in (1, 2, 17, 300):
            assert np.array_equal(permanent_batch(M[:count]), want[:count]), (n, count)
            assert np.array_equal(
                permanent_batch(np.ascontiguousarray(M[:count])), want[:count]), (n, count)
        for i in (1, 150, 299):
            assert np.array_equal(permanent_batch(M[i:i + 1]), want[i:i + 1]), (n, i)


def test_general_immanant_memory_is_bounded_by_the_term_block(rng):
    # the unblocked product formed two (4096, 720) complex arrays, 90 MiB
    # at peak
    M = rng.standard_normal((CHUNK, 6, 6)) + 1j * rng.standard_normal((CHUNK, 6, 6))
    tracemalloc.start()
    try:
        immanant_batch((3, 2, 1), M)
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
    # the general immanant path keeps the permutations whose character is
    # nonzero, in the scalar enumeration's order, with those characters;
    # every permutation it drops has character 0.  No tolerance.
    for n in range(2, 6):
        perms = list(all_permutations(n))
        for lam in partition_list(n):
            rows, chars = _char_data(lam.parts)
            chi = [character(lam, p.cycle_type()) for p in perms]
            assert np.array_equal(rows, [p.img for p, c in zip(perms, chi) if c])
            assert chars.dtype == np.float64
            assert np.array_equal(chars, [c for c in chi if c])


def _first_plus_sum(terms):
    """Each row's first entry plus numpy's pairwise sum of the rest."""
    return terms[:, 0] + terms[:, 1:].sum(axis=1)


def test_general_immanant_is_the_gather_product_bit_for_bit():
    # the gather-and-prod form the row-by-row product replaced, weighted by
    # the characters and summed along the term axis, kept as the reference;
    # each sample's terms are made contiguous, and its first term is added
    # to the pairwise sum of the rest.  (n) and (1^n) take the permanent and
    # determinant paths
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        M = rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n))
        for lam in partition_list(n):
            if lam.parts in ((n,), (1,) * n):
                continue
            perms, chars = _char_data(lam.parts)
            products = M[:, np.arange(n)[None, :], perms].prod(axis=2)
            want = _first_plus_sum(np.ascontiguousarray(products) * chars)
            assert np.array_equal(immanant_batch(lam, M), want), lam


def _run_python(code, timeout=300, returncode=0, path=(), **env):
    """Run code in a fresh interpreter that imports immom from this tree and
    from the directories in path; checks its exit status and returns its
    standard output and standard error.  Past timeout seconds the run is
    killed and the test fails, so a hang cannot stall the suite."""
    src = str(Path(immom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, *map(str, path), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == returncode, done.stderr
    return done.stdout, done.stderr


def test_sample_blocks_keep_the_unblocked_values_bit_for_bit():
    # the general path runs over blocks of _TERM_BLOCK // terms samples;
    # each count below puts a block edge, or none, on either side of a
    # sample, and at count 1 the lone sample is its own block.  The
    # reference weights and sums the products of every sample at once, and
    # its gather is formed 256 samples at a time only to bound its memory;
    # each count must give the first values of the reference.
    rng = np.random.default_rng(19)
    for n in (5, 6, 7):
        shapes = [lam for lam in partition_list(n) if lam.parts not in ((n,), (1,) * n)]
        if n == 7:
            shapes = [shapes[len(shapes) // 2]]
        M = rng.standard_normal((4096, n, n)) + 1j * rng.standard_normal((4096, n, n))
        for lam in shapes:
            perms, chars = _char_data(lam.parts)
            block = _TERM_BLOCK // len(perms)
            counts = {1, 2, 17, block - 1, block, block + 1, 2 * block + 1}
            if n < 7:
                counts |= {1001, 4096}
            top = max(counts)
            products = np.concatenate([
                M[s:min(s + 256, top), np.arange(n)[None, :], perms].prod(axis=2)
                for s in range(0, top, 256)])
            want = _first_plus_sum(np.ascontiguousarray(products) * chars)
            for count in sorted(counts):
                got = immanant_batch(lam, M[:count])
                assert np.array_equal(got, want[:count]), (lam, count)


def test_values_do_not_depend_on_the_blas_thread_count():
    # every sum is a numpy reduction along the term axis, whose order does
    # not depend on the machine; a BLAS product splits its rows by the
    # thread count, which changed the last bits at counts such as 17 and 1001
    code = """
        import hashlib
        import numpy as np
        from immom.sampler import immanant_batch

        rng = np.random.default_rng(23)
        for lam in ((3, 2), (3, 2, 1), (4, 2, 1), (5,), (1,) * 5):
            n = sum(lam)
            M = rng.standard_normal((4096, n, n)) + 1j * rng.standard_normal((4096, n, n))
            for count in (1, 17, 1001, 4096):
                values = immanant_batch(lam, M[:count])
                print(lam, count, hashlib.sha256(values.tobytes()).hexdigest())
    """
    one, two = (_run_python(code, OPENBLAS_NUM_THREADS=k, OMP_NUM_THREADS=k)[0].splitlines()
                for k in ("1", "2"))
    assert len(one) == 5 * 4
    assert [a for a, b in zip(one, two) if a != b] == []


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
    with pytest.raises(ValueError, match=r"^d must be at least n = 3$"):
        estimate_moment((2, 1), 2, 2, samples=100, seed=0)
    with pytest.raises(ValueError):
        estimate_moment((2,), 4, 2, samples=1, seed=0)  # needs two samples
    # the same rule as the CLI's --workers, for the one-chunk run that
    # needs no pool as well
    for workers in (0, -1):
        with pytest.raises(ValueError, match=r"^workers must be at least 1$"):
            estimate_moment((2,), 4, 2, samples=100, seed=0, workers=workers)
        with pytest.raises(ValueError, match=r"^workers must be at least 1$"):
            estimate_monomial([1], [1], [1], [1], 2, samples=100, seed=0, workers=workers)


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


def test_estimate_at_large_d_matches_exact_fourth_moment():
    # the block draw costs the same at d = 200 as at d = 2n
    lam, d = (2, 1), 200
    exact = float(second_moment(lam).evaluate(d))
    est = estimate_moment(lam, d, 4, samples=10**5, seed=2001)
    assert abs(est.real - exact) <= 5 * est.stderr


def test_estimate_at_d_equal_n_matches_exact_fourth_moment():
    # the closed form is the moment itself at n <= d < 2n, not a continuation
    lam, d = (3, 1), 4
    exact = float(second_moment(lam).evaluate(d))
    est = estimate_moment(lam, d, 4, samples=10**5, seed=2604)
    assert abs(est.real - exact) <= 5 * est.stderr


def test_each_estimate_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="immom.sampler"):
        estimate_moment((2, 1), 6, 2, samples=CHUNK + 1, seed=5)
        estimate_monomial([1], [1], [1], [1], 3, samples=100, seed=5)
    lines = [r.getMessage() for r in caplog.records if r.name == "immom.sampler"]
    assert len(lines) == 2
    fields = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in lines]
    assert [f["kind"] for f in fields] == ["immanant", "monomial"]
    assert [(f["d"], f["samples"], f["chunks"], f["workers"]) for f in fields] == [
        ("6", str(CHUNK + 1), "2", "1"), ("3", "100", "1", "1")]
    for f in fields:
        assert float(f["seconds"]) >= 0 and float(f["samples_per_s"]) > 0
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="immom.sampler"):
        estimate_moment((2, 1), 6, 2, samples=100, seed=5)
    assert not [r for r in caplog.records if r.name == "immom.sampler"]


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
    # each chunk c of grid row r draws haar_block(d, k, _rng(seed, r, c), n),
    # the top n x n blocks; chunk statistics merge in chunk order
    lam, d, power, seed, row = (2, 1), 5, 4, 31, 2
    samples = 2 * CHUNK + 100
    n_tot, mean, m2 = 0, 0.0 + 0.0j, 0.0
    for c, count in enumerate((CHUNK, CHUNK, 100)):
        u = haar_block(d, count, _rng(seed, row, c), 3)
        vals = (np.abs(immanant_batch(lam, u)) ** power).astype(np.complex128)
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


def test_monomial_indices_are_relabelled_onto_the_top_left_block():
    # rows and columns are relabelled separately, each to 1, 2, ..., so
    # |U[7,4]|^2 draws exactly the stream of |U[1,1]|^2
    a = estimate_monomial([7], [4], [7], [4], 9, samples=CHUNK + 50, seed=12)
    b = estimate_monomial([1], [1], [1], [1], 9, samples=CHUNK + 50, seed=12)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_monomial_with_spread_indices_matches_the_exact_integral():
    # U[2,5] U[7,3] conj(U[2,3] U[7,5]) at d = 7: rows {2, 7} and columns
    # {3, 5} land on a 2 x 2 block with the pairing of the monomial kept
    rows, cols, conj_rows, conj_cols, d = [2, 7], [5, 3], [2, 7], [3, 5], 7
    exact = float(monomial_integral(rows, cols, conj_rows, conj_cols, d))
    assert exact < 0
    est = estimate_monomial(rows, cols, conj_rows, conj_cols, d, samples=10**5, seed=707)
    assert abs(est.estimate - exact) <= 5 * est.stderr, (est.estimate, exact)


_get_context = multiprocessing.get_context
_FORK = "fork" in multiprocessing.get_all_start_methods()


class _CountingContext:
    """A multiprocessing context that counts the worker processes a pool
    starts and hands everything else to the real context."""

    def __init__(self, method):
        self.context = _get_context(method)
        self.processes = 0

    def __getattr__(self, name):
        return getattr(self.context, name)

    def Process(self, *args, **kwargs):
        self.processes += 1
        return self.context.Process(*args, **kwargs)


@pytest.fixture
def contexts(monkeypatch):
    """Every context a pool asks for, each counting its worker processes;
    a forked pool starts all of them at once."""
    if not _FORK:
        pytest.skip("counts the workers of a forked pool")
    made = []
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: made.append(_CountingContext(method)) or made[-1])
    return made


def test_pool_has_no_more_workers_than_chunks(contexts, caplog):
    serial = estimate_moment((2, 1), 4, 2, samples=3 * CHUNK + 17, seed=9)
    with caplog.at_level(logging.DEBUG, logger="immom.sampler"):
        pooled = estimate_moment((2, 1), 4, 2, samples=3 * CHUNK + 17, seed=9, workers=64)
        # one chunk needs no pool at all
        estimate_moment((2, 1), 4, 2, samples=100, seed=9, workers=64)
    assert [c.processes for c in contexts] == [4]
    assert pooled.estimate == serial.estimate and pooled.stderr == serial.stderr
    # the DEBUG line gives the workers that ran, not the workers asked for
    logged = [re.search(r"workers=(\d+)", r.getMessage())[1]
              for r in caplog.records if r.name == "immom.sampler"]
    assert logged == ["4", "1"]


@pytest.mark.skipif(not _FORK, reason="only forked workers inherit modules")
def test_pool_workers_inherit_numpy_random():
    # import immom leaves numpy.random unloaded, which keeps it out of every
    # import; the parent loads it just before it forks a pool, so that the
    # workers inherit it instead of each loading it on its first chunk
    out, _ = _run_python("""
        import multiprocessing
        import sys

        import immom
        from immom.sampler import CHUNK, estimate_moment

        print("numpy.random" in sys.modules)
        fork = multiprocessing.get_context("fork")

        class Context:
            def __getattr__(self, name):
                return getattr(fork, name)

            def Process(self, *args, **kwargs):
                print("numpy.random" in sys.modules, flush=True)
                return fork.Process(*args, **kwargs)

        multiprocessing.get_context = lambda method=None: Context()
        estimate_moment((2, 1), 4, 2, samples=CHUNK + 1, seed=9, workers=2)
    """, timeout=60)
    assert out.split() == ["False", "True", "True"]


_DYING_TASK = """
    import os


    def square(x, dies):
        if x == dies:
            os._exit(1)
        return x * x
"""


@pytest.mark.parametrize("method", [
    pytest.param("fork", marks=pytest.mark.skipif(not _FORK, reason="no fork here")), "spawn"])
def test_a_dead_worker_ends_pool_map_with_an_error(method, tmp_path):
    # multiprocessing.Pool replaced the dead worker, lost its task and
    # waited for it forever; the timeout turns such a hang into a failure
    (tmp_path / "dying.py").write_text(textwrap.dedent(_DYING_TASK))
    out, _ = _run_python(f"""
        import multiprocessing
        import time

        import dying
        from immom.sampler import pool_map

        multiprocessing.get_all_start_methods = lambda: [{method!r}]
        assert pool_map(dying.square, [(x, -1) for x in range(6)], 2) == [0, 1, 4, 9, 16, 25]
        t0 = time.perf_counter()
        try:
            pool_map(dying.square, [(x, 3) for x in range(6)], 2)
        except ChildProcessError as exc:
            print(f"{{time.perf_counter() - t0:.2f}}")
            print(exc)
    """, timeout=60, path=[tmp_path])
    seconds, message = out.splitlines()
    assert float(seconds) < 30
    first = int(re.search(r"before task (\d+) of 6 returned \(2 workers\)", message)[1])
    assert first <= 3
    assert "lack of memory" in message


def test_a_dead_worker_makes_the_cli_exit_with_status_three():
    out, err = _run_python("""
        import os
        import sys

        from immom import cli, sampler

        chunk_stats = sampler._chunk_stats


        def chunk_stats_or_exit(task, chunk, count):
            if chunk == 1:
                os._exit(1)
            return chunk_stats(task, chunk, count)


        sampler._chunk_stats = chunk_stats_or_exit
        sys.exit(cli.main(["sample", "2,1", "--d", "4:5", "--samples", "9000",
                           "--workers", "2"]))
    """, timeout=60, returncode=3)
    assert out == ""
    assert re.fullmatch(r"error: a worker process died before task \d of 6 returned "
                        r"\(2 workers\), likely killed for lack of memory\n", err)


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


def test_a_scan_runs_every_point_on_one_pool(contexts, caplog):
    # three points of two chunks each share one executor of four workers,
    # and each point keeps the stream of its single-point estimate
    d_values = [3, 5, 8]
    with caplog.at_level(logging.DEBUG, logger="immom.sampler"):
        scans = moment_scan((2, 1), d_values, 4, samples=CHUNK + 50, seed=13, workers=4)
    assert [c.processes for c in contexts] == [4]
    singles = [estimate_moment((2, 1), d, 4, samples=CHUNK + 50, seed=13, row=row)
               for row, d in enumerate(d_values)]
    assert [(e.d, e.samples, e.estimate, e.stderr) for e in scans] == [
        (e.d, e.samples, e.estimate, e.stderr) for e in singles]
    lines = [r.getMessage() for r in caplog.records if r.name == "immom.sampler"]
    assert len(lines) == 1
    fields = dict(re.findall(r"(\w+)=(\S+)", lines[0]))
    assert (fields["d"], fields["samples"], fields["chunks"], fields["workers"]) == (
        "3,5,8", str(3 * (CHUNK + 50)), "6", "4")
