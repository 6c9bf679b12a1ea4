import numpy as np
import pytest

from liftkit import partial_svd
from liftkit.metric import EuclideanMetric, ReweightedMetric, SobolevMetric, orthonormalize
from liftkit.partial_svd import (
    BidiagonalSystem,
    _certified_cut,
    augmented_restart,
    estimate_operator_norm,
    lanczos_bidiagonalize,
    ritz_factorize,
    subspace_iterate,
)

from helpers import (
    DenseMetric,
    dense_weighted_evd,
    dense_weighted_svd,
    metric_sqrt,
    oracle_from_dense,
    random_complex,
    random_spd_metric,
)


def euclid_oracle(w):
    n2, n1 = w.shape
    return oracle_from_dense(w, EuclideanMetric(n1), EuclideanMetric(n2))


class TestSubspaceIterate:
    def test_diagonal_matrix(self):
        out = subspace_iterate(euclid_oracle(np.diag([3.0, 2.0, 1.0])), 2, 1e-10)
        assert out.converged
        assert np.allclose(out.values, [3.0, 2.0], atol=1e-9)

    def test_one_dimensional_weighted(self):
        m1 = DenseMetric(np.array([[4.0]]))
        m2 = DenseMetric(np.array([[1.0]]))
        out = subspace_iterate(oracle_from_dense(np.array([[2.0]]), m1, m2), 1, 1e-12)
        assert out.converged
        assert out.values[0] == pytest.approx(4.0, abs=1e-10)
        assert abs(out.right_vectors[0, 0]) == pytest.approx(0.5, abs=1e-10)
        assert abs(out.left_vectors[0, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_random_weighted_matches_dense(self):
        rng = np.random.default_rng(0)
        w = random_complex(rng, 600).reshape(30, 20)
        m1 = random_spd_metric(rng, 20)
        m2 = random_spd_metric(rng, 30)
        out = subspace_iterate(oracle_from_dense(w, m1, m2), 3, 1e-11, rng=rng)
        sig, _, _ = dense_weighted_svd(w, m1.to_dense(), m2.to_dense())
        assert out.converged
        assert np.allclose(out.values[:3], sig[:3], rtol=1e-8)

    def test_zero_operator(self):
        out = subspace_iterate(euclid_oracle(np.zeros((4, 3))), 2, 1e-8)
        assert out.converged
        assert out.count == 0 and out.exact
        assert np.allclose(out.values, 0.0)

    def test_hermitian_signed_values_match_dense(self):
        # the three values of largest modulus, two of them of one sign,
        # come back as signed eigenpairs, largest first
        rng = np.random.default_rng(3)
        n = 12
        m = random_spd_metric(rng, n)
        _, inv_root = metric_sqrt(m.to_dense())
        q, _ = np.linalg.qr(random_complex(rng, n * n).reshape(n, n))
        lam = np.concatenate([[4.0, -3.0, 2.0], rng.uniform(-0.5, 0.5, size=n - 3)])
        w = inv_root @ (q * lam) @ q.conj().T @ inv_root.conj().T
        out = subspace_iterate(oracle_from_dense(w, m, m), 3, 1e-11, rng=rng, hermitian=True)
        ref, vecs = dense_weighted_evd(w, m.to_dense())
        assert out.converged
        assert np.allclose(out.values, [4.0, 2.0, -3.0], atol=1e-9)
        assert np.allclose(out.values, ref[[0, 1, -1]], atol=1e-9)
        assert out.right_vectors is out.left_vectors
        h = m.to_dense()
        for j, col in enumerate((0, 1, n - 1)):
            overlap = vecs[:, col].conj() @ h @ out.right_vectors[:, j]
            assert abs(overlap) == pytest.approx(1.0, abs=1e-8)

    def test_max_sweeps_flag(self):
        rng = np.random.default_rng(1)
        w = random_complex(rng, 400).reshape(20, 20)
        out = subspace_iterate(euclid_oracle(w), 2, 1e-14, max_sweeps=2, rng=rng)
        assert not out.converged

    def test_monotone_underestimation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n1 = int(rng.integers(4, 10))
            n2 = int(rng.integers(4, 10))
            w = random_complex(rng, n1 * n2).reshape(n2, n1)
            m1 = random_spd_metric(rng, n1)
            m2 = random_spd_metric(rng, n2)
            out = subspace_iterate(oracle_from_dense(w, m1, m2), 3, 1e-10, rng=rng)
            sig, _, _ = dense_weighted_svd(w, m1.to_dense(), m2.to_dense())
            prev = None
            for sweep_vals in out.sweep_history:
                for m, val in enumerate(sweep_vals):
                    assert val <= sig[m] + 1e-10
                if prev is not None and len(prev) == len(sweep_vals):
                    assert np.all(sweep_vals >= prev - 1e-10)
                prev = sweep_vals


class TestLanczos:
    def test_identity_single_column(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        fac = lanczos_bidiagonalize(euclid_oracle(np.eye(2)), e0, 1)
        assert fac.system.diag[0] == pytest.approx(1.0)
        assert np.allclose(fac.right_basis[:, 0], e0)
        assert np.allclose(fac.left_basis[:, 0], e0)

    def test_diag_exact_after_ritz(self):
        rng = np.random.default_rng(3)
        start = random_complex(rng, 2)
        fac = lanczos_bidiagonalize(euclid_oracle(np.diag([3.0, 1.0])), start, 2)
        out = ritz_factorize(fac.system, fac.right_basis, fac.left_basis, fac.gamma_last)
        assert np.allclose(np.sort(out.values)[::-1], [3.0, 1.0], atol=1e-10)

    def test_rank_one_breakdown(self):
        # starting inside the invariant subspace stops after one column
        rng = np.random.default_rng(4)
        u = random_complex(rng, 5)
        v = random_complex(rng, 6)
        w = np.outer(v, u.conj())
        fac = lanczos_bidiagonalize(euclid_oracle(w), u, 2)
        assert fac.exact
        assert fac.system.diag.shape[0] == 1
        sig0 = np.linalg.norm(w, 2)
        assert fac.system.diag[0] == pytest.approx(sig0, rel=1e-12)

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            lanczos_bidiagonalize(euclid_oracle(np.eye(2)), np.zeros(2, dtype=complex), 2)

    def test_matches_list_reference(self):
        rng = np.random.default_rng(20)
        w = random_complex(rng, 9 * 8).reshape(9, 8)
        m1 = random_spd_metric(rng, 8)
        m2 = random_spd_metric(rng, 9)
        start = random_complex(rng, 8)
        fac = lanczos_bidiagonalize(oracle_from_dense(w, m1, m2), start, 6)
        es, fs, betas, gammas = list_bidiagonalize(w, m1.to_dense(), m2.to_dense(), start, 6)
        sig0 = np.linalg.norm(w, 2)
        assert np.allclose(fac.right_basis, es, atol=1e-10)
        assert np.allclose(fac.left_basis, fs, atol=1e-10)
        assert np.allclose(fac.system.diag, betas, atol=1e-10 * sig0)
        assert np.allclose(fac.system.superdiag, gammas, atol=1e-10 * sig0)

    def test_projected_system_matches_actions(self):
        rng = np.random.default_rng(5)
        w = random_complex(rng, 56).reshape(8, 7)
        m1 = random_spd_metric(rng, 7)
        m2 = random_spd_metric(rng, 8)
        fac = lanczos_bidiagonalize(oracle_from_dense(w, m1, m2), random_complex(rng, 7), 5)
        e_mat = fac.right_basis
        f_mat = fac.left_basis
        projected = f_mat.conj().T @ m2.to_dense() @ w @ m1.to_dense() @ e_mat
        sig0 = np.linalg.norm(w, 2)
        assert np.allclose(projected, fac.system.to_dense(), atol=1e-8 * sig0)


def list_bidiagonalize(w, h1, h2, start, k):
    """Golub-Kahan with CGS2 over Python lists of basis vectors, the form the
    engine had before its bases moved into preallocated arrays."""

    def project(vec, basis, h):
        for _ in range(2):
            for b in basis:
                vec = vec - np.vdot(h @ b, vec) * b
        return vec

    def norm(vec, h):
        return np.sqrt(np.real(np.vdot(vec, h @ vec)))

    es, fs, betas, gammas = [], [], [], []
    p, gamma = start / norm(start, h1), 1.0
    for _ in range(k):
        e = project(p / gamma, es, h1)
        es.append(e / norm(e, h1))
        q = w @ (h1 @ es[-1])
        if fs:
            q = q - gamma * fs[-1]
            gammas.append(gamma)
        q = project(q, fs, h2)
        betas.append(norm(q, h2))
        fs.append(q / betas[-1])
        p = w.conj().T @ (h2 @ fs[-1]) - betas[-1] * es[-1]
        gamma = norm(p, h1)
    return np.stack(es, axis=1), np.stack(fs, axis=1), np.array(betas), np.array(gammas)


class TestRitzFactorize:
    def test_single_entry(self):
        sys = BidiagonalSystem(diag=[2.5], superdiag=[])
        basis = np.ones((3, 1), dtype=complex) / np.sqrt(3)
        out = ritz_factorize(sys, basis, basis)
        assert out.values[0] == pytest.approx(2.5)

    def test_block_diagonal(self):
        sys = BidiagonalSystem(diag=[3.0, 1.0], superdiag=[0.0])
        basis = np.eye(2, dtype=complex)
        out = ritz_factorize(sys, basis, basis)
        assert np.allclose(out.values, [3.0, 1.0])

    def test_random_bidiagonal_vs_dense(self):
        rng = np.random.default_rng(6)
        diag = rng.uniform(0.5, 2.0, size=5)
        sup = rng.uniform(0.0, 1.0, size=4)
        sys = BidiagonalSystem(diag=diag, superdiag=sup)
        out = ritz_factorize(sys, np.eye(5, dtype=complex), np.eye(5, dtype=complex))
        dense = np.diag(diag) + np.diag(sup, 1)
        assert np.allclose(out.values, np.linalg.svd(dense, compute_uv=False), atol=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            BidiagonalSystem(diag=[-1.0], superdiag=[])


class TestAugmentedRestart:
    def test_diag_five(self):
        rng = np.random.default_rng(3)
        out = augmented_restart(
            euclid_oracle(np.diag([5.0, 4.0, 3.0, 2.0, 1.0])), 2, 4, 1e-8, rng=rng
        )
        assert out.converged
        assert np.allclose(out.values[:2], [5.0, 4.0], atol=1e-8)
        assert out.restarts <= 5

    def test_rank_one_first_pass(self):
        rng = np.random.default_rng(8)
        u = random_complex(rng, 6)
        v = random_complex(rng, 4)
        w = np.outer(v, u.conj())
        out = augmented_restart(euclid_oracle(w), 1, 2, 1e-10, rng=rng)
        assert out.converged
        assert out.restarts == 0
        sig0 = np.linalg.norm(w, 2)
        assert out.values[0] == pytest.approx(sig0, rel=1e-10)

    def test_agrees_with_subspace_engine(self):
        rng = np.random.default_rng(9)
        w = random_complex(rng, 600).reshape(30, 20)
        m1 = random_spd_metric(rng, 20)
        m2 = random_spd_metric(rng, 30)
        sub = subspace_iterate(oracle_from_dense(w, m1, m2), 3, 1e-11, rng=rng)
        aug = augmented_restart(oracle_from_dense(w, m1, m2), 3, 8, 1e-11, rng=rng)
        assert aug.converged
        assert np.allclose(sub.values[:3], aug.values[:3], rtol=1e-7)

    def test_rank_deficient_returns_nonzero_triples(self):
        rng = np.random.default_rng(10)
        u = np.stack([random_complex(rng, 6) for _ in range(2)], axis=1)
        v = np.stack([random_complex(rng, 5) for _ in range(2)], axis=1)
        w = v @ u.conj().T
        out = augmented_restart(euclid_oracle(w), 4, 5, 1e-9, rng=rng)
        assert out.converged
        sig = np.linalg.svd(w, compute_uv=False)
        assert np.allclose(out.values[:2], sig[:2], rtol=1e-8)
        assert np.all(out.values[2:] <= 1e-8 * sig[0])

    def test_exhausted_start_continues_outside(self):
        # a start on a singular vector exhausts the Krylov space after one
        # column; the values outside it are then sought from a random direction
        w = np.diag([3.0, 2.0, 1.0, 0.5])
        e0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        fac = lanczos_bidiagonalize(euclid_oracle(w), e0, 3)
        assert fac.exact and fac.system.size == 1
        out = augmented_restart(euclid_oracle(w), 2, 3, 1e-10, rng=np.random.default_rng(19), start=e0)
        assert out.converged and not out.exact
        assert out.restarts >= 1
        assert np.allclose(out.values[:2], [3.0, 2.0], atol=1e-9)

    def test_stalled_first_pass_draws_from_the_callers_rng(self):
        # e_2 maps to zero, so the first pass stalls at its first column and
        # continues in a fresh left direction, which the caller's rng draws
        w = np.diag([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        outs = [
            augmented_restart(euclid_oracle(w), 1, 3, 1e-10, rng=np.random.default_rng(seed), start=e2)
            for seed in (1, 2)
        ]
        for out in outs:
            assert out.converged and out.values[0] == pytest.approx(1.0, abs=1e-10)
        assert not np.allclose(outs[0].left_vectors, outs[1].left_vectors)

    def test_max_restarts_flag(self):
        rng = np.random.default_rng(11)
        w = random_complex(rng, 24 * 24).reshape(24, 24)
        out = augmented_restart(euclid_oracle(w), 4, 5, 1e-12, max_restarts=1, rng=rng)
        assert not out.converged

    def test_forced_restarts_clustered_weighted(self):
        # ell=2, k=4 against a cluster of four leading values forces restarts;
        # every restarted factorization must stay metric-orthonormal
        rng = np.random.default_rng(18)
        n1, n2 = 14, 12
        m1 = random_spd_metric(rng, n1)
        m2 = random_spd_metric(rng, n2)
        h1, h2 = m1.to_dense(), m2.to_dense()
        _, ri1 = metric_sqrt(h1)
        _, ri2 = metric_sqrt(h2)
        y, _ = np.linalg.qr(random_complex(rng, n2 * n2).reshape(n2, n2))
        z, _ = np.linalg.qr(random_complex(rng, n1 * n1).reshape(n1, n1))
        values = np.array([3.0, 2.9, 2.8, 2.7, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3])
        # the weighted singular values of w are exactly ``values``
        w = ri2 @ (y * values) @ z[:, :n2].conj().T @ ri1
        sig, _, _ = dense_weighted_svd(w, h1, h2)
        start_estimate = 1.1 * sig[0]
        oracle = oracle_from_dense(w, m1, m2, norm_estimate=start_estimate)
        out = augmented_restart(oracle, 2, 4, 1e-10, rng=rng)
        assert out.converged
        assert out.restarts >= 1
        assert np.allclose(out.values[:2], sig[:2], rtol=1e-8)
        for vecs, h in ((out.right_vectors, h1), (out.left_vectors, h2)):
            gram = vecs.conj().T @ h @ vecs
            assert np.max(np.abs(gram - np.eye(out.count))) <= 1e-10
        assert out.norm_estimate >= start_estimate


def converged_prefix_cut(values, residuals, level, tol):
    """The earlier cut rule: the first converged value decisively below the
    level, reached through converged triples only."""
    for j in range(values.shape[0]):
        if residuals[j] > tol:
            return None
        if values[j] < level - tol:
            return j
    return None


class TestCertifiedCut:
    def test_accepts_every_converged_prefix_cut(self):
        rng = np.random.default_rng(30)
        earlier = 0
        certified_only = 0
        for _ in range(2000):
            size = int(rng.integers(1, 8))
            values = np.sort(rng.uniform(0.0, 1.0, size=size))[::-1]
            tol = 10.0 ** rng.uniform(-6, -2)
            # converged residuals mixed with unconverged ones up to 0.3
            residuals = np.where(
                rng.random(size) < 0.6,
                rng.uniform(0.0, tol, size=size),
                rng.uniform(tol, 0.3, size=size),
            )
            level = rng.uniform(0.0, 1.0)
            old = converged_prefix_cut(values, residuals, level, tol)
            new = _certified_cut(values, residuals, level, tol)
            if old is not None:
                earlier += 1
                assert new == old
            elif new is not None:
                certified_only += 1
                assert np.all(residuals[:new] <= tol)
                assert values[new] + residuals[new] < level - tol
        # both branches of the property were exercised
        assert earlier > 100 and certified_only > 100

    def test_unconverged_triple_before_the_cut_refuses(self):
        values = np.array([1.0, 0.6, 0.1])
        residuals = np.array([0.0, 0.05, 0.0])
        assert _certified_cut(values, residuals, 0.5, 1e-3) is None
        residuals[1] = 1e-4
        assert _certified_cut(values, residuals, 0.5, 1e-3) == 2

    def test_interval_straddling_the_level_refuses(self):
        values = np.array([1.0, 0.45])
        tol = 1e-3
        # 0.45 + 0.0495 = 0.4995 > level - tol
        assert _certified_cut(values, np.array([0.0, 0.0495]), 0.5, tol) is None
        assert _certified_cut(values, np.array([0.0, 0.0485]), 0.5, tol) == 1

    def test_unconverged_value_at_the_cut_is_accepted(self):
        values = np.array([1.0, 0.2, 0.19])
        residuals = np.array([1e-9, 0.1, 0.1])
        assert _certified_cut(values, residuals, 0.5, 1e-6) == 1

    def test_value_within_tol_of_the_level_counts_as_above(self):
        values = np.array([1.0, 0.5 - 5e-4, 0.1])
        residuals = np.zeros(3)
        assert _certified_cut(values, residuals, 0.5, 1e-3) == 2

    def test_empty_input(self):
        assert _certified_cut(np.zeros(0), np.zeros(0), 0.5, 1e-8) is None


class TestOperatorNormEstimate:
    def test_diagonal_from_below(self):
        rng = np.random.default_rng(12)
        est = estimate_operator_norm(euclid_oracle(np.diag([3.0, 1.0])), 30, rng=rng)
        assert est <= 3.0 + 1e-12
        assert est == pytest.approx(3.0, rel=1e-6)

    def test_zero_operator(self):
        assert estimate_operator_norm(euclid_oracle(np.zeros((3, 3))), 5) == 0.0

    def test_random_matrix_close(self):
        rng = np.random.default_rng(13)
        w = random_complex(rng, 15 * 12).reshape(15, 12)
        est = estimate_operator_norm(euclid_oracle(w), 50, rng=rng)
        sig0 = np.linalg.norm(w, 2)
        assert est <= sig0 + 1e-10
        assert est >= 0.99 * sig0


class TestMetricInvariance:
    @pytest.mark.parametrize("engine", ["subspace", "lanczos"])
    def test_weighted_svd_equals_transformed_euclidean(self, engine):
        rng = np.random.default_rng(14)
        for _ in range(5):
            n1 = int(rng.integers(3, 12))
            n2 = int(rng.integers(3, 12))
            w = random_complex(rng, n1 * n2).reshape(n2, n1)
            m1 = random_spd_metric(rng, n1)
            m2 = random_spd_metric(rng, n2)
            ell = min(3, n1, n2)
            if engine == "subspace":
                out = subspace_iterate(oracle_from_dense(w, m1, m2), ell, 1e-11, rng=rng)
            else:
                out = augmented_restart(
                    oracle_from_dense(w, m1, m2), ell, min(ell + 4, n1, n2), 1e-11, rng=rng
                )
            sig, right, left = dense_weighted_svd(w, m1.to_dense(), m2.to_dense())
            assert np.allclose(out.values[:ell], sig[:ell], rtol=1e-7, atol=1e-9)
            # compare the leading truncations as matrices (phases are free)
            lead = min(ell, out.count)
            approx = (out.left_vectors[:, :lead] * out.values[:lead]) @ out.right_vectors[
                :, :lead
            ].conj().T
            ref = (left[:, :lead] * sig[:lead]) @ right[:, :lead].conj().T
            gap = sig[lead - 1] - sig[lead] if lead < len(sig) else sig[lead - 1]
            if gap > 1e-3 * sig[0]:  # well-separated spectrum, truncation is unique
                assert np.linalg.norm(approx - ref) <= 1e-6 * sig[0]


class TestOrthonormalityAndCalls:
    def test_factor_orthonormality_drift(self):
        rng = np.random.default_rng(15)
        w = random_complex(rng, 18 * 14).reshape(18, 14)
        m1 = random_spd_metric(rng, 14)
        m2 = random_spd_metric(rng, 18)
        out = augmented_restart(oracle_from_dense(w, m1, m2), 4, 8, 1e-10, rng=rng)
        h1 = m1.to_dense()
        gram = out.right_vectors.conj().T @ h1 @ out.right_vectors
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_subspace_call_budget(self, hermitian):
        rng = np.random.default_rng(16)
        w = random_complex(rng, 100).reshape(10, 10)
        if hermitian:
            w = w + w.conj().T
        oracle = euclid_oracle(w)
        ell = 3
        out = subspace_iterate(oracle, ell, 1e-9, rng=rng, hermitian=hermitian)
        assert out.converged
        if hermitian:
            # 2 ell actions in the first sweep; a later sweep's images are
            # the last one's rotated actions, so it acts ell times
            assert out.sweeps > 1
            assert oracle.calls == 2 * ell + ell * (out.sweeps - 1)
        else:
            assert oracle.calls <= 2 * ell * (out.sweeps + 1)

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_subspace_metric_applies_per_sweep(self, hermitian, monkeypatch):
        # besides the actions, a column takes one apply in each
        # orthonormalization and one for its residual; the images that
        # orthonormalize computes serve the projected matrix
        rng = np.random.default_rng(18)
        n, ell = 24, 4
        m = random_spd_metric(rng, n)
        a = random_complex(rng, n * n).reshape(n, n)
        w = 0.5 * (a + a.conj().T) if hermitian else a
        h = m.to_dense()
        oracle = partial_svd.ActionOracle(
            lambda e: w @ (h @ e), lambda f: w.conj().T @ (h @ f), (n, n), (m, m)
        )
        calls = []
        apply = m.apply
        monkeypatch.setattr(m, "apply", lambda x: calls.append(1) or apply(x))
        out = subspace_iterate(oracle, ell, 1e-9, rng=rng, hermitian=hermitian)
        assert out.converged and out.sweeps > 10
        per_column = (1 if hermitian else 2) + 1
        # the start's orthonormalization, and re-applies after a projection
        # that removed most of a vector, are the slack
        assert len(calls) <= per_column * ell * out.sweeps + 2 * ell + out.sweeps
        if hermitian:
            ref, _ = dense_weighted_evd(w, h)
            ref = ref[np.argsort(-np.abs(ref))[:ell]]
            assert np.allclose(np.sort(out.values), np.sort(ref), atol=1e-8)
        else:
            ref, _, _ = dense_weighted_svd(w, h, h)
            assert np.allclose(out.values, ref[:ell], atol=1e-8)

    def test_lanczos_call_budget(self):
        rng = np.random.default_rng(17)
        w = random_complex(rng, 20 * 20).reshape(20, 20)
        oracle = euclid_oracle(w)
        ell, k = 3, 8
        out = augmented_restart(oracle, ell, k, 1e-9, rng=rng)
        assert out.converged
        assert oracle.calls <= 2 * (k + out.restarts * (k - ell + 1))


class TestStoredMetricImages:
    """Every pass keeps H e beside each basis vector e: from the apply that
    gave e its norm, or rotated with a restart's Ritz vectors.  The stored
    rows must be the metric's images of the basis rows."""

    @staticmethod
    def metric(rng, kind):
        sobolev = SobolevMetric((3, 4), (0.5, 1.0, 2.0))
        if kind == "sobolev":
            return sobolev
        directions = orthonormalize([random_complex(rng, 12) for _ in range(2)], sobolev)
        return ReweightedMetric(sobolev, np.stack(directions), np.array([0.5, 0.25]))

    @pytest.mark.parametrize("kind", ["sobolev", "reweighted"])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_rows_are_metric_images(self, kind, hermitian, monkeypatch):
        rng = np.random.default_rng(81)
        m = self.metric(rng, kind)
        a = random_complex(rng, 144).reshape(12, 12)
        w = 0.5 * (a + a.conj().T) if hermitian else a
        passes = []
        advance = partial_svd._KrylovPass.advance

        def recorded(fac, *args, **kwargs):
            advance(fac, *args, **kwargs)
            passes.append(fac)

        monkeypatch.setattr(partial_svd._KrylovPass, "advance", recorded)
        out = augmented_restart(
            oracle_from_dense(w, m, m), 2, 4, 1e-10, rng=rng, hermitian=hermitian
        )
        assert out.converged and out.restarts >= 2
        for fac in passes:
            rows = [(fac.E, fac.HE, fac.ne)]
            if not hermitian:
                rows.append((fac.F, fac.HF, fac.nf))
            for basis, images, count in rows:
                for j in range(count):
                    assert np.linalg.norm(images[j] - m.apply(basis[j])) <= 1e-12


class TestCarriedImage:
    """A new basis vector takes its metric image from the one carried with
    it, projected like the vector, unless the projection removes most of
    the vector; then the metric is applied afresh."""

    @pytest.mark.parametrize("inside, applies", [(0.3, 0), (0.8, 0), (0.95, 1)])
    def test_applies_only_after_a_large_projection(self, inside, applies, monkeypatch):
        rng = np.random.default_rng(83)
        m = random_spd_metric(rng, 8)
        fac = partial_svd._HermitianLanczos(
            oracle_from_dense(np.eye(8), m, m), rng, 4, 1.0
        )
        first = random_complex(rng, 8)
        first /= m.norm(first)
        assert fac.add_e(first, m.apply(first))
        # a unit vector with the share `inside` along the first basis vector
        other = random_complex(rng, 8)
        other = other - m.pairing(other, first) * first
        vec = inside * first + np.sqrt(1.0 - inside**2) * other / m.norm(other)
        image = m.apply(vec)
        calls = []
        apply = m.apply
        monkeypatch.setattr(m, "apply", lambda x: calls.append(1) or apply(x))
        assert fac.add_e(vec, image)
        assert len(calls) == applies
        assert np.linalg.norm(fac.HE[1] - apply(fac.E[1])) <= 1e-12
        assert abs(np.vdot(fac.E[1], apply(fac.E[1])) - 1.0) <= 1e-12


def recorded_passes(monkeypatch):
    """Patch the pass loop so that every pass state is appended to the
    returned list when it starts its columns."""
    passes = []
    advance = partial_svd._KrylovPass.advance

    def recorded(fac, *args, **kwargs):
        passes.append(fac)
        advance(fac, *args, **kwargs)

    monkeypatch.setattr(partial_svd._KrylovPass, "advance", recorded)
    return passes


def restarted_case(kind, hermitian):
    """A complex oracle, Hermitian or not, in random SPD or reweighted
    metrics, whose passes restart with ell 2 and k 4."""
    rng = np.random.default_rng(82)
    n1, n2 = (12, 12) if hermitian else (12, 14)

    def metric(n):
        spd = random_spd_metric(rng, n)
        if kind == "spd":
            return spd
        directions = orthonormalize([random_complex(rng, n) for _ in range(2)], spd)
        return ReweightedMetric(spd, np.stack(directions), np.array([0.5, 0.25]))

    m1 = metric(n1)
    m2 = m1 if hermitian else metric(n2)
    a = random_complex(rng, n2 * n1).reshape(n2, n1)
    w = 0.5 * (a + a.conj().T) if hermitian else a
    return w, m1, m2, rng


class TestRestartedProjectedSystems:
    """Every pass, restarted ones included, keeps one real projected matrix
    T: the coupling's phases are moved into the seeded rows of both bases,
    so T is the bases' projection of the oracle."""

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_every_pass_projects_the_oracle(self, kind, hermitian, monkeypatch):
        w, m1, m2, rng = restarted_case(kind, hermitian)
        passes = recorded_passes(monkeypatch)
        out = augmented_restart(
            oracle_from_dense(w, m1, m2), 2, 4, 1e-10, rng=rng, hermitian=hermitian
        )
        assert out.converged and out.restarts >= 2
        assert sum(fac.first > 0 for fac in passes) >= 2
        sig0 = np.max(np.abs(out.values))
        h1, h2 = m1.to_dense(), m2.to_dense()
        for fac in passes:
            e_mat = fac.right_basis
            if hermitian:
                projected = e_mat.conj().T @ h1 @ w @ h1 @ e_mat
                upper = np.triu(fac.T[: fac.ne, : fac.ne])
                system = upper + upper.T - np.diag(np.diag(upper))
            else:
                projected = fac.left_basis.conj().T @ h2 @ w @ h1 @ e_mat
                system = fac.system.to_dense()
            assert np.all(np.isreal(system))
            assert np.allclose(projected, system, rtol=0.0, atol=1e-8 * sig0)


class TestOneDecompositionPerColumnCount:
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_no_pass_decomposes_a_column_count_twice(self, hermitian, monkeypatch):
        # the stop check's decomposition at the last checked column is the
        # Ritz step's, so the sizes decomposed within a pass are distinct
        w, m1, m2, rng = restarted_case("spd", hermitian)
        passes = recorded_passes(monkeypatch)
        sizes = {}

        def counted(decompose):
            def wrapper(mat, *args, **kwargs):
                sizes.setdefault(len(passes), []).append(mat.shape[0])
                return decompose(mat, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        out = augmented_restart(
            oracle_from_dense(w, m1, m2), 2, 4, 1e-10, rng=rng, hermitian=hermitian
        )
        assert out.converged and out.restarts >= 2
        assert len(sizes) == len(passes)
        for per_pass in sizes.values():
            assert len(per_pass) == len(set(per_pass)), per_pass
