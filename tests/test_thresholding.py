import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from liftkit import partial_svd, thresholding
from liftkit.lowrank import FactoredTensor, HermitianFactored, carried_images
from liftkit.metric import EuclideanMetric, ReweightedMetric, SobolevMetric, orthonormalize
from liftkit.partial_svd import (
    _certified_cut,
    _random_unit,
    augmented_restart,
    lanczos_bidiagonalize,
    ritz_factorize,
)
from liftkit.solver import ReweightSettings, SolverConfig, SolverState, reweight_step
from liftkit.thresholding import ENGINES, ThresholdConfig, evt, shrink, soft, soft_plus, svt

from helpers import (
    dense_evt,
    dense_svt,
    metric_sqrt,
    oracle_from_dense,
    random_complex,
    random_spd_metric,
    tensor_norm,
)


def euclid_oracle(w):
    n2, n1 = w.shape
    return oracle_from_dense(w, EuclideanMetric(n1), EuclideanMetric(n2))


def hermitian_matrix(rng, n):
    a = random_complex(rng, n * n).reshape(n, n)
    return 0.5 * (a + a.conj().T)


def pick_threshold(rng, sig):
    """Threshold level away from every singular value (no tie cases)."""
    lo, hi = 0.2 * sig[0], 0.9 * sig[0]
    for _ in range(100):
        tau = rng.uniform(lo, hi)
        if np.min(np.abs(sig - tau)) > 1e-3 * sig[0]:
            return tau
    return 0.5 * sig[0]


class TestScalarPrimitives:
    def test_soft_examples(self):
        assert soft(2.0, 1.0) == 1.0
        assert soft(0.5, 1.0) == 0.0
        assert soft(-2.0, 1.0) == -1.0

    def test_soft_plus_examples(self):
        assert soft_plus(2.0, 1.0) == 1.0
        assert soft_plus(-2.0, 1.0) == 0.0
        assert soft_plus(1.0, 1.0) == 0.0

    def test_exhaustive_grid(self):
        ts = np.linspace(-5.0, 5.0, 101)
        taus = np.linspace(0.0, 3.0, 101)
        for tau in taus:
            got = soft(ts, tau)
            expected = np.where(ts > tau, ts - tau, np.where(ts < -tau, ts + tau, 0.0))
            assert np.array_equal(got, expected)
            got_p = soft_plus(ts, tau)
            expected_p = np.where(ts > tau, ts - tau, 0.0)
            assert np.array_equal(got_p, expected_p)

    def test_shrink_dead_zone(self):
        m = EuclideanMetric(2)
        z = np.array([0.3, 0.4], dtype=complex)
        assert np.allclose(shrink(z, 1.0, m), 0.0)

    def test_shrink_zero_level(self):
        m = EuclideanMetric(2)
        z = np.array([1.0, -2.0], dtype=complex)
        assert np.allclose(shrink(z, 0.0, m), z)

    def test_shrink_hand_value(self):
        m = EuclideanMetric(2)
        z = np.array([3.0, 4.0], dtype=complex)
        assert np.allclose(shrink(z, 2.5, m), [1.5, 2.0], atol=1e-12)

    def test_shrink_keeps_the_input_dtype(self):
        # outside the ball, on its edge and inside it, for real and complex input
        m = EuclideanMetric(2)
        for dtype in (np.float64, np.complex128):
            z = np.array([3.0, 4.0], dtype=dtype)
            for gamma in (1.0, 5.0, 6.0):
                assert shrink(z, gamma, m).dtype == dtype, (dtype, gamma)

    def test_shrink_radial_grid(self):
        rng = np.random.default_rng(0)
        m = EuclideanMetric(4)
        z = random_complex(rng, 4)
        nz = m.norm(z)
        for gamma in np.linspace(0.0, 2.0 * nz, 200):
            out = shrink(z, gamma, m)
            expected = np.zeros(4, dtype=complex) if nz <= gamma else (1 - gamma / nz) * z
            assert np.allclose(out, expected, atol=1e-12)


class TestConfig:
    def test_rejects_bad_subspace_sizes(self):
        with pytest.raises(ValueError):
            ThresholdConfig(tau=1.0, ell=5, k=5)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            ThresholdConfig(tau=-1.0)


class TestSVT:
    @pytest.mark.parametrize("engine", ["lanczos", "subspace", "dense"])
    def test_diagonal_threshold(self, engine):
        cfg = ThresholdConfig(tau=2.0, ell=1, k=3, engine=engine)
        out = svt(euclid_oracle(np.diag([3.0, 1.0, 0.5])), cfg, rng=np.random.default_rng(0))
        assert out.rank == 1
        assert out.values[0] == pytest.approx(1.0, abs=1e-9)
        dense = out.to_dense()
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(dense, expected, atol=1e-9)

    @pytest.mark.parametrize("engine", ["lanczos", "subspace", "dense"])
    def test_large_level_empty(self, engine):
        rng = np.random.default_rng(1)
        w = random_complex(rng, 30).reshape(6, 5)
        cfg = ThresholdConfig(tau=100.0, ell=2, k=4, engine=engine)
        out = svt(euclid_oracle(w), cfg, rng=rng)
        assert out.rank == 0

    def test_tiny_level_returns_argument(self):
        rng = np.random.default_rng(2)
        u = np.stack([random_complex(rng, 6) for _ in range(2)], axis=1)
        v = np.stack([random_complex(rng, 7) for _ in range(2)], axis=1)
        w = v @ u.conj().T
        cfg = ThresholdConfig(tau=1e-9, ell=2, k=4)
        out = svt(euclid_oracle(w), cfg, rng=rng)
        assert np.linalg.norm(out.to_dense() - w) <= 1e-8 * np.linalg.norm(w)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_dense_oracle_weighted(self, engine):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n1 = int(rng.integers(3, 12))
            n2 = int(rng.integers(3, 12))
            rank = int(min(5, n1, n2))
            m1 = random_spd_metric(rng, n1)
            m2 = random_spd_metric(rng, n2)
            w = random_complex(rng, n1 * n2).reshape(n2, n1)
            sig, _, _ = np.linalg.svd(w)
            from helpers import dense_weighted_svd

            sig = dense_weighted_svd(w, m1.to_dense(), m2.to_dense())[0]
            tau = pick_threshold(rng, sig)
            cfg = ThresholdConfig(tau=tau, ell=2, k=5, engine=engine, rank_cap=rank + 2)
            out = svt(oracle_from_dense(w, m1, m2), cfg, rng=rng)
            expected = dense_svt(w, m1.to_dense(), m2.to_dense(), tau)
            assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8 * max(sig[0], 1.0)

    def test_rank_adaptation_grows(self):
        # every value above the level forces growth until the terminator
        rng = np.random.default_rng(4)
        values = np.array([10.0, 9.0, 8.0, 7.0, 6.0, 0.1])
        w = np.diag(values)
        cfg = ThresholdConfig(tau=1.0, ell=1, k=2, rank_cap=6)
        out = svt(euclid_oracle(w), cfg, rng=rng)
        assert out.rank == 5
        assert np.allclose(np.sort(out.values)[::-1], values[:5] - 1.0, atol=1e-8)

    def test_nonexpansiveness(self):
        rng = np.random.default_rng(5)
        m1 = random_spd_metric(rng, 5)
        m2 = random_spd_metric(rng, 6)
        h1, h2 = m1.to_dense(), m2.to_dense()
        for _ in range(5):
            w1 = random_complex(rng, 30).reshape(6, 5)
            w2 = random_complex(rng, 30).reshape(6, 5)
            tau = 0.4
            cfg = ThresholdConfig(tau=tau, ell=2, k=5, rank_cap=5)
            s1 = svt(oracle_from_dense(w1, m1, m2), cfg, rng=rng).to_dense()
            s2 = svt(oracle_from_dense(w2, m1, m2), cfg, rng=rng).to_dense()
            lhs = tensor_norm(s1 - s2, h1, h2)
            rhs = tensor_norm(w1 - w2, h1, h2)
            assert lhs <= rhs + 1e-8


class TestEVT:
    @pytest.mark.parametrize("engine", ["lanczos", "subspace", "dense"])
    def test_indefinite_diagonal(self, engine):
        m = EuclideanMetric(2)
        w = np.diag([2.0, -3.0]).astype(complex)
        oracle = oracle_from_dense(w, m, m)
        cfg = ThresholdConfig(tau=1.0, ell=1, k=2, engine=engine)
        out = evt(oracle, cfg, rng=np.random.default_rng(0))
        assert out.rank == 1
        assert out.values[0] == pytest.approx(1.0, abs=1e-9)
        dense = out.to_dense()
        assert dense[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert abs(dense[1, 1]) <= 1e-9

    def test_psd_zero_level_identity(self):
        rng = np.random.default_rng(6)
        u = np.stack([random_complex(rng, 5) for _ in range(2)], axis=1)
        w = u @ np.diag([2.0, 1.0]) @ u.conj().T
        m = EuclideanMetric(5)
        cfg = ThresholdConfig(tau=0.0, ell=2, k=4)
        out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
        assert np.linalg.norm(out.to_dense() - w) <= 1e-8 * np.linalg.norm(w)

    @pytest.mark.parametrize("engine", ["lanczos", "subspace", "dense"])
    def test_negative_definite_empty(self, engine):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 25).reshape(5, 5)
        w = -(a @ a.conj().T) - np.eye(5)
        m = EuclideanMetric(5)
        cfg = ThresholdConfig(tau=0.5, ell=2, k=4, engine=engine)
        out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
        assert out.rank == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_dense_oracle_weighted(self, engine):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            m = random_spd_metric(rng, n)
            w = hermitian_matrix(rng, n)
            from helpers import dense_weighted_evd

            lam, _ = dense_weighted_evd(w, m.to_dense())
            tau = pick_threshold(rng, np.abs(lam)[np.argsort(-np.abs(lam))])
            cfg = ThresholdConfig(tau=tau, ell=2, k=5, engine=engine, rank_cap=n)
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
            expected = dense_evt(w, m.to_dense(), tau)
            assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8 * max(np.abs(lam[0]), 1.0)

    def test_output_is_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(3, 10))
            m = random_spd_metric(rng, n)
            w = hermitian_matrix(rng, n)
            cfg = ThresholdConfig(tau=0.3, ell=2, k=5, rank_cap=n)
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
            assert np.all(out.values > 0) or out.rank == 0
            if out.rank:
                eigs = np.linalg.eigvalsh(out.to_dense())
                assert np.min(eigs) >= -1e-10


def operator_with_factors(rng, values, m1, m2=None):
    """Operator whose values in the metrics are exactly ``values``, with its
    metric-orthonormal right and left vectors; Hermitian when m2 is None."""
    count = len(values)
    _, inv_root1 = metric_sqrt(m1.to_dense())
    z, _ = np.linalg.qr(random_complex(rng, m1.dim * m1.dim).reshape(m1.dim, m1.dim))
    right = inv_root1 @ z[:, :count]
    left = right
    if m2 is not None:
        _, inv_root2 = metric_sqrt(m2.to_dense())
        y, _ = np.linalg.qr(random_complex(rng, m2.dim * m2.dim).reshape(m2.dim, m2.dim))
        left = inv_root2 @ y[:, :count]
    return (left * np.asarray(values)) @ right.conj().T, right, left


def perturbed(rng, vecs, scale=1e-3):
    noise = [random_complex(rng, vecs.shape[0]) for _ in range(vecs.shape[1])]
    return vecs + scale * np.stack(noise, axis=1)


def hermitian_with_spectrum(rng, lam, metric):
    """Hermitian w whose eigenvalues in the metric are exactly ``lam``."""
    return operator_with_factors(rng, lam, metric)[0]


def matrix_with_spectrum(rng, sig, m1, m2):
    """n2 x n1 matrix whose singular values in the metrics are exactly ``sig``."""
    n1, n2 = m1.dim, m2.dim
    y, _ = np.linalg.qr(random_complex(rng, n2 * n2).reshape(n2, n2))
    z, _ = np.linalg.qr(random_complex(rng, n1 * n1).reshape(n1, n1))
    _, inv_root1 = metric_sqrt(m1.to_dense())
    _, inv_root2 = metric_sqrt(m2.to_dense())
    return inv_root2 @ (y[:, : len(sig)] * sig) @ z[:, : len(sig)].conj().T @ inv_root1


DELTA = 1e-8
# a tight cluster around the level 0.3 below a well-separated leading value;
# everything past the fifth value is at most 0.2 in magnitude
CLUSTER = [1.0, 0.3002, 0.3001, 0.2999, 0.2998]
# a level within tol/2 of 0.45, above (+1) or below (-1) it
NEAR = [1.0, 0.7, 0.45, 0.35, 0.3]


def near_level(sign):
    # tol = delta times the norm estimate, which is the leading value 1.0
    return 0.45 + sign * 0.5 * DELTA


class TestClusteredSpectraAtFullRankCap:
    """ell == rank_cap (the solver's default 5/5): the deflation probe that
    guards a cut for ell < rank_cap never runs, so the cut alone decides."""

    CASES = [
        ("cluster", CLUSTER, 0.3, 3),
        ("tau just above a value", NEAR, near_level(+1), 2),
        ("tau just below a value", NEAR, near_level(-1), 3),
    ]

    @staticmethod
    def config(tau, engine):
        return ThresholdConfig(tau=tau, ell=5, k=10, delta=DELTA, engine=engine, rank_cap=5)

    @staticmethod
    def check(out, expected_values, rank):
        assert out.rank == rank
        assert np.max(np.abs(np.sort(out.values)[::-1] - expected_values)) <= (
            DELTA * out.norm_estimate
        )

    @pytest.mark.parametrize("engine", ["lanczos", "subspace"])
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_evt_matches_dense(self, engine, case):
        _, top, tau, rank = case
        rng = np.random.default_rng(40)
        n = 24
        lam = np.concatenate([top, rng.uniform(-0.2, 0.2, size=n - len(top))])
        m = random_spd_metric(rng, n)
        w = hermitian_with_spectrum(rng, lam, m)
        out = evt(oracle_from_dense(w, m, m), self.config(tau, engine), rng=rng)
        expected = dense_evt(w, m.to_dense(), tau)
        self.check(out, np.sort(lam[lam > tau])[::-1] - tau, rank)
        assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8

    @pytest.mark.parametrize("engine", ["lanczos", "subspace"])
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_svt_matches_dense(self, engine, case):
        _, top, tau, rank = case
        rng = np.random.default_rng(41)
        n1, n2 = 20, 24
        sig = np.concatenate([top, np.sort(rng.uniform(0.0, 0.2, size=n1 - len(top)))[::-1]])
        m1 = random_spd_metric(rng, n1)
        m2 = random_spd_metric(rng, n2)
        w = matrix_with_spectrum(rng, sig, m1, m2)
        out = svt(oracle_from_dense(w, m1, m2), self.config(tau, engine), rng=rng)
        expected = dense_svt(w, m1.to_dense(), m2.to_dense(), tau)
        self.check(out, sig[sig > tau] - tau, rank)
        assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8


# leading values and level; the other values lie in [-0.2, 0.2] (evt) or
# [0, 0.2] (svt)
STEP_SPECTRA = {
    "separated": ([1.0, 0.7, 0.45, 0.35, 0.3], 0.4),
    "clustered": ([1.0, 0.5003, 0.5001, 0.4999, 0.4997], 0.5),
    "degenerate below the level": ([1.0, 0.6, 0.3, 0.3, 0.3], 0.45),
    "level just above a value": (NEAR, near_level(+1)),
    "level just below a value": (NEAR, near_level(-1)),
}


class TestStepRule:
    """Each Golub-Kahan pass stops at its first certified step; the results
    must still equal the dense reference."""

    @staticmethod
    def metric(rng, n, kind):
        base = random_spd_metric(rng, n)
        if kind == "spd":
            return base
        dirs = orthonormalize([random_complex(rng, n) for _ in range(3)], base)
        return ReweightedMetric(base, np.stack(dirs, axis=0), rng.uniform(0.2, 0.8, size=3))

    @pytest.mark.parametrize("kind", ["evt", "svt"])
    @pytest.mark.parametrize("spectrum", list(STEP_SPECTRA))
    def test_matches_dense(self, spectrum, kind):
        top, tau = STEP_SPECTRA[spectrum]
        hermitian = kind == "evt"
        rng = np.random.default_rng(50)
        above = [j for j in range(len(top)) if top[j] > tau]
        starts = {"cold": None, "warm": above, "warm missing one": [j for j in above if j != 1]}
        cases = itertools.product(("spd", "reweighted"), starts, (5, 2), range(3))
        for metric_kind, start, ell, draw in cases:
            n1 = 24 if hermitian else 20
            m1 = self.metric(rng, n1, metric_kind)
            if hermitian:
                m2 = m1
                rest = rng.uniform(-0.2, 0.2, size=n1 - len(top))
            else:
                m2 = self.metric(rng, 24, metric_kind)
                rest = np.sort(rng.uniform(0.0, 0.2, size=n1 - len(top)))[::-1]
            values = np.concatenate([top, rest])
            w, right, left = operator_with_factors(rng, values, m1, None if hermitian else m2)
            warm = None
            keep = starts[start]
            if keep is not None:
                warm_values = values[keep] - tau
                if hermitian:
                    warm = HermitianFactored(perturbed(rng, right[:, keep]), warm_values)
                else:
                    warm = FactoredTensor(
                        perturbed(rng, right[:, keep]), perturbed(rng, left[:, keep]), warm_values
                    )
            cfg = ThresholdConfig(tau=tau, ell=ell, k=10, delta=DELTA, rank_cap=5)
            oracle = oracle_from_dense(w, m1, m2)
            if hermitian:
                out = evt(oracle, cfg, rng=rng, warm_start=warm)
                expected = dense_evt(w, m1.to_dense(), tau)
            else:
                out = svt(oracle, cfg, rng=rng, warm_start=warm)
                expected = dense_svt(w, m1.to_dense(), m2.to_dense(), tau)
            err = np.max(np.abs(out.to_dense() - expected))
            assert err <= 1e-8, (
                f"{metric_kind} metric, {start} start, ell={ell}, draw {draw}: {err:.2e}"
            )

    def test_probe_after_an_unconverged_cut(self):
        # a warm start missing 0.5003 lets a short pass cut at an unconverged
        # triple; the probe behind the cut must still find the hidden values
        top, tau = STEP_SPECTRA["clustered"]
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m1, m2 = random_spd_metric(rng, 20), random_spd_metric(rng, 24)
            rest = np.sort(rng.uniform(0.0, 0.2, size=20 - len(top)))[::-1]
            w, right, left = operator_with_factors(rng, np.concatenate([top, rest]), m1, m2)
            keep = [0, 2]
            warm = FactoredTensor(
                perturbed(rng, right[:, keep]), perturbed(rng, left[:, keep]),
                np.asarray(top)[keep] - tau,
            )
            cfg = ThresholdConfig(tau=tau, ell=2, k=10, delta=DELTA, rank_cap=5)
            out = svt(oracle_from_dense(w, m1, m2), cfg, rng=rng, warm_start=warm)
            expected = dense_svt(w, m1.to_dense(), m2.to_dense(), tau)
            assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8, seed

    def test_cold_pass_holds_ell_plus_one_columns(self):
        # sigma_1 = 1 is above the level, but from some of these random
        # starts a one-column pass would already certify nothing above it
        rng = np.random.default_rng(51)
        n1, n2, ell, tau = 48, 56, 3, 0.9
        m1, m2 = random_spd_metric(rng, n1), random_spd_metric(rng, n2)
        values = np.concatenate([[1.0], rng.uniform(0.0, 0.6, size=n1 - 1)])
        w, _, _ = operator_with_factors(rng, values, m1, m2)
        certifiable = 0
        for seed in range(20):
            start = _random_unit(np.random.default_rng(seed), n1, m1)
            one = lanczos_bidiagonalize(oracle_from_dense(w, m1, m2), start, 1)
            first = ritz_factorize(one.system, one.right_basis, one.left_basis, one.gamma_last)
            tol = DELTA * first.values[0]
            certifiable += _certified_cut(first.values, first.residuals, tau, tol) is not None
            oracle = oracle_from_dense(w, m1, m2)
            out = augmented_restart(
                oracle, ell, 10, DELTA, rng=np.random.default_rng(seed), stop_below=tau
            )
            assert out.count >= ell + 1
            assert oracle.calls >= 2 * (ell + 1)
        assert certifiable > 0

    def test_restart_after_exhaustion_holds_ell_plus_one_columns(self):
        # the start spans an invariant space holding 1.0 only; 0.95 lies
        # outside it, so a random restart must build ell + 1 columns first
        rng = np.random.default_rng(54)
        n1, n2, ell, tau = 48, 56, 5, 0.9
        m1, m2 = random_spd_metric(rng, n1), random_spd_metric(rng, n2)
        values = np.concatenate([[1.0, 0.95], rng.uniform(0.0, 0.6, size=n1 - 2)])
        w, right, _ = operator_with_factors(rng, values, m1, m2)
        for seed in range(10):
            out = augmented_restart(
                oracle_from_dense(w, m1, m2), ell, 10, DELTA,
                rng=np.random.default_rng(seed), start=right[:, 0], stop_below=tau,
            )
            assert out.restarts >= 1 and not out.exact
            assert out.count >= ell + 1
            assert out.values[1] == pytest.approx(0.95, abs=1e-8)

    def test_warm_pass_stops_before_the_cap(self):
        rng = np.random.default_rng(52)
        n, tau = 40, 0.3
        m = random_spd_metric(rng, n)
        values = np.concatenate([[1.0, 0.6], rng.uniform(-0.1, 0.1, size=n - 2)])
        w, right, _ = operator_with_factors(rng, values, m)
        warm = HermitianFactored(perturbed(rng, right[:, :2]), values[:2] - tau)
        cfg = ThresholdConfig(tau=tau, ell=5, k=10, delta=DELTA, rank_cap=5)
        oracle = oracle_from_dense(w, m, m)
        out = evt(oracle, cfg, rng=rng, warm_start=warm)
        assert out.rank == 2
        assert oracle.calls < 2 * cfg.k
        assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), tau))) <= 1e-8


class TestInvariantKrylovSpace:
    """A warm start inside an invariant subspace spans an exhausted Krylov
    space; the value 0.8 outside it is above the level and must be kept."""

    @staticmethod
    def problem(hermitian):
        rng = np.random.default_rng(53)
        n = 64
        rest = rng.uniform(-0.3, 0.3, size=n - 2) if hermitian else rng.uniform(0.0, 0.3, size=n - 2)
        m = EuclideanMetric(n)
        w, right, left = operator_with_factors(
            rng, np.concatenate([[1.0, 0.8], rest]), m, None if hermitian else m
        )
        return w, m, right[:, :1], left[:, :1]

    @pytest.mark.parametrize("ell", [5, 2])
    def test_evt_matches_dense(self, ell):
        w, m, right, _ = self.problem(hermitian=True)
        cfg = ThresholdConfig(tau=0.5, ell=ell, k=10, rank_cap=5)
        warm = HermitianFactored(right, np.array([1.0]))
        out = evt(oracle_from_dense(w, m, m), cfg, rng=np.random.default_rng(0), warm_start=warm)
        assert out.rank == 2
        assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), 0.5))) <= 1e-8

    @pytest.mark.parametrize("ell", [5, 2])
    def test_svt_matches_dense(self, ell):
        w, m, right, left = self.problem(hermitian=False)
        cfg = ThresholdConfig(tau=0.5, ell=ell, k=10, rank_cap=5)
        warm = FactoredTensor(right, left, np.array([1.0]))
        out = svt(oracle_from_dense(w, m, m), cfg, rng=np.random.default_rng(0), warm_start=warm)
        assert out.rank == 2
        expected = dense_svt(w, m.to_dense(), m.to_dense(), 0.5)
        assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8


class TestStartBelowLevel:
    """A start in directions below the level must not certify that nothing is
    above it: a pass cuts at index 0 only once it holds ell + 1 columns, and a
    growth step starts from the Ritz vectors of the values above zero.  With
    ell == rank_cap no probe runs behind the cut."""

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_evt_warm_on_negative_eigenvector(self, kind, noise):
        rng = np.random.default_rng(73)
        for draw in range(3):
            w, m, lam, right = TestHermitianPass.problem(rng, kind, top=[-3.0, 1.0, 0.7])
            start = HermitianFactored(perturbed(rng, right[:, :1], noise), np.array([3.0]))
            cfg = ThresholdConfig(tau=0.5, ell=2, k=10, delta=DELTA, rank_cap=2)
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng, warm_start=start)
            assert out.rank == 2, draw
            assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), 0.5))) <= 1e-8

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_svt_warm_on_small_singular_pair(self, kind, noise):
        rng = np.random.default_rng(74)
        n = 24
        for draw in range(3):
            m1, m2 = TestStepRule.metric(rng, n, kind), TestStepRule.metric(rng, n, kind)
            sig = np.concatenate([[1.0, 0.7, 0.1], rng.uniform(0.0, 0.05, size=n - 3)])
            w, right, left = operator_with_factors(rng, sig, m1, m2)
            start = FactoredTensor(
                perturbed(rng, right[:, 2:3], noise), perturbed(rng, left[:, 2:3], noise),
                np.array([0.1]),
            )
            cfg = ThresholdConfig(tau=0.5, ell=2, k=10, delta=DELTA, rank_cap=2)
            out = svt(oracle_from_dense(w, m1, m2), cfg, rng=rng, warm_start=start)
            assert out.rank == 2, draw
            expected = dense_svt(w, m1.to_dense(), m2.to_dense(), 0.5)
            assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    def test_evt_growth_past_negative_value(self, kind):
        # ell 2 grows to the cap 4 with a warm start from the first result,
        # whose Ritz pairs include the -3 one
        rng = np.random.default_rng(110)
        for draw in range(8):
            top = [1.0, 0.9, 0.8, 0.7, -3.0]
            w, m, lam, right = TestHermitianPass.problem(rng, kind, top=top)
            cfg = ThresholdConfig(tau=0.5, ell=2, k=10, delta=DELTA, rank_cap=4)
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
            assert out.rank == 4, draw
            assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), 0.5))) <= 1e-8

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    def test_evt_subspace_start_crowded_by_negative_values(self, kind):
        # the five values of largest modulus are negative, so the first
        # subspace holds nothing above the level; the probe behind its cut
        # finds the 1.0 and the growth to the cap keeps it
        rng = np.random.default_rng(111)
        for draw in range(3):
            top = [1.0, -5.0, -4.0, -3.0, -2.0, -1.5]
            w, m, _, _ = TestHermitianPass.problem(rng, kind, top=top)
            cfg = ThresholdConfig(
                tau=0.5, ell=5, k=10, delta=DELTA, engine="subspace", rank_cap=10
            )
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
            assert out.rank == 1, draw
            assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), 0.5))) <= 1e-8


class TestGrowthToCap:
    """ell 2 grows to the cap 4 from a warm start built from the values it
    found; at small k that pass can cut past a value its Krylov space
    missed, so the first cut after a growth step is probed even at the cap."""

    TOP = [1.0, 0.9, 0.8, 0.7]
    CASES = list(itertools.product(range(3, 7), range(5)))

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    def test_evt_matches_dense(self, kind):
        rng = np.random.default_rng(120)
        for k, draw in self.CASES:
            w, m, _, _ = TestHermitianPass.problem(rng, kind, top=self.TOP)
            cfg = ThresholdConfig(tau=0.5, ell=2, k=k, delta=DELTA, rank_cap=4)
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
            assert out.rank == 4, (k, draw)
            assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), 0.5))) <= 1e-8

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    def test_svt_matches_dense(self, kind):
        rng = np.random.default_rng(121)
        for k, draw in self.CASES:
            m1, m2 = TestStepRule.metric(rng, 20, kind), TestStepRule.metric(rng, 24, kind)
            sig = np.concatenate([self.TOP, np.sort(rng.uniform(0.0, 0.2, size=16))[::-1]])
            w, _, _ = operator_with_factors(rng, sig, m1, m2)
            cfg = ThresholdConfig(tau=0.5, ell=2, k=k, delta=DELTA, rank_cap=4)
            out = svt(oracle_from_dense(w, m1, m2), cfg, rng=rng)
            assert out.rank == 4, (k, draw)
            expected = dense_svt(w, m1.to_dense(), m2.to_dense(), 0.5)
            assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8

class TestThresholdStatistics:
    """svt and evt carry the same statistics under every engine: the summed
    restarts, a nonnegative norm estimate and the oracle calls of this call."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("hermitian", [False, True], ids=["svt", "evt"])
    def test_statistics_attached(self, engine, hermitian):
        rng = np.random.default_rng(61)
        n = 12
        m1 = random_spd_metric(rng, n)
        # the largest magnitude is a negative eigenvalue, so the norm is not lam[0]
        values = [-2.0, 1.0, 0.7, 0.5, 0.3, 0.2, 0.1, -0.1, 0.05, -0.05, 0.01, 0.0]
        m2 = m1 if hermitian else random_spd_metric(rng, n)
        w = operator_with_factors(rng, values, m1, None if hermitian else m2)[0]
        oracle = oracle_from_dense(w, m1, m2)
        for _ in range(3):
            oracle.right(random_complex(rng, n))
            oracle.left(random_complex(rng, n))
        used = oracle.calls
        cfg = ThresholdConfig(tau=0.4, ell=2, k=4, engine=engine, rank_cap=6)
        out = (evt if hermitian else svt)(oracle, cfg, rng=rng)
        assert out.actions == oracle.calls - used > 0
        assert isinstance(out.restarts, int) and out.restarts >= 0
        assert out.norm_estimate >= 0
        if engine == "dense":
            assert out.norm_estimate == pytest.approx(2.0, rel=1e-10)

    # the subspace engine may cut after one sweep from a random start, where
    # theta + r bounds some eigenvalue, not always the leading one
    @pytest.mark.parametrize("engine", ["lanczos", "dense"])
    @pytest.mark.parametrize("hermitian", [False, True], ids=["svt", "evt"])
    def test_an_empty_result_certifies_its_leading_value(self, engine, hermitian):
        # the certificate bounds the leading value (eigenvalue for evt,
        # singular value for svt) from above and stays below the level
        rng = np.random.default_rng(62)
        n = 12
        m1 = random_spd_metric(rng, n)
        m2 = m1 if hermitian else random_spd_metric(rng, n)
        values = [1.0, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0, 0.0, 0.0]
        if hermitian:
            values[6:9] = [-0.6, -0.4, -0.02]
        w = operator_with_factors(rng, values, m1, None if hermitian else m2)[0]
        threshold = evt if hermitian else svt
        for tau in (1.2, 0.8):
            cfg = ThresholdConfig(tau=tau, ell=2, k=4, engine=engine, rank_cap=6)
            out = threshold(oracle_from_dense(w, m1, m2), cfg, rng=rng)
            if tau > 1.0:
                assert out.rank == 0
                assert 1.0 - 1e-10 <= out.certificate < tau - cfg.delta
            else:
                assert out.rank == 1 and out.certificate is None


class TestWholeSpacePass:
    """A pass whose right basis spans the whole space is exact, so the cut
    behind it needs no deflation probe."""

    @pytest.mark.parametrize("kind", ["evt", "svt"])
    def test_diagonal_spends_one_pass(self, kind, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("the deflation probe ran behind an exact pass")

        monkeypatch.setattr("liftkit.thresholding._deflated_leading", no_probe)
        values = np.array([10.0, 9.0, 8.0, 7.0, 6.0, 0.1])
        w = np.diag(values).astype(complex)
        m = EuclideanMetric(6)
        oracle = oracle_from_dense(w, m, m)
        cfg = ThresholdConfig(tau=1.0)
        assert cfg.ell < min(cfg.rank_cap, 6)
        threshold = evt if kind == "evt" else svt
        out = threshold(oracle, cfg, rng=np.random.default_rng(4))
        assert out.actions <= 2 * 6
        assert out.rank == 5
        if kind == "evt":
            expected = dense_evt(w, m.to_dense(), 1.0)
        else:
            expected = dense_svt(w, m.to_dense(), m.to_dense(), 1.0)
        assert np.max(np.abs(out.to_dense() - expected)) <= 1e-10


# a clustered spectrum above the level 0.5, as in STEP_SPECTRA; the other
# values lie in [-0.2, 0.2]
HERMITIAN_TOP = [1.0, 0.5003, 0.5001, 0.4999, 0.4997]


class TestHermitianPass:
    """evt's lanczos engine is a Hermitian Lanczos pass: one right action per
    column, Ritz values signed and largest first."""

    @staticmethod
    def problem(rng, kind, top=HERMITIAN_TOP, n=24):
        m = TestStepRule.metric(rng, n, kind)
        lam = np.concatenate([top, rng.uniform(-0.2, 0.2, size=n - len(top))])
        w, right, _ = operator_with_factors(rng, lam, m)
        return w, m, lam, right

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    @pytest.mark.parametrize("start", ["cold", "warm", "restarted"])
    def test_residual_estimates_are_metric_residuals(self, kind, start):
        # cold and warm: one pass; restarted: k = ell + 1 against the
        # cluster, the fifth thick restart; the Ritz pairs are unconverged
        rng = np.random.default_rng(70)
        w, m, lam, right = self.problem(rng, kind)
        oracle = oracle_from_dense(w, m, m)
        if start == "restarted":
            out = augmented_restart(oracle, 2, 3, DELTA, max_restarts=5, rng=rng, hermitian=True)
            assert out.restarts == 5
        else:
            vec = None if start == "cold" else perturbed(rng, right[:, :3], 0.1) @ np.ones(3)
            out = augmented_restart(oracle, 2, 6, DELTA, max_restarts=0, rng=rng, start=vec,
                                    hermitian=True)
        assert not out.converged
        assert out.values[0] <= lam.max() + 1e-12
        assert oracle.left_calls == 0
        h = m.to_dense()
        vecs = out.right_vectors
        assert np.array_equal(vecs, out.left_vectors)
        assert np.max(np.abs(vecs.conj().T @ h @ vecs - np.eye(out.count))) <= 1e-12
        assert np.all(np.diff(out.values) <= 0)
        for j in range(out.count):
            resid = w @ (h @ vecs[:, j]) - out.values[j] * vecs[:, j]
            true = np.sqrt(np.real(np.vdot(resid, h @ resid)))
            assert abs(out.residuals[j] - true) <= 1e-12, (j, out.residuals[j], true)

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_negative_value_of_largest_modulus(self, kind, warm):
        # |-3| leads by modulus; evt keeps 1.0 and 0.7 above the level 0.5
        # with ell = rank_cap = 2, so no probe runs
        tau = 0.5
        rng = np.random.default_rng(71)
        for draw in range(3):
            w, m, lam, right = self.problem(rng, kind, top=[-3.0, 1.0, 0.7])
            # a warm start as the solver passes it: the last iterate, positive
            start = HermitianFactored(perturbed(rng, right[:, 1:3]), np.array([0.5, 0.2]))
            start = start if warm else None
            cfg = ThresholdConfig(tau=tau, ell=2, k=10, delta=DELTA, rank_cap=2)
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng, warm_start=start)
            assert out.rank == 2, draw
            expected = dense_evt(w, m.to_dense(), tau)
            assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8, draw

    @pytest.mark.parametrize("ell", [5, 2])
    @pytest.mark.parametrize("warm", [False, True])
    def test_actions_are_the_columns_built(self, ell, warm, monkeypatch):
        columns = []
        add_e = partial_svd._KrylovPass.add_e

        def counted(fac, vec, image):
            added = add_e(fac, vec, image)
            columns.append(added)
            return added

        monkeypatch.setattr(partial_svd._KrylovPass, "add_e", counted)
        rng = np.random.default_rng(72)
        w, m, lam, right = self.problem(rng, "reweighted")
        start = HermitianFactored(perturbed(rng, right[:, :2]), lam[:2] - 0.5) if warm else None
        oracle = oracle_from_dense(w, m, m)
        cfg = ThresholdConfig(tau=0.5, ell=ell, k=10, delta=DELTA, rank_cap=5)
        out = evt(oracle, cfg, rng=rng, warm_start=start)
        assert oracle.left_calls == 0
        assert out.actions == oracle.right_calls == sum(columns) > 0
        assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), 0.5))) <= 1e-8


# leading values of Z and the level: Z keeps nothing, 2Z keeps the values
# above it; the other values lie in [-0.1, 0.1] (evt) or [0, 0.1] (svt)
HANDOVER_SPECTRA = {
    "separated": ([0.55, 0.5, 0.45], 0.6),
    "clustered below the level": ([0.5, 0.25015, 0.25005, 0.24995, 0.24985], 0.52),
    "clustered above the level": ([0.3002, 0.3001, 0.2999, 0.2998], 0.31),
}


class TestRitzPairHandover:
    """Each call hands over its final engine call's converged Ritz pairs,
    weighted by max(value, 0), as the next call's start."""

    @staticmethod
    def operator(rng, top, hermitian, kind):
        n1 = 24 if hermitian else 20
        m1 = TestStepRule.metric(rng, n1, kind)
        if hermitian:
            m2 = m1
            rest = rng.uniform(-0.1, 0.1, size=n1 - len(top))
        else:
            m2 = TestStepRule.metric(rng, 24, kind)
            rest = np.sort(rng.uniform(0.0, 0.1, size=n1 - len(top)))[::-1]
        values = np.concatenate([top, rest])
        return operator_with_factors(rng, values, m1, None if hermitian else m2)[0], m1, m2

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    @pytest.mark.parametrize("spectrum", list(HANDOVER_SPECTRA))
    @pytest.mark.parametrize("hermitian", [True, False], ids=["evt", "svt"])
    def test_empty_result_hands_over_a_cheaper_start(self, hermitian, spectrum, kind):
        # the call on Z runs at a loose tolerance, as an early solver
        # iteration does, and the call on 2Z at the solver's ell == rank_cap
        top, tau = HANDOVER_SPECTRA[spectrum]
        threshold = evt if hermitian else svt
        rng = np.random.default_rng(90)
        for draw in range(3):
            z, m1, m2 = self.operator(rng, top, hermitian, kind)
            loose = ThresholdConfig(tau=tau, ell=5, k=10, delta=1e-3, rank_cap=5)
            first = threshold(oracle_from_dense(z, m1, m2), loose, rng=rng)
            assert first.rank == 0 and first.ritz_pairs.rank >= 1, draw
            cfg = ThresholdConfig(tau=tau, ell=5, k=10, delta=DELTA, rank_cap=5)
            seed = int(rng.integers(1 << 30))
            outs = [
                threshold(
                    oracle_from_dense(2 * z, m1, m2), cfg,
                    rng=np.random.default_rng(seed), warm_start=start,
                )
                for start in (first.ritz_pairs, None)
            ]
            if hermitian:
                expected = dense_evt(2 * z, m1.to_dense(), tau)
            else:
                expected = dense_svt(2 * z, m1.to_dense(), m2.to_dense(), tau)
            for out in outs:
                assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8, draw
            assert outs[0].actions < outs[1].actions, draw

    @staticmethod
    def final_engine_results(monkeypatch):
        results = []
        engine = thresholding.augmented_restart

        def recorded(*args, **kwargs):
            results.append(engine(*args, **kwargs))
            return results[-1]

        # the deflation probe looks the engine up in partial_svd, so only
        # the calls of the threshold path itself are recorded
        monkeypatch.setattr(thresholding, "augmented_restart", recorded)
        return results

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    def test_evt_hands_over_converged_pairs_only(self, kind, monkeypatch):
        # -3 leads by modulus far from the other values, so its pair
        # converges within the pass; its weight is 0
        results = self.final_engine_results(monkeypatch)
        rng = np.random.default_rng(91)
        negative = unconverged = 0
        for draw in range(4):
            m = TestStepRule.metric(rng, 24, kind)
            lam = np.concatenate([[1.0, 0.7, -3.0], rng.uniform(-0.01, 0.01, size=21)])
            w = operator_with_factors(rng, lam, m)[0]
            cfg = ThresholdConfig(tau=0.5, ell=2, k=10, delta=DELTA, rank_cap=2)
            out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
            psvd = results[-1]
            conv = psvd.residuals <= psvd.tol
            assert np.any(conv), draw
            pairs = out.ritz_pairs
            assert np.array_equal(pairs.factors, psvd.right_vectors[:, conv])
            assert np.array_equal(pairs.values, np.maximum(psvd.values[conv], 0.0))
            negative += int(np.sum(psvd.values[conv] < 0))
            unconverged += int(np.sum(~conv))
        assert negative > 0 and unconverged > 0

    @pytest.mark.parametrize("kind", ["spd", "reweighted"])
    def test_svt_hands_over_converged_triples_only(self, kind, monkeypatch):
        results = self.final_engine_results(monkeypatch)
        rng = np.random.default_rng(92)
        unconverged = 0
        for draw in range(4):
            z, m1, m2 = self.operator(rng, [1.0, 0.7, 0.45], False, kind)
            cfg = ThresholdConfig(tau=0.5, ell=5, k=10, delta=DELTA, rank_cap=5)
            out = svt(oracle_from_dense(z, m1, m2), cfg, rng=rng)
            psvd = results[-1]
            conv = psvd.residuals <= psvd.tol
            pairs = out.ritz_pairs
            assert np.array_equal(pairs.right, psvd.right_vectors[:, conv])
            assert np.array_equal(pairs.left, psvd.left_vectors[:, conv])
            assert np.array_equal(pairs.values, psvd.values[conv])
            unconverged += int(np.sum(~conv))
        assert unconverged > 0

    @pytest.mark.parametrize("hermitian", [True, False], ids=["evt", "svt"])
    def test_leading_pair_when_none_converged(self, hermitian, monkeypatch):
        # the cut at index 0 is certified long before a triple converges
        results = self.final_engine_results(monkeypatch)
        rng = np.random.default_rng(93)
        z, m1, m2 = self.operator(rng, [0.3, 0.2], hermitian, "spd")
        cfg = ThresholdConfig(tau=0.6, ell=5, k=10, delta=DELTA, rank_cap=5)
        out = (evt if hermitian else svt)(oracle_from_dense(z, m1, m2), cfg, rng=rng)
        psvd = results[-1]
        assert out.rank == 0 and not np.any(psvd.residuals <= psvd.tol)
        pairs = out.ritz_pairs
        assert pairs.rank == 1 and pairs.values[0] == psvd.values[0]
        vectors = pairs.factors if hermitian else pairs.right
        assert np.array_equal(vectors, psvd.right_vectors[:, :1])

    @pytest.mark.parametrize("hermitian", [True, False], ids=["evt", "svt"])
    def test_dense_engine_hands_over_every_triple(self, hermitian):
        # the whole exact spectrum, weighted by max(value, 0); the next dense
        # call decomposes its own oracle and gives the same bytes without it
        rng = np.random.default_rng(94)
        z, m1, m2 = self.operator(rng, [1.0, 0.7], hermitian, "spd")
        cfg = ThresholdConfig(tau=0.5, engine="dense")
        threshold = evt if hermitian else svt
        out = threshold(oracle_from_dense(z, m1, m2), cfg, rng=rng)
        pairs = out.ritz_pairs
        assert out.rank == 2 and pairs.rank == min(z.shape)
        assert np.array_equal(pairs.values[:2] - cfg.tau, out.values)
        assert np.all(pairs.values[2:] <= 0.1) and np.all(pairs.values >= 0.0)
        again = [
            threshold(oracle_from_dense(2 * z, m1, m2), cfg, rng=rng, warm_start=start)
            for start in (pairs, None)
        ]
        for name in ("right", "left", "values"):
            assert getattr(again[0], name).tobytes() == getattr(again[1], name).tobytes()
        assert again[0].ritz_pairs.values.tobytes() == again[1].ritz_pairs.values.tobytes()


class TestDeflationProbe:
    """The deflation probe removes its found triples through their factor
    images: the metric is applied to the found factors at most once per
    side, and never to the probe's vectors."""

    @pytest.mark.parametrize("carried", [True, False], ids=["carried", "fresh"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["evt", "svt"])
    def test_metric_applied_once_per_side(self, hermitian, carried, monkeypatch):
        rng = np.random.default_rng(96)
        m1 = random_spd_metric(rng, 12)
        m2 = m1 if hermitian else random_spd_metric(rng, 10)
        h1, h2 = m1.to_dense(), m2.to_dense()
        w, right, left = operator_with_factors(rng, [1.0, 0.8, 0.3], m1, None if hermitian else m2)
        top = np.array([1.0, 0.8])
        if hermitian:
            found = HermitianFactored(factors=right[:, :2], values=top)
        else:
            found = FactoredTensor(right=right[:, :2], left=left[:, :2], values=top)
        if carried:
            found.carry((m1, m2), [h1 @ right[:, :2], h2 @ left[:, :2]])
        rest = w - found.to_dense()
        oracle = partial_svd.ActionOracle(
            lambda e: w @ (h1 @ e), lambda f: w.conj().T @ (h2 @ f), (12, w.shape[0]), (m1, m2)
        )
        applied = []
        for m in {m1, m2}:
            apply = m.apply
            monkeypatch.setattr(m, "apply", lambda x, apply=apply: applied.append(1) or apply(x))
        sides = [("right", h1, rest)]
        if not hermitian:
            sides.append(("left", h2, rest.conj().T))

        def probe(deflated, *args, **kwargs):
            for side, h, expected in sides:
                for _ in range(3):
                    e = random_complex(rng, h.shape[0])
                    got = getattr(deflated, side)(e)
                    assert np.allclose(got, expected @ (h @ e), atol=1e-12)
            return SimpleNamespace(converged=True, count=0)

        monkeypatch.setattr(partial_svd, "augmented_restart", probe)
        cfg = ThresholdConfig(tau=0.5)
        assert thresholding._deflated_leading(oracle, found, cfg, rng, hermitian) == 0.0
        assert len(applied) == (0 if carried else 2 * len(sides))


class TestEmptyCutBelowTheTop:
    """An empty cut accepts an unconverged leading Ritz value whose interval
    theta + r lies below the level.  That interval bounds an eigenvalue, not
    the largest, so from a random start a value above the level can be cut
    (ROADMAP item 5); these draws pin it until the cut rule changes."""

    SPECTRUM = [1.0, 0.7, 0.5, 0.3, 0.2, 0.1, -0.6, -0.4, -0.02, 0.0, 0.0, 0.0]

    @pytest.mark.xfail(strict=True, reason="an empty cut need not bound the top eigenvalue")
    @pytest.mark.parametrize("engine, seed", [("lanczos", 2), ("subspace", 19)])
    def test_matches_dense_evt(self, engine, seed):
        rng = np.random.default_rng(seed)
        m = random_spd_metric(rng, 12)
        w = hermitian_with_spectrum(rng, self.SPECTRUM, m)
        cfg = ThresholdConfig(tau=0.99, ell=2, k=4, delta=DELTA, rank_cap=2, engine=engine)
        out = evt(oracle_from_dense(w, m, m), cfg, rng=np.random.default_rng(seed + 2000))
        expected = dense_evt(w, m.to_dense(), 0.99)
        assert np.max(np.abs(out.to_dense() - expected)) <= 1e-6


class TestRepeatedValueAboveTheLevel:
    """A single-vector Krylov space holds one direction of a repeated value,
    so the Lanczos engine finds one copy of 0.6 where three lie above the
    level (ROADMAP item 5); these draws pin it until a block start or a
    probe that deflates the found copy closes it."""

    TOP = [1.0, 0.6, 0.6, 0.6, 0.3]
    TAU = 0.45

    @pytest.mark.xfail(strict=True, reason="a repeated value above the level is found once")
    @pytest.mark.parametrize("kind", ["evt", "svt"])
    def test_matches_dense(self, kind):
        rng = np.random.default_rng(0)
        hermitian = kind == "evt"
        n1 = 24 if hermitian else 20
        m1 = random_spd_metric(rng, n1)
        m2 = m1 if hermitian else random_spd_metric(rng, 24)
        if hermitian:
            rest = rng.uniform(-0.2, 0.2, size=n1 - len(self.TOP))
        else:
            rest = np.sort(rng.uniform(0.0, 0.2, size=n1 - len(self.TOP)))[::-1]
        values = np.concatenate([self.TOP, rest])
        w = operator_with_factors(rng, values, m1, None if hermitian else m2)[0]
        cfg = ThresholdConfig(tau=self.TAU, ell=5, k=10, delta=DELTA, rank_cap=5)
        oracle = oracle_from_dense(w, m1, m2)
        if hermitian:
            out = evt(oracle, cfg, rng=rng)
            expected = dense_evt(w, m1.to_dense(), self.TAU)
        else:
            out = svt(oracle, cfg, rng=rng)
            expected = dense_svt(w, m1.to_dense(), m2.to_dense(), self.TAU)
        assert out.rank == 4
        assert np.max(np.abs(out.to_dense() - expected)) <= 1e-8


class TestRankCapBoundsGrowth:
    """``rank_cap`` caps how far the subspace grows, not the rank of the
    result: every converged value above the level in a pass is kept, so four
    values above the level come back at a cap of 2 or 3 (ROADMAP item 9)."""

    @pytest.mark.parametrize("cap", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_result_rank_exceeds_the_cap(self, seed, cap):
        rng = np.random.default_rng(seed)
        m = random_spd_metric(rng, 24)
        w = hermitian_with_spectrum(rng, [1.0, 0.9, 0.8, 0.7] + [0.05] * 20, m)
        cfg = ThresholdConfig(tau=0.5, ell=cap, k=10, delta=DELTA, rank_cap=cap)
        out = evt(oracle_from_dense(w, m, m), cfg, rng=rng)
        assert out.rank == 4
        assert np.max(np.abs(out.to_dense() - dense_evt(w, m.to_dense(), 0.5))) <= 1e-8


class TestCarriedFactorImages:
    """The result and its Ritz pairs carry their factors' metric images,
    rotated by the engine pass from its basis images; an action in a metric
    object they do not carry applies that metric afresh."""

    @staticmethod
    def metric(rng, n, kind):
        if kind == "euclidean":
            return EuclideanMetric(n)
        sobolev = SobolevMetric((4, n // 4), (0.5, 1.0, 2.0))
        if kind == "sobolev":
            return sobolev
        dirs = orthonormalize([random_complex(rng, n) for _ in range(2)], sobolev)
        return ReweightedMetric(sobolev, np.stack(dirs), np.array([0.5, 0.25]))

    @staticmethod
    def sides(tensor, hermitian, metrics):
        """(side, factors, metric) of every factor block of ``tensor``."""
        if hermitian:
            return [("right", tensor.factors, metrics[0])]
        return [("right", tensor.right, metrics[0]), ("left", tensor.left, metrics[1])]

    def case(self, hermitian, kind):
        rng = np.random.default_rng(95)
        m1 = self.metric(rng, 24, kind)
        m2 = m1 if hermitian else self.metric(rng, 28, kind)
        rest = rng.uniform(-0.1, 0.1, size=21) if hermitian else rng.uniform(0.0, 0.1, size=21)
        values = np.concatenate([[1.0, 0.8, 0.35], rest])
        w = operator_with_factors(rng, values, m1, None if hermitian else m2)[0]
        cfg = ThresholdConfig(tau=0.5, ell=5, k=10, delta=DELTA, rank_cap=5)
        out = (evt if hermitian else svt)(oracle_from_dense(w, m1, m2), cfg, rng=rng)
        return out, (m1, m2), rng

    @pytest.mark.parametrize("kind", ["euclidean", "sobolev", "reweighted"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["evt", "svt"])
    def test_carried_images_are_metric_images(self, hermitian, kind):
        out, metrics, _ = self.case(hermitian, kind)
        assert out.rank == 2 and out.ritz_pairs.rank >= 2
        for tensor in (out, out.ritz_pairs):
            for side, factors, metric in self.sides(tensor, hermitian, metrics):
                images = carried_images(tensor, side, metric)
                assert images is not None and images.shape == factors.shape
                for j in range(factors.shape[1]):
                    exact = metric.apply(factors[:, j])
                    err = np.linalg.norm(images[:, j].conj() - exact)
                    assert err <= 1e-12 * np.linalg.norm(exact), (side, j, err)

    @pytest.mark.parametrize("kind", ["euclidean", "sobolev", "reweighted"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["evt", "svt"])
    def test_a_reweighted_metric_is_applied_afresh(self, hermitian, kind, monkeypatch):
        out, metrics, rng = self.case(hermitian, kind)
        base = metrics[0] if kind != "reweighted" else metrics[0].base
        base2 = metrics[1] if kind != "reweighted" else metrics[1].base
        state = SolverState(w=out, w_prev=out, y=np.zeros(1), metric1=metrics[0],
                            metric2=metrics[1])
        cfg = SolverConfig(reweight=ReweightSettings(enabled=True, weight=0.5))
        new = reweight_step(state, cfg, base, base2)
        assert all(m is not old for m, old in zip(new, metrics))
        # the pairs hand over a bare start direction in the new metric
        assert not isinstance(thresholding._warm_vector(out.ritz_pairs, new[0]), tuple)
        applied = []
        for m in set(new):
            apply = m.apply
            monkeypatch.setattr(m, "apply", lambda x, apply=apply: applied.append(1) or apply(x))
        if hermitian:
            actions = [(out.action, new[0], out.factors, out.factors)]
        else:
            actions = [(out.right_action, new[0], out.left, out.right),
                       (out.left_action, new[1], out.right, out.left)]
        for action, metric, into, paired in actions:
            e = random_complex(rng, paired.shape[0])
            applied.clear()
            got = action(metric, e)
            assert len(applied) == paired.shape[1]
            fresh = np.stack([metric.apply(col) for col in paired.T], axis=1)
            expected = into @ (out.values * (fresh.conj().T @ e))
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
            applied.clear()
            action(metric, e)
            assert applied == []
