import numpy as np
import pytest

from liftkit.errors import ConfigError, NumericalError
from liftkit.lowrank import FactoredTensor, HermitianFactored
from liftkit.metric import EuclideanMetric, ReweightedMetric, SobolevMetric, orthonormalize
from liftkit.solver import (
    Fidelity,
    ReweightSettings,
    SolverConfig,
    SolverState,
    dual_step,
    primal_step,
    reweight_step,
    run_forward_backward,
    run_primal_dual,
)

from helpers import (
    DenseBilinear,
    DenseQuadratic,
    dense_weighted_evd,
    dense_weighted_svd,
    random_complex,
    random_factored,
    random_hermitian_factored,
    random_spd_metric,
)


def scalar_quadratic():
    """Q(u) = |u|^2 on one complex coefficient."""
    return DenseQuadratic(np.ones((1, 1, 1)), EuclideanMetric(1))


def make_state(problem, w=None, y=None):
    n = problem.h.dim
    return SolverState(
        w=w if w is not None else HermitianFactored.empty(n),
        w_prev=HermitianFactored.empty(n),
        y=y if y is not None else np.zeros(problem.data_dim),
        metric1=problem.h,
        metric2=problem.h,
    )


class TestDualStep:
    def test_exact_fixed_point(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(6)
        cfg = SolverConfig(tau=0.5, sigma=0.5, theta=1.0, validate_steps=False)
        state = SolverState(
            w=None, w_prev=None, y=np.zeros(6), metric1=None, metric2=None
        )
        out = dual_step(state, cfg, g, (g.astype(complex), g.astype(complex)))
        assert np.allclose(out, 0.0)

    def test_tikhonov_half_shift(self):
        g = np.array([2.0, -4.0])
        cfg = SolverConfig(
            tau=0.5, sigma=1.0, fidelity=Fidelity.tikhonov(), validate_steps=False
        )
        state = SolverState(w=None, w_prev=None, y=np.zeros(2), metric1=None, metric2=None)
        zero = np.zeros(2, dtype=complex)
        out = dual_step(state, cfg, g, (zero, zero))
        assert np.allclose(out, -g / 2.0)

    def test_epsball_dead_zone(self):
        g = np.array([0.3, 0.4])
        cfg = SolverConfig(
            tau=0.5, sigma=1.0, fidelity=Fidelity.eps_ball(1.0), validate_steps=False
        )
        state = SolverState(w=None, w_prev=None, y=np.zeros(2), metric1=None, metric2=None)
        zero = np.zeros(2, dtype=complex)
        out = dual_step(state, cfg, g, (zero, zero))
        assert np.allclose(out, 0.0)


class TestPrimalStep:
    def test_zero_everything_stays_zero(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=0.5, sigma=0.5, ell=1, k=2, validate_steps=False)
        state = make_state(qmap)
        out = primal_step(state, cfg, qmap, rng=np.random.default_rng(0))
        assert out.rank == 0

    def test_zero_dual_shrinks_tensor(self):
        rng = np.random.default_rng(1)
        qmap = DenseQuadratic(np.ones((1, 1, 1)), EuclideanMetric(1))
        n = 4
        from helpers import random_hermitian_tensor_stack

        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 5, n), EuclideanMetric(n))
        w = random_hermitian_factored(rng, n, 2, EuclideanMetric(n))
        cfg = SolverConfig(
            tau=0.25, sigma=0.25, alpha_reg=1.0, ell=2, k=4, rank_cap=4, validate_steps=False
        )
        state = make_state(qmap, w=w)
        out = primal_step(state, cfg, qmap, rng=rng)
        expected = np.where(w.values - 0.25 > 0, w.values - 0.25, 0.0)
        expected = expected[expected > 0]
        assert np.allclose(np.sort(out.values)[::-1], expected, atol=1e-8)

    def test_negative_drift_gives_empty(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=0.5, sigma=0.5, ell=1, k=2, validate_steps=False)
        state = make_state(qmap, y=np.array([3.0]))
        out = primal_step(state, cfg, qmap, rng=np.random.default_rng(2))
        assert out.rank == 0


class TestReweightStep:
    def base_cfg(self, weight=0.5):
        return SolverConfig(
            tau=0.5,
            sigma=0.5,
            reweight=ReweightSettings(enabled=True, weight=weight, period=1, max_promoted=5),
            validate_steps=False,
        )

    def test_zero_tensor_clears_promotions(self):
        qmap = scalar_quadratic()
        state = make_state(qmap)
        base = qmap.h
        m1, m2 = reweight_step(state, self.base_cfg(), base, base)
        assert m1 is base and m2 is base

    def test_rank_one_promotes_full_weight(self):
        rng = np.random.default_rng(3)
        n = 5
        base = EuclideanMetric(n)
        u = random_complex(rng, n)
        u /= base.norm(u)
        w = HermitianFactored(factors=u[:, None], values=np.array([2.0]))
        qmap = scalar_quadratic()
        state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=base, metric2=base)
        m1, _ = reweight_step(state, self.base_cfg(0.5), base, base)
        assert m1.count == 1
        assert m1.weights[0] == pytest.approx(0.5, abs=1e-10)
        overlap = abs(np.vdot(m1.directions[0], u))
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_rank_two_weight_profile(self):
        rng = np.random.default_rng(4)
        n = 6
        base = EuclideanMetric(n)
        w = random_hermitian_factored(rng, n, 2, base)
        w = HermitianFactored(factors=w.factors, values=np.array([2.0, 1.0]))
        state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=base, metric2=base)
        m1, _ = reweight_step(state, self.base_cfg(0.5), base, base)
        assert m1.count == 2
        assert np.allclose(m1.weights, [0.5, 0.25], atol=1e-8)


    @staticmethod
    def base_metrics(kind, rng):
        if kind == "spd":
            return random_spd_metric(rng, 10), random_spd_metric(rng, 12)
        mu = (0.25, 1.0, 0.5)
        return SobolevMetric((2, 5), mu), SobolevMetric((3, 4), mu)

    @staticmethod
    def reweighted(base, rng):
        dirs = orthonormalize([random_complex(rng, base.dim) for _ in range(2)], base)
        return ReweightedMetric(base, np.stack(dirs), [0.4, 0.2])

    @staticmethod
    def assert_promotes(metric, base, weights, vectors):
        """Same weights, and the same base-metric projector per direction."""
        h = base.to_dense()
        assert metric.base is base
        assert np.max(np.abs(metric.weights - weights)) <= 1e-10
        for d, ref in zip(metric.directions, vectors.T):
            got = np.outer(d, d.conj()) @ h
            assert np.max(np.abs(got - np.outer(ref, ref.conj()) @ h)) <= 1e-10

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("kind", ["spd", "sobolev"])
    @pytest.mark.parametrize("hermitian", [False, True], ids=["general", "hermitian"])
    def test_matches_dense_decomposition(self, hermitian, kind, rank):
        """Factors orthonormal in the current reweighted metrics, as the solver
        hands them over; the promotions come from the base-metric spectrum."""
        rng = np.random.default_rng(7 + rank)
        base1, base2 = self.base_metrics(kind, rng)
        cfg = self.base_cfg(0.5)
        if hermitian:
            base2 = base1
            cur = self.reweighted(base1, rng)
            w = random_hermitian_factored(rng, base1.dim, rank, cur, signed=True)
            lam, vecs = dense_weighted_evd(w.to_dense(), base1.to_dense())
            order = np.argsort(-np.abs(lam))[:rank]
            sig, right = np.abs(lam[order]), vecs[:, order]
            state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=cur, metric2=cur)
        else:
            cur1, cur2 = self.reweighted(base1, rng), self.reweighted(base2, rng)
            w = random_factored(rng, base1.dim, base2.dim, rank, cur1, cur2)
            sig, right, left = dense_weighted_svd(w.to_dense(), base1.to_dense(), base2.to_dense())
            sig, right, left = sig[:rank], right[:, :rank], left[:, :rank]
            state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=cur1, metric2=cur2)
        m1, m2 = reweight_step(state, cfg, base1, base2)
        weights = 0.5 * sig / sig[0]
        self.assert_promotes(m1, base1, weights, right)
        if hermitian:
            assert m2 is m1
        else:
            self.assert_promotes(m2, base2, weights, left)


class TestRunPrimalDual:
    def test_zero_data_zero_solution(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=0.9, sigma=0.9, ell=1, k=2, max_iter=5, validate_steps=False)
        res = run_primal_dual(qmap, np.zeros(1), cfg)
        assert res.converged
        assert res.w.rank == 0
        assert all(rec.rank == 0 for rec in res.log)

    def test_scalar_recovery_matches_dense_iteration(self):
        qmap = scalar_quadratic()
        tau = sigma = 0.9
        cfg = SolverConfig(
            tau=tau,
            sigma=sigma,
            ell=1,
            k=2,
            max_iter=400,
            tol=1e-12,
            normalize_data=False,
            validate_steps=False,
        )
        g = np.array([4.0])
        res = run_primal_dual(qmap, g, cfg)

        # dense scalar reference of the same proximal iteration
        w = w_prev = 0.0
        y = 0.0
        dense_track = []
        for _ in range(len(res.log)):
            y = y + sigma * (2.0 * w - w_prev - 4.0)
            arg = w - tau * y
            w_prev = w
            w = max(arg - tau, 0.0)
            dense_track.append(w)

        mine = [rec.values[0] if rec.values else 0.0 for rec in res.log]
        assert np.allclose(mine, dense_track, atol=1e-9)
        assert res.w.values[0] == pytest.approx(4.0, abs=1e-6)

    def test_scalar_recovery_normalized(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(ell=1, k=2, max_iter=600, tol=1e-12, seed=5)
        res = run_primal_dual(qmap, np.array([4.0]), cfg)
        assert res.w.values[0] == pytest.approx(4.0, abs=1e-6)
        assert res.scale == pytest.approx(4.0)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        from helpers import random_hermitian_tensor_stack

        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 8, 4), EuclideanMetric(4))
        u = random_complex(rng, 4)
        g = np.real(qmap.apply(u))
        cfg = SolverConfig(ell=2, k=4, rank_cap=4, max_iter=40, seed=11)
        res1 = run_primal_dual(qmap, g, cfg)
        res2 = run_primal_dual(qmap, g, cfg)
        assert len(res1.log) == len(res2.log)
        for a, b in zip(res1.log, res2.log):
            assert a.values == b.values
            assert a.fidelity == b.fidelity
            assert a.rank == b.rank

    def test_records_count_threshold_actions(self, monkeypatch):
        # count, from outside, every action on an oracle built for a threshold
        # step; the oracles of the reweighting decompositions must not count
        import liftkit.solver as solver_module
        from helpers import random_hermitian_tensor_stack
        from liftkit.partial_svd import ActionOracle

        threshold_oracles = []
        counted = [0]
        build = solver_module._threshold_oracle

        def recording_build(*args):
            oracle = build(*args)
            threshold_oracles.append(oracle)
            return oracle

        def counting(method):
            def wrapper(self, vec):
                if any(self is oracle for oracle in threshold_oracles):
                    counted[0] += 1
                return method(self, vec)

            return wrapper

        monkeypatch.setattr(solver_module, "_threshold_oracle", recording_build)
        monkeypatch.setattr(ActionOracle, "right", counting(ActionOracle.right))
        monkeypatch.setattr(ActionOracle, "left", counting(ActionOracle.left))

        rng = np.random.default_rng(12)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 10, 5), EuclideanMetric(5))
        g = np.real(qmap.apply(random_complex(rng, 5)))
        cfg = SolverConfig(
            ell=2, k=4, rank_cap=4, max_iter=30, seed=3,
            reweight=ReweightSettings(enabled=True, period=5),
        )
        after_each = []
        res = run_primal_dual(qmap, g, cfg, sink=lambda rec: after_each.append(counted[0]))
        per_iteration = np.diff([0] + after_each)
        assert [rec.actions for rec in res.log] == per_iteration.tolist()
        assert sum(rec.actions for rec in res.log) == counted[0] > 0
        assert all(rec.actions > 0 for rec in res.log)

    def test_epsball_dead_zone_keeps_start(self):
        qmap = scalar_quadratic()
        g = np.array([0.5])
        cfg = SolverConfig(
            tau=0.9,
            sigma=0.9,
            ell=1,
            k=2,
            max_iter=3,
            fidelity=Fidelity.eps_ball(2.0),
            normalize_data=False,
            validate_steps=False,
            tol=0.0,
        )
        res = run_primal_dual(qmap, g, cfg)
        assert np.allclose(res.y, 0.0)
        assert res.w.rank == 0

    def test_step_rule_validation(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=10.0, sigma=10.0, ell=1, k=2, max_iter=5)
        with pytest.raises(ConfigError):
            run_primal_dual(qmap, np.array([1.0]), cfg)

    def test_non_finite_data_detected(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(
            tau=0.9,
            sigma=0.9,
            ell=1,
            k=2,
            max_iter=50,
            validate_steps=False,
            normalize_data=False,
        )
        with pytest.raises(NumericalError):
            run_primal_dual(qmap, np.array([np.nan]), cfg)

    def test_sink_receives_records(self):
        qmap = scalar_quadratic()
        seen = []
        cfg = SolverConfig(ell=1, k=2, max_iter=10, seed=0)
        run_primal_dual(qmap, np.array([1.0]), cfg, sink=seen.append)
        assert len(seen) == 10 or (seen and seen[-1].fidelity <= 1e-10)

    def test_bilinear_mode_drives_fidelity_down(self):
        rng = np.random.default_rng(7)
        tensor = random_complex(rng, 8 * 3 * 4).reshape(8, 4, 3)
        bmap = DenseBilinear(tensor, EuclideanMetric(3), EuclideanMetric(4))
        u = random_complex(rng, 3)
        v = random_complex(rng, 4)
        g = bmap.apply(u, v)
        cfg = SolverConfig(ell=2, k=4, rank_cap=3, max_iter=300, seed=1, tol=1e-8)
        res = run_primal_dual(bmap, g, cfg)
        assert isinstance(res.w, FactoredTensor)
        assert res.log[-1].fidelity < 0.05 * res.log[0].fidelity


class TestRunForwardBackward:
    def test_requires_tikhonov(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=0.5, sigma=0.5, validate_steps=False)
        with pytest.raises(ConfigError):
            run_forward_backward(qmap, np.zeros(1), cfg)

    def test_zero_data(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(
            tau=0.5,
            sigma=0.5,
            ell=1,
            k=2,
            max_iter=5,
            fidelity=Fidelity.tikhonov(),
            validate_steps=False,
        )
        res = run_forward_backward(qmap, np.zeros(1), cfg)
        assert res.w.rank == 0

    def test_scalar_matches_dense_iteration(self):
        qmap = scalar_quadratic()
        tau = 0.4
        alpha = 0.5
        cfg = SolverConfig(
            tau=tau,
            sigma=1.0,
            alpha_reg=alpha,
            ell=1,
            k=2,
            max_iter=300,
            tol=1e-13,
            fidelity=Fidelity.tikhonov(),
            normalize_data=False,
            validate_steps=False,
        )
        g = np.array([4.0])
        res = run_forward_backward(qmap, g, cfg)
        w = 0.0
        dense_track = []
        for _ in range(len(res.log)):
            arg = w - tau * (w - 4.0)
            w = max(arg - tau * alpha, 0.0)
            dense_track.append(w)
        mine = [rec.values[0] if rec.values else 0.0 for rec in res.log]
        assert np.allclose(mine, dense_track, atol=1e-9)
        assert res.w.values[0] == pytest.approx(4.0 - alpha, abs=1e-6)

    def test_agrees_with_primal_dual_limit(self):
        qmap = scalar_quadratic()
        alpha = 0.5
        shared = dict(
            alpha_reg=alpha,
            ell=1,
            k=2,
            tol=1e-14,
            fidelity=Fidelity.tikhonov(),
            normalize_data=False,
            validate_steps=False,
        )
        g = np.array([4.0])
        fb = run_forward_backward(
            qmap, g, SolverConfig(tau=0.4, sigma=1.0, max_iter=2000, **shared)
        )
        pd = run_primal_dual(
            qmap, g, SolverConfig(tau=0.9, sigma=0.9, max_iter=2000, **shared)
        )
        assert fb.w.values[0] == pytest.approx(pd.w.values[0], abs=1e-4)
        assert fb.w.values[0] == pytest.approx(4.0 - alpha, abs=1e-4)
