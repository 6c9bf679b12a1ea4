import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from liftkit import phase_retrieval, solver
from liftkit.errors import ConfigError, NumericalError
from liftkit.lowrank import FactoredTensor, HermitianFactored
from liftkit.metric import EuclideanMetric, ReweightedMetric, SobolevMetric, orthonormalize
from liftkit.phase_retrieval import (
    MaskedFourierMap,
    PRProblem,
    add_noise,
    error_up_to_phase,
    forward,
    make_rademacher_masks,
    recover,
    synthetic_image,
)
from liftkit.solver import (
    DELTA_MAX,
    DELTA_PROGRESS,
    Fidelity,
    ReweightSettings,
    SolverConfig,
    SolverState,
    dual_step,
    primal_step,
    reweight_step,
    run_forward_backward,
    run_primal_dual,
    threshold_delta,
)

from helpers import (
    DenseBilinear,
    DenseMetric,
    DenseQuadratic,
    dense_weighted_evd,
    dense_weighted_svd,
    random_complex,
    random_factored,
    random_hermitian_factored,
    random_hermitian_tensor_stack,
    random_spd_metric,
)


def scalar_quadratic():
    """Q(u) = |u|^2 on one complex coefficient."""
    return DenseQuadratic(np.ones((1, 1, 1)), EuclideanMetric(1))


def make_state(problem, cfg, w=None, y=None):
    n = problem.h.dim
    return SolverState(
        w=w if w is not None else HermitianFactored.empty(n),
        w_prev=HermitianFactored.empty(n),
        y=y if y is not None else np.zeros(problem.data_dim),
        metric1=problem.h,
        metric2=problem.h,
        tau=cfg.tau,
        sigma=cfg.sigma,
    )


class TestDualStep:
    def test_exact_fixed_point(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(6)
        cfg = SolverConfig(tau=0.5, sigma=0.5, theta=1.0, validate_steps=False)
        state = SolverState(
            w=None, w_prev=None, y=np.zeros(6), metric1=None, metric2=None, tau=cfg.tau,
            sigma=cfg.sigma,
        )
        out = dual_step(state, cfg, g, (g.astype(complex), g.astype(complex)))
        assert np.allclose(out, 0.0)

    def test_tikhonov_half_shift(self):
        g = np.array([2.0, -4.0])
        cfg = SolverConfig(
            tau=0.5, sigma=1.0, fidelity=Fidelity.tikhonov(), validate_steps=False
        )
        state = SolverState(w=None, w_prev=None, y=np.zeros(2), metric1=None, metric2=None,
                            tau=cfg.tau, sigma=cfg.sigma)
        zero = np.zeros(2, dtype=complex)
        out = dual_step(state, cfg, g, (zero, zero))
        assert np.allclose(out, -g / 2.0)

    def test_epsball_dead_zone(self):
        g = np.array([0.3, 0.4])
        cfg = SolverConfig(
            tau=0.5, sigma=1.0, fidelity=Fidelity.eps_ball(1.0), validate_steps=False
        )
        state = SolverState(w=None, w_prev=None, y=np.zeros(2), metric1=None, metric2=None,
                            tau=cfg.tau, sigma=cfg.sigma)
        zero = np.zeros(2, dtype=complex)
        out = dual_step(state, cfg, g, (zero, zero))
        assert np.allclose(out, 0.0)

    @pytest.mark.parametrize("fidelity", [Fidelity.exact(), Fidelity.tikhonov(),
                                          Fidelity.eps_ball(0.1)], ids=lambda f: f.kind)
    @pytest.mark.parametrize("dtype", [float, complex], ids=["quadratic", "bilinear"])
    def test_reads_its_inputs_only(self, fidelity, dtype):
        # the update is fused in place into one new vector, never into an input
        rng = np.random.default_rng(4)

        def draw():
            vec = rng.standard_normal(12)
            return vec + 1j * rng.standard_normal(12) if dtype is complex else vec

        g, img_curr, img_prev, y = rng.standard_normal(12), draw(), draw(), draw()
        cfg = SolverConfig(tau=0.5, sigma=0.7, theta=0.8, fidelity=fidelity,
                           validate_steps=False)
        state = SolverState(w=None, w_prev=None, y=y, metric1=None, metric2=None, tau=cfg.tau,
                            sigma=cfg.sigma)
        before = [arr.copy() for arr in (g, img_curr, img_prev, y)]
        out = dual_step(state, cfg, g, (img_curr, img_prev))
        for arr, copy in zip((g, img_curr, img_prev, state.y), before):
            assert np.array_equal(arr, copy)
        assert state.y is y and all(out is not arr for arr in (g, img_curr, img_prev, y))
        z = y + 0.7 * (1.8 * img_curr - 0.8 * img_prev - g)
        if fidelity.kind == "tikhonov":
            z = z / 1.7
        elif fidelity.kind == "epsball":
            z = z * max(0.0, 1.0 - 0.07 / np.linalg.norm(z))
        assert np.allclose(out, z, rtol=1e-14, atol=0)


class TestPrimalStep:
    def test_zero_everything_stays_zero(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=0.5, sigma=0.5, ell=1, k=2, validate_steps=False)
        state = make_state(qmap, cfg)
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
        state = make_state(qmap, cfg, w=w)
        out = primal_step(state, cfg, qmap, rng=rng)
        expected = np.where(w.values - 0.25 > 0, w.values - 0.25, 0.0)
        expected = expected[expected > 0]
        assert np.allclose(np.sort(out.values)[::-1], expected, atol=1e-8)

    def test_starts_from_the_handed_over_pairs(self, monkeypatch):
        # the next call starts from the Ritz pairs the last call handed
        # over, not from the iterate it kept, at the tolerance passed in
        rng = np.random.default_rng(3)
        n = 6
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 5, n), EuclideanMetric(n))
        cfg = SolverConfig(tau=0.25, sigma=0.25, ell=2, k=4, rank_cap=4, validate_steps=False)
        state = make_state(qmap, cfg, w=random_hermitian_factored(rng, n, 2, EuclideanMetric(n)))
        calls = []
        evt = solver.evt

        def recorded(oracle, tcfg, rng=None, warm_start=None):
            calls.append((tcfg.delta, warm_start))
            return evt(oracle, tcfg, rng=rng, warm_start=warm_start)

        monkeypatch.setattr(solver, "evt", recorded)
        state.w = primal_step(state, cfg, qmap, rng=rng)
        primal_step(state, cfg, qmap, rng=rng, delta=1e-3)
        assert calls[0][0] == cfg.delta and calls[1][0] == 1e-3
        assert state.w.ritz_pairs is not None and calls[1][1] is state.w.ritz_pairs

    def test_negative_drift_gives_empty(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=0.5, sigma=0.5, ell=1, k=2, validate_steps=False)
        state = make_state(qmap, cfg, y=np.array([3.0]))
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
        state = make_state(qmap, self.base_cfg())
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
        state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=base, metric2=base,
                            tau=0.5, sigma=0.5)
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
        state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=base, metric2=base,
                            tau=0.5, sigma=0.5)
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
            state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=cur, metric2=cur,
                                tau=0.5, sigma=0.5)
        else:
            cur1, cur2 = self.reweighted(base1, rng), self.reweighted(base2, rng)
            w = random_factored(rng, base1.dim, base2.dim, rank, cur1, cur2)
            sig, right, left = dense_weighted_svd(w.to_dense(), base1.to_dense(), base2.to_dense())
            sig, right, left = sig[:rank], right[:, :rank], left[:, :rank]
            state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=cur1, metric2=cur2,
                                tau=0.5, sigma=0.5)
        m1, m2 = reweight_step(state, cfg, base1, base2)
        weights = 0.5 * sig / sig[0]
        self.assert_promotes(m1, base1, weights, right)
        if hermitian:
            assert m2 is m1
        else:
            self.assert_promotes(m2, base2, weights, left)


    @pytest.mark.parametrize("hermitian", [True, False])
    def test_factor_images_follow_the_new_metric(self, hermitian):
        # an action pairs e with the factors' metric images, cached per metric
        # object; the reweighted metric must not read the base metric's
        rng = np.random.default_rng(41)
        n = 6
        base = random_spd_metric(rng, n)
        if hermitian:
            w = random_hermitian_factored(rng, n, 3, base)
            pairs = [(w.action, w.factors, w.factors)]
        else:
            w = random_factored(rng, n, n, 3, base, base)
            pairs = [(w.right_action, w.left, w.right), (w.left_action, w.right, w.left)]
        e = random_complex(rng, n)

        def uncached(out, into, metric):
            return out @ (w.values * (into.conj().T @ metric.apply(e)))

        for action, out, into in pairs:
            assert np.allclose(action(base, e), uncached(out, into, base), rtol=0, atol=1e-12)
        state = SolverState(w=w, w_prev=w, y=np.zeros(1), metric1=base, metric2=base,
                            tau=0.5, sigma=0.5)
        metrics = reweight_step(state, self.base_cfg(0.5), base, base)
        assert all(m is not base and m.count == 3 for m in metrics)
        for (action, out, into), metric in zip(pairs, metrics):
            assert np.allclose(action(metric, e), uncached(out, into, metric), rtol=0, atol=1e-12)
            # and back: the cache holds one metric per side
            assert np.allclose(action(base, e), uncached(out, into, base), rtol=0, atol=1e-12)


class TestStepSizes:
    def test_phase_retrieval_steps_do_not_depend_on_the_seed(self):
        # the norm estimate starts from the map's norm starts, not at random
        shape = (8, 8)
        problem = PRProblem(
            masks=make_rademacher_masks(shape, 4, seed=5), m2=16, m1=16,
            metric=EuclideanMetric(64),
        )
        qmap = MaskedFourierMap(problem)
        steps = {
            (cfg.tau, cfg.sigma, norm)
            for cfg, norm in (solver._resolve_steps(qmap, SolverConfig(seed=s)) for s in range(5))
        }
        assert len(steps) == 1

    def test_result_reports_the_estimate(self):
        qmap = scalar_quadratic()
        res = run_primal_dual(qmap, np.array([4.0]), SolverConfig(ell=1, k=2, max_iter=2))
        assert res.step_norm.value == pytest.approx(1.0)
        assert res.step_norm.iterations == 30
        given = SolverConfig(tau=0.5, sigma=0.5, ell=1, k=2, max_iter=2, validate_steps=False)
        assert run_primal_dual(qmap, np.array([4.0]), given).step_norm is None


class TestStepsFromState:
    """The loop's readers take the steps from the state; the config holds
    only the first ones, here absent or different."""

    def test_dual_step(self):
        rng = np.random.default_rng(8)
        g, img_curr, img_prev, y = (rng.standard_normal(5) for _ in range(4))
        cfg = SolverConfig(fidelity=Fidelity.tikhonov())
        state = SolverState(w=None, w_prev=None, y=y, metric1=None, metric2=None, tau=0.3,
                            sigma=0.7)
        out = dual_step(state, cfg, g, (img_curr, img_prev))
        assert np.allclose(out, (y + 0.7 * (2.0 * img_curr - img_prev - g)) / 1.7,
                           rtol=1e-14, atol=0)

    def test_primal_step(self):
        rng = np.random.default_rng(1)
        n = 4
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 5, n), EuclideanMetric(n))
        w = random_hermitian_factored(rng, n, 2, EuclideanMetric(n))
        cfg = SolverConfig(tau=1.0, sigma=1.0, ell=2, k=4, rank_cap=4, validate_steps=False)
        state = SolverState(w=w, w_prev=HermitianFactored.empty(n), y=np.zeros(5),
                            metric1=qmap.h, metric2=qmap.h, tau=0.25, sigma=0.25)
        out = primal_step(state, cfg, qmap, rng=rng)
        expected = w.values[w.values > 0.25] - 0.25
        assert np.allclose(np.sort(out.values)[::-1], np.sort(expected)[::-1], atol=1e-8)

    @pytest.mark.parametrize("tau, decided", [(3.0, True), (1.0, False)])
    def test_empty_start_shortcut(self, tau, decided):
        # y = 2 y_ref + r with r orthogonal to y_ref: the leading value is at
        # most 2 * certificate + tau * max|r| = 2 + tau / 10, below the level
        # tau only for the larger step; the config holds the other one
        ref = SimpleNamespace(certificate=1.0, norm_estimate=1.0, restarts=2, actions=3)
        cfg = SolverConfig(tau=4.0 - tau, sigma=4.0 - tau, validate_steps=False)
        state = SolverState(w=None, w_prev=None, y=np.array([2.0, 0.1]), metric1=None,
                            metric2=None, tau=tau, sigma=tau)
        out = solver._rescaled_empty((np.array([1.0, 0.0]), ref), state, cfg, 1e-8, 1.0)
        if decided:
            assert out.actions == 0 and out.norm_estimate == 2.0
        else:
            assert out is None


class TestStop:
    """A solve stops after the first iteration whose fidelity reaches ``tol``
    times the data norm, converged, or after ``max_iter`` iterations."""

    @pytest.mark.parametrize("entry", [run_primal_dual, run_forward_backward],
                             ids=["primal-dual", "forward-backward"])
    def test_tolerance_on_the_last_allowed_iteration(self, entry):
        qmap, g = scalar_quadratic(), np.array([4.0])
        cfg = SolverConfig(ell=1, k=2, max_iter=1000, tol=1e-6, alpha_reg=0.0,
                           fidelity=Fidelity.tikhonov())
        last = len(entry(qmap, g, cfg).log)
        assert 1 < last < cfg.max_iter
        res = entry(qmap, g, replace(cfg, max_iter=last))
        assert len(res.log) == last and res.converged
        assert res.log[-1].fidelity <= cfg.tol
        res = entry(qmap, g, replace(cfg, max_iter=last - 1))
        assert len(res.log) == last - 1 and not res.converged
        assert all(rec.fidelity > cfg.tol for rec in res.log)


class TestSolverConfig:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_rejects_a_seed_that_is_no_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            SolverConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), np.uint32(2)])
    def test_accepts_python_and_numpy_integers(self, seed):
        assert SolverConfig(seed=seed).seed == seed

    @pytest.mark.parametrize(
        "field, value", [("ell", 3.0), ("k", 10.0), ("rank_cap", 4.0), ("max_iter", 5.0)]
    )
    def test_rejects_a_float_count(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["period", "max_promoted"])
    def test_reweight_rejects_a_float_count(self, field):
        with pytest.raises(ConfigError, match=field):
            ReweightSettings(**{field: 5.0})

    def test_accepts_numpy_integer_counts(self):
        reweight = ReweightSettings(period=np.int64(5), max_promoted=np.int8(2))
        cfg = SolverConfig(
            ell=np.int64(3), k=np.int32(6), rank_cap=np.int64(4), max_iter=np.uint16(5),
            reweight=reweight,
        )
        assert cfg.threshold_config(0.1).ell == 3 and cfg.reweight.period == 5


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
        # only an empty-start iteration, decided by an earlier call's
        # certificate, skips the engine
        for i, rec in enumerate(res.log):
            if rec.actions == 0:
                assert i > 0 and all(r.rank == 0 for r in res.log[: i + 1])

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

    @pytest.mark.parametrize("tau, valid", [(1.5, True), (2.0, False), (1e6, False)])
    def test_step_rule_validation(self, tau, valid):
        # the step must satisfy tau |A|^2 < 2; here |A| = 1, estimated with a 5 % margin
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=tau, fidelity=Fidelity.tikhonov(), ell=1, k=2, max_iter=3)
        if valid:
            assert run_forward_backward(qmap, np.array([1.0]), cfg).step_norm is not None
        else:
            with pytest.raises(ConfigError, match=r"tau\*\|B\|\^2 < 2"):
                run_forward_backward(qmap, np.array([1.0]), cfg)

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


def phase_problem(mask_count, seed):
    """An 8x8 phase-retrieval problem on a 16x16 DFT grid, with its exact data."""
    image = synthetic_image((8, 8), seed=seed)
    masks = make_rademacher_masks((8, 8), mask_count, seed=seed + 2)
    problem = PRProblem(masks=masks, m2=16, m1=16, metric=EuclideanMetric(64))
    return problem, forward(problem, image)


class TestThresholdTolerance:
    """Each iteration thresholds at a tolerance tied to the change of the
    forward image, between SolverConfig.delta and DELTA_MAX."""

    @pytest.mark.parametrize("floor", [1e-10, 1e-8, 1e-4, DELTA_MAX])
    def test_bounded_by_floor_and_cap(self, floor):
        cfg = SolverConfig(delta=floor)
        for g_norm in (1e-3, 1.0, 7.5):
            for change in (0.0, 1e-14, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 1e3, np.inf):
                delta = threshold_delta(cfg, change, g_norm)
                assert floor <= delta <= DELTA_MAX

    def test_floor_when_images_coincide(self):
        cfg = SolverConfig(delta=3e-7)
        assert threshold_delta(cfg, 0.0, 1.0) == 3e-7
        # between floor and cap it is proportional to the relative change
        assert threshold_delta(cfg, 2e-3, 4.0) == pytest.approx(DELTA_PROGRESS * 2e-3 / 4.0)

    def test_records_carry_the_scheduled_tolerance(self):
        rng = np.random.default_rng(6)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 8, 4), EuclideanMetric(4))
        g = np.real(qmap.apply(random_complex(rng, 4)))
        cfg = SolverConfig(ell=2, k=4, rank_cap=4, max_iter=40, seed=11, delta=1e-9)
        deltas = [rec.delta for rec in run_primal_dual(qmap, g, cfg).log]
        # the first iteration starts from zero images and moves only the dual
        assert deltas[0] == DELTA_MAX
        assert all(1e-9 <= d <= DELTA_MAX for d in deltas)
        assert max(deltas) > 1e-9

    def test_zero_data_keeps_the_floor(self):
        qmap = scalar_quadratic()
        cfg = SolverConfig(tau=0.9, sigma=0.9, ell=1, k=2, max_iter=5, validate_steps=False)
        res = run_primal_dual(qmap, np.zeros(1), cfg)
        assert [rec.delta for rec in res.log] == [cfg.delta] * len(res.log)

    def test_tightens_while_noisy_fidelity_stalls(self):
        # Tikhonov on noisy data: the fidelity stalls near the 5 % noise level,
        # yet the image change, and with it the tolerance, keeps falling.  A
        # measured run fell ~57x in median from iterations 76-100 to 176-200,
        # while the fidelity moved 0.6 %.
        problem, g = phase_problem(6, seed=3)
        problem.g = add_noise(g, 0.05, seed=3)
        cfg = SolverConfig(
            fidelity=Fidelity.tikhonov(), max_iter=200, tol=0.0, seed=0,
            reweight=ReweightSettings(enabled=True),
        )
        _, res = recover(problem, cfg)
        fidelity = np.array([rec.fidelity for rec in res.log])
        deltas = np.array([rec.delta for rec in res.log])
        assert abs(fidelity[-1] - fidelity[99]) <= 0.02 * fidelity[99]
        # the recorded fidelity is relative to the data norm
        assert fidelity[-1] >= 0.5 * 0.05
        assert np.median(deltas[-25:]) <= 0.1 * np.median(deltas[75:100])
        assert deltas[-1] < 1e-3 * DELTA_MAX

    def test_exact_recovery_agrees_with_the_dense_engine(self):
        # the dense engine decomposes every threshold argument exactly, so it
        # reads no tolerance; the scheduled solve must reach the same image
        problem, g = phase_problem(6, seed=5)
        problem.g = g
        images = []
        for engine in ("lanczos", "dense"):
            cfg = SolverConfig(max_iter=400, tol=1e-4, seed=0, engine=engine)
            image, res = recover(problem, cfg)
            assert res.converged
            images.append(image)
        # measured 5.1e-5; both solves stop at a fidelity of 1e-4
        assert error_up_to_phase(images[0], images[1]) <= 5e-4


EMPTY_START_FIDELITIES = {
    "exact": Fidelity.exact(),
    "tikhonov": Fidelity.tikhonov(),
    "epsball": Fidelity.eps_ball(0.05),
}


def empty_start_problem(kind, **settings):
    """An 8x8 phase-retrieval problem with exact data whose solve, with the
    fidelity ``kind``, starts with three empty iterates: reweighting halves
    the steps.  ``settings`` override the config's."""
    problem, g = phase_problem(4, seed=3)
    problem.g = g
    settings = {"max_iter": 30, "tol": 0.0, "seed": 0, **settings}
    cfg = SolverConfig(
        fidelity=EMPTY_START_FIDELITIES[kind],
        reweight=ReweightSettings(enabled=True, period=settings.pop("period", 10)),
        **settings,
    )
    return problem, cfg


def first_nonempty(log):
    return next(rec for rec in log if rec.rank)


class TestEmptyStart:
    """Until the first non-empty iterate every threshold argument is a
    positive multiple of -tau A^*(y) at the first dual vector y: those
    iterations run at a loose tolerance, and an engine call's certificate,
    rescaled, decides the later ones at no action."""

    @pytest.mark.parametrize("kind", sorted(EMPTY_START_FIDELITIES))
    def test_skipped_records_follow_only_empty_ones(self, kind):
        problem, cfg = empty_start_problem(kind)
        _, res = recover(problem, cfg)
        skipped = [i for i, rec in enumerate(res.log) if rec.actions == 0]
        assert skipped
        for i in skipped:
            assert res.log[i].rank == 0 and res.log[i].restarts == 0
            assert all(rec.rank == 0 for rec in res.log[:i])
        # only the dual moves there, by a relative 1/n
        first = first_nonempty(res.log)
        assert all(rec.delta == DELTA_MAX for rec in res.log[: first.n])

    @pytest.mark.parametrize("period", [10, 1])
    @pytest.mark.parametrize("kind", sorted(EMPTY_START_FIDELITIES))
    def test_first_nonempty_iterate_matches_the_engine_run(self, kind, period, monkeypatch):
        # period 1 reweights every empty iterate, which keeps the base metrics
        problem, cfg = empty_start_problem(kind, period=period)
        tau = solver._resolve_steps(MaskedFourierMap(problem), cfg)[0].tau
        _, res = recover(problem, cfg)
        monkeypatch.setattr(solver, "_rescaled_empty", lambda *args: None)
        _, ref = recover(problem, cfg)
        assert any(rec.actions == 0 for rec in res.log)
        assert all(rec.actions > 0 for rec in ref.log)
        mine, theirs = first_nonempty(res.log), first_nonempty(ref.log)
        assert mine.n == theirs.n > 1
        # the engine's tol is delta times the argument's norm, which is at
        # least the level plus the leading shifted value
        tol = mine.delta * (tau * cfg.alpha_reg + mine.values[0])
        assert len(mine.values) == len(theirs.values)
        assert np.allclose(mine.values, theirs.values, rtol=0.0, atol=tol)

    def test_never_fires_once_an_iterate_was_nonempty(self, monkeypatch):
        # a large alpha makes a long empty start and, later, two empty
        # iterates in a row, where both forward images are zero again
        problem, cfg = empty_start_problem("exact", alpha_reg=5.0, max_iter=40)
        asked = []
        rescaled = solver._rescaled_empty

        def spy(reference, state, *args):
            asked.append(state.n)
            return rescaled(reference, state, *args)

        monkeypatch.setattr(solver, "_rescaled_empty", spy)
        _, res = recover(problem, cfg)
        ranks = [rec.rank for rec in res.log]
        first = first_nonempty(res.log).n - 1
        assert any(ranks[i] == ranks[i + 1] == 0 for i in range(first, len(ranks) - 1))
        # asked last at the iteration that made the first non-empty iterate
        assert asked and max(asked) == first
        assert all(rec.actions > 0 for rec in res.log[first:])

    def test_a_map_without_an_adjoint_bound_takes_no_shortcut(self):
        # a metric with no spectral floor leaves the map without a bound
        problem, cfg = empty_start_problem("exact")
        problem.metric = DenseMetric(np.eye(64))
        assert MaskedFourierMap(problem).adjoint_bound() is None
        _, res = recover(problem, cfg)
        assert first_nonempty(res.log).n > 1
        assert all(rec.actions > 0 for rec in res.log)

    @pytest.mark.parametrize("case", ["zero data", "dead zone"])
    def test_a_dual_that_stays_zero_warns_nothing(self, case):
        # nothing moves, so the tolerance stays at the floor and no
        # certificate is kept: there is no multiple of a zero dual vector
        problem, cfg = empty_start_problem("exact")
        if case == "zero data":
            problem.g = np.zeros_like(problem.g)
        else:
            # the normalized data lie inside the ball
            cfg = replace(cfg, fidelity=Fidelity.eps_ball(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, res = recover(problem, cfg)
        assert not res.y.any()
        assert all(rec.rank == 0 and rec.actions > 0 for rec in res.log)
        assert [rec.delta for rec in res.log] == [cfg.delta] * len(res.log)


class TestIterationPrecision:
    """``IterationRecord.single`` says whether the iteration's threshold call
    took its adjoints from the single-precision view."""

    @pytest.mark.parametrize("kind", sorted(EMPTY_START_FIDELITIES))
    def test_records_follow_the_switch_and_skipped_calls(self, kind):
        problem, cfg = empty_start_problem(kind)
        _, res = recover(problem, cfg)
        switch = phase_retrieval.SINGLE_PRECISION_DELTA
        assert any(rec.actions == 0 for rec in res.log)
        for rec in res.log:
            assert rec.single == (rec.actions > 0 and rec.delta >= switch)
        assert any(rec.single for rec in res.log)


def _run_on_short_data():
    masks = make_rademacher_masks((4, 4), 2, seed=0)
    problem = PRProblem(masks=masks, m2=8, m1=8, metric=EuclideanMetric(16))
    return run_primal_dual(MaskedFourierMap(problem), np.ones(3), SolverConfig(max_iter=2))


# Settings and data each check rejects; every one raises ConfigError
BAD_SOLVER_INPUTS = {
    "fidelity-kind": lambda: Fidelity(kind="l1"),
    "epsball-eps-zero": lambda: Fidelity(kind="epsball", eps=0.0),
    "reweight-period-zero": lambda: ReweightSettings(period=0),
    "data-length": _run_on_short_data,
}


@pytest.mark.parametrize("build", BAD_SOLVER_INPUTS.values(), ids=BAD_SOLVER_INPUTS.keys())
def test_bad_solver_input_raises(build):
    with pytest.raises(ConfigError) as raised:
        build()
    assert raised.type is ConfigError
