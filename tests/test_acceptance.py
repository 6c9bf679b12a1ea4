"""End-to-end acceptance suite.

Each test prints one pass/fail line (visible with ``pytest -s``); run the
whole file with ``pytest tests/test_acceptance.py -v``.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from liftkit.metric import EuclideanMetric, ReweightedMetric, SobolevMetric, orthonormalize
from liftkit.partial_svd import subspace_iterate
from liftkit.phase_retrieval import (
    PRProblem,
    add_noise,
    coverage_map,
    default_metric,
    error_up_to_phase,
    forward,
    make_rademacher_masks,
    recover,
    synthetic_image,
    sym_adjoint_action,
)
from liftkit.solver import Fidelity, ReweightSettings, SolverConfig
from liftkit.thresholding import ThresholdConfig, evt, shrink, soft, soft_plus, svt
from liftkit.bench import run_benchmark

from helpers import (
    DenseBilinear,
    DenseQuadratic,
    dense_evt,
    dense_svt,
    dense_weighted_evd,
    dense_weighted_svd,
    oracle_from_dense,
    random_complex,
    random_hermitian_tensor_stack,
    random_spd_metric,
    tensor_inner,
)

# Tikhonov weight for the noisy runs, chosen by the grid search recorded in
# the repository notes (the normalized data scale makes literature values
# inapplicable).
NOISY_ALPHA = 1.0


@contextmanager
def report(label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label} ({time.monotonic() - start:.1f}s)")
        raise
    print(f"[PASS] {label} ({time.monotonic() - start:.1f}s)")


def pick_threshold(rng, values):
    top = values[0]
    for _ in range(100):
        tau = rng.uniform(0.2 * top, 0.9 * top)
        if np.min(np.abs(values - tau)) > 1e-3 * top:
            return tau
    return 0.5 * top


def criterion3_problem():
    shape = (16, 16)
    image = synthetic_image(shape, seed=42)
    masks = make_rademacher_masks(shape, 8, seed=7)
    problem = PRProblem(
        masks=masks, m2=32, m1=32, metric=EuclideanMetric(256)
    )
    problem.g = forward(problem, image)
    problem.truth = image
    return problem


def reweighted_over(base, rng, count=3):
    dirs = orthonormalize([random_complex(rng, base.dim) for _ in range(count)], base)
    weights = rng.uniform(0.2, 0.8, size=len(dirs))
    return ReweightedMetric(base, np.stack(dirs, axis=0), weights)


class TestCriterion1OracleEquivalence:
    def test_tensor_free_thresholding_matches_dense_oracle(self):
        with report("criterion 1: SVT/EVT match the dense transform oracle (200 instances)"):
            start = time.monotonic()
            rng = np.random.default_rng(1001)
            for instance in range(200):
                hermitian = instance % 2 == 1
                if hermitian:
                    n = int(rng.integers(3, 13))
                    metric = random_spd_metric(rng, n)
                    a = random_complex(rng, n * n).reshape(n, n)
                    w = 0.5 * (a + a.conj().T)
                    lam, _ = dense_weighted_evd(w, metric.to_dense())
                    by_mag = np.abs(lam)[np.argsort(-np.abs(lam))]
                    tau = pick_threshold(rng, by_mag)
                    expected = dense_evt(w, metric.to_dense(), tau)
                    oracle_args = (w, metric, metric)
                    scale = by_mag[0]
                else:
                    n1 = int(rng.integers(3, 13))
                    n2 = int(rng.integers(3, 13))
                    rank = int(min(5, n1, n2))
                    m1 = random_spd_metric(rng, n1)
                    m2 = random_spd_metric(rng, n2)
                    u = np.stack([random_complex(rng, n1) for _ in range(rank)], axis=1)
                    v = np.stack([random_complex(rng, n2) for _ in range(rank)], axis=1)
                    w = v @ u.conj().T
                    sig, _, _ = dense_weighted_svd(w, m1.to_dense(), m2.to_dense())
                    tau = pick_threshold(rng, sig)
                    expected = dense_svt(w, m1.to_dense(), m2.to_dense(), tau)
                    oracle_args = (w, m1, m2)
                    scale = sig[0]
                for engine in ("lanczos", "subspace"):
                    cfg = ThresholdConfig(
                        tau=tau, ell=2, k=5, engine=engine, rank_cap=min(w.shape) + 2
                    )
                    oracle = oracle_from_dense(*oracle_args)
                    if hermitian:
                        out = evt(oracle, cfg, rng=rng).to_dense()
                    else:
                        out = svt(oracle, cfg, rng=rng).to_dense()
                    err = np.max(np.abs(out - expected))
                    assert err <= 1e-8 * max(scale, 1.0), (
                        f"instance {instance} engine {engine}: {err:.2e}"
                    )
            assert time.monotonic() - start < 30.0


class TestCriterion2DualitySuite:
    PROBES = 200

    def metrics_for(self, rng, n1, n2, grid1, grid2):
        euclid = (EuclideanMetric(n1), EuclideanMetric(n2))
        sobolev = (SobolevMetric(grid1, (0.25, 1.0, 1.0)), SobolevMetric(grid2, (0.25, 1.0, 1.0)))
        rew = (reweighted_over(sobolev[0], rng), reweighted_over(euclid[1], rng))
        return {"euclidean": euclid, "sobolev": sobolev, "reweighted": rew}

    def test_duality_identities(self):
        with report("criterion 2: adjoint/duality identities (200 probes each)"):
            start = time.monotonic()
            rng = np.random.default_rng(2002)
            grid1, grid2 = (3, 4), (4, 5)
            n1, n2 = 12, 20
            m = 6
            tensor = random_complex(rng, m * n2 * n1).reshape(m, n2, n1)

            for kind, (h1, h2) in self.metrics_for(rng, n1, n2, grid1, grid2).items():
                bmap = DenseBilinear(tensor, h1, h2)
                h1d, h2d = h1.to_dense(), h2.to_dense()
                h1inv, h2inv = np.linalg.inv(h1d), np.linalg.inv(h2d)
                for _ in range(self.PROBES):
                    e = random_complex(rng, n1)
                    f = random_complex(rng, n2)
                    y = random_complex(rng, m)
                    # partial adjoints against the data pairing
                    data = float(np.real(np.vdot(y, bmap.apply(e, f))))
                    scale = max(1.0, abs(data))
                    assert abs(data - h2.inner(f, bmap.partial_adjoint_left(y, e))) <= 1e-8 * scale
                    assert abs(data - h1.inner(e, bmap.partial_adjoint_right(y, f))) <= 1e-8 * scale
                    # full lifted duality through the dense trace pairing
                    w = np.outer(f, e.conj())
                    adj = h2inv @ np.einsum("m,mij->ij", y, np.conj(tensor)) @ h1inv
                    lhs = float(np.real(np.vdot(y, bmap.lift_apply(w))))
                    rhs = tensor_inner(w, adj, h1d, h2d)
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

            # symmetric adjoint identities on a quadratic toy
            n = 12
            stack = random_hermitian_tensor_stack(rng, m, n)
            for kind in ("euclidean", "sobolev", "reweighted"):
                if kind == "euclidean":
                    h = EuclideanMetric(n)
                elif kind == "sobolev":
                    h = SobolevMetric((3, 4), (0.25, 1.0, 1.0))
                else:
                    h = reweighted_over(SobolevMetric((3, 4), (0.25, 1.0, 1.0)), rng)
                qmap = DenseQuadratic(stack, h)
                bq = qmap.bilinear()
                hd = h.to_dense()
                for _ in range(self.PROBES):
                    e = random_complex(rng, n)
                    f = random_complex(rng, n)
                    y = rng.standard_normal(m)
                    # polarization form of the symmetric pairing
                    sym = 0.5 * (bq.apply(e, f) + bq.apply(f, e))
                    pol = 0.5 * (qmap.apply(e + f) - qmap.apply(e) - qmap.apply(f))
                    assert np.max(np.abs(sym - pol)) <= 1e-8 * max(1.0, np.max(np.abs(sym)))
                    lhs = float(np.real(np.vdot(y, qmap.apply(e))))
                    rhs = float(np.real(np.conj(qmap.sym_adjoint_action(y, e)) @ hd @ e))
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

            # measurement-operator adjoint identity, Euclidean and Sobolev
            shape = (4, 5)
            masks = make_rademacher_masks(shape, 3, seed=77)
            for kind in ("euclidean", "sobolev"):
                metric = default_metric(shape, kind)
                problem = PRProblem(masks=masks, m2=8, m1=10, metric=metric)
                for _ in range(self.PROBES):
                    e = random_complex(rng, 20).reshape(shape)
                    y = rng.standard_normal(problem.data_dim)
                    lhs = float(np.real(np.vdot(y, forward(problem, e))))
                    adj = sym_adjoint_action(problem, y, e)
                    rhs = metric.inner(adj.ravel(), e.ravel())
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

            # reweighted adjoint: transform route equals inverse-metric route
            base1 = SobolevMetric(grid1, (0.25, 1.0, 1.0))
            base2 = EuclideanMetric(n2)
            m1x = reweighted_over(base1, rng)
            m2x = reweighted_over(base2, rng)
            bmap = DenseBilinear(tensor, base1, base2)
            h1x, h2x = m1x.to_dense(), m2x.to_dense()
            h1xi, h2xi = np.linalg.inv(h1x), np.linalg.inv(h2x)
            for _ in range(self.PROBES):
                e = random_complex(rng, n1)
                y = random_complex(rng, m)
                via_transform = m2x.transform(bmap.partial_adjoint_left(y, e), adjoint=True)
                adj = h2xi @ np.einsum("m,mij->ij", y, np.conj(tensor)) @ h1xi
                direct = adj @ h1x @ e
                assert np.max(np.abs(via_transform - direct)) <= 1e-8 * max(
                    1.0, np.max(np.abs(direct))
                )
            assert time.monotonic() - start < 60.0


class TestCriterion3NoiselessRecovery:
    def test_reweighted_recovery_reaches_rank_one(self):
        with report("criterion 3: noiseless 16x16 recovery, rank 1 and error <= 1e-3"):
            start = time.monotonic()
            problem = criterion3_problem()
            cfg = SolverConfig(
                reweight=ReweightSettings(enabled=True, weight=0.5, period=10, max_promoted=5),
                ell=5,
                k=10,
                max_iter=1000,
                tol=1e-10,
                seed=0,
            )
            image, result = recover(problem, cfg)
            assert len(result.log) <= 1000
            final = result.log[-1]
            assert final.rank == 1
            if len(final.values) > 1:
                assert final.values[1] / final.values[0] <= 1e-4
            err = error_up_to_phase(image, problem.truth)
            assert err <= 1e-3
            # rank stays within the partial-decomposition cap throughout
            assert max(rec.rank for rec in result.log) <= 5
            # fidelity trends downward: negative least-squares slope over
            # every 100-iteration window beyond the warm-up phase
            fidelities = np.array([rec.fidelity for rec in result.log])
            xs = np.arange(100)
            for begin in range(50, len(fidelities) - 100):
                window = fidelities[begin : begin + 100]
                slope = np.polyfit(xs, window, 1)[0]
                assert slope < 0.0, f"window at {begin} has slope {slope:.3e}"
            assert time.monotonic() - start < 300.0


@pytest.mark.slow
class TestCriterion4Benchmark:
    def test_lanczos_speedup_and_restart_trend(self):
        with report("criterion 4: lanczos(10,5)+reweighting at least 3x faster than dense"):
            settings = (
                ("dense", None, None, False),
                ("lanczos", 50, 100, False),
                ("lanczos", 25, 50, False),
                ("lanczos", 10, 20, False),
                ("lanczos", 5, 10, False),
                ("lanczos", 5, 10, True),
            )
            rows = run_benchmark(iterations=1000, settings=settings)
            by_label = {row.label: row for row in rows}
            dense_time = by_label["dense"].seconds
            fast_time = by_label["lanczos k=10 l=5 +rw"].seconds
            assert dense_time >= 3.0 * fast_time, (
                f"dense {dense_time:.1f}s vs reweighted lanczos {fast_time:.1f}s"
            )
            restarts = [
                by_label[f"lanczos k={k} l={k // 2}"].avg_restarts for k in (100, 50, 20, 10)
            ]
            assert all(b > a for a, b in zip(restarts, restarts[1:])), restarts


class TestCriterion5SobolevEffect:
    def test_smoothing_metric_fills_black_holes(self):
        with report("criterion 5: Sobolev metric beats Euclidean on blocked pixels"):
            shape = (32, 32)
            image = synthetic_image(shape, seed=21)
            masks = make_rademacher_masks(shape, 4, seed=11)
            holes = coverage_map(masks) == 0
            assert np.any(holes), "mask draw must block some pixels"
            errors = {}
            hole_errors = {}
            hole_values = {}
            for kind in ("euclidean", "sobolev"):
                problem = PRProblem(
                    masks=masks, m2=64, m1=64, metric=default_metric(shape, kind)
                )
                problem.g = forward(problem, image)
                cfg = SolverConfig(
                    reweight=ReweightSettings(
                        enabled=True, weight=0.5, period=10, max_promoted=5
                    ),
                    ell=5,
                    k=10,
                    max_iter=100,
                    tol=1e-12,
                    seed=0,
                )
                rec, _ = recover(problem, cfg)
                errors[kind] = error_up_to_phase(rec, image)
                corr = np.vdot(image.ravel(), rec.ravel())
                aligned = (np.exp(-1j * np.angle(corr)) if corr != 0 else 1.0) * rec
                hole_errors[kind] = float(
                    np.linalg.norm((aligned - image)[holes]) / np.linalg.norm(image[holes])
                )
                hole_values[kind] = aligned[holes]
            # Euclidean leaves blocked pixels essentially untouched
            assert hole_errors["euclidean"] > 0.9
            # the smoothing metric interpolates finite, nonzero values there
            assert np.all(np.isfinite(hole_values["sobolev"]))
            assert np.all(np.abs(hole_values["sobolev"]) > 0)
            assert errors["sobolev"] < errors["euclidean"]


class TestCriterion6NoiseRobustness:
    def test_rank_control_and_monotone_degradation(self):
        with report("criterion 6: noisy Tikhonov runs stay low rank, errors grow with noise"):
            shape = (32, 32)
            image = synthetic_image(shape, seed=21)
            masks = make_rademacher_masks(shape, 4, seed=11)
            metric = default_metric(shape, "sobolev")
            clean_problem = PRProblem(masks=masks, m2=64, m1=64, metric=metric)
            g_clean = forward(clean_problem, image)
            errors = []
            for level in (0.01, 0.05, 0.10):
                problem = PRProblem(masks=masks, m2=64, m1=64, metric=metric)
                problem.g = add_noise(g_clean, level, seed=31)
                cfg = SolverConfig(
                    fidelity=Fidelity.tikhonov(),
                    alpha_reg=NOISY_ALPHA,
                    reweight=ReweightSettings(
                        enabled=True, weight=0.5, period=10, max_promoted=5
                    ),
                    ell=5,
                    k=10,
                    max_iter=100,
                    tol=1e-12,
                    seed=0,
                )
                rec, result = recover(problem, cfg)
                ranks = [r.rank for r in result.log]
                assert max(ranks) <= 5
                assert ranks[-1] == 1
                errors.append(error_up_to_phase(rec, image))
            assert errors[0] < errors[1] < errors[2], errors


class TestCriterion7MonotoneUnderestimation:
    def test_subspace_ritz_values_underestimate(self):
        with report("criterion 7: subspace Ritz values underestimate monotonically (50 instances)"):
            rng = np.random.default_rng(7007)
            for _ in range(50):
                n1 = int(rng.integers(4, 12))
                n2 = int(rng.integers(4, 12))
                w = random_complex(rng, n1 * n2).reshape(n2, n1)
                m1 = random_spd_metric(rng, n1)
                m2 = random_spd_metric(rng, n2)
                out = subspace_iterate(oracle_from_dense(w, m1, m2), 3, 1e-10, rng=rng)
                sig, _, _ = dense_weighted_svd(w, m1.to_dense(), m2.to_dense())
                prev = None
                for sweep_vals in out.sweep_history:
                    for m_idx, val in enumerate(sweep_vals):
                        assert val <= sig[m_idx] + 1e-10
                    if prev is not None and len(prev) == len(sweep_vals):
                        assert np.all(sweep_vals >= prev - 1e-10)
                    prev = sweep_vals


class TestCriterion8ProxClosedForms:
    def test_exhaustive_scalar_grids(self):
        with report("criterion 8: prox closed forms on exhaustive grids"):
            ts = np.linspace(-6.0, 6.0, 201)
            taus = np.linspace(0.0, 4.0, 101)
            count = 0
            for tau in taus:
                got = soft(ts, tau)
                expected = np.where(ts > tau, ts - tau, np.where(ts < -tau, ts + tau, 0.0))
                assert np.array_equal(got, expected)
                got_p = soft_plus(ts, tau)
                assert np.array_equal(got_p, np.where(ts > tau, ts - tau, 0.0))
                count += ts.size
            # boundary values hit exactly
            assert soft(1.0, 1.0) == 0.0 and soft(-1.0, 1.0) == 0.0
            assert soft_plus(1.0, 1.0) == 0.0
            assert count >= 10_000

            rng = np.random.default_rng(8008)
            m = EuclideanMetric(5)
            checked = 0
            for _ in range(50):
                z = random_complex(rng, 5)
                nz = m.norm(z)
                for gamma in np.linspace(0.0, 2.0 * nz, 200):
                    out = shrink(z, gamma, m)
                    expected = (
                        np.zeros(5, dtype=complex) if nz <= gamma else (1 - gamma / nz) * z
                    )
                    assert np.max(np.abs(out - expected)) <= 1e-12
                    checked += 1
            assert checked >= 10_000
