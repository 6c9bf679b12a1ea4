import numpy as np
import pytest

from liftkit import phase_retrieval
from liftkit.lowrank import FactoredTensor, HermitianFactored
from liftkit.metric import EuclideanMetric, ReweightedMetric, orthonormalize
from liftkit.operators import (
    adjoint_metric_transform,
    composed_hermitian_action,
    composed_left_action,
    composed_right_action,
    lifted_apply,
    lifted_apply_quadratic,
    operator_norm,
    reweighted_composed_hermitian,
    reweighted_composed_left,
    reweighted_composed_right,
)
from liftkit.phase_retrieval import (
    MaskedFourierMap,
    PRProblem,
    default_metric,
    make_rademacher_masks,
)

from helpers import (
    DenseBilinear,
    DenseMetric,
    DenseQuadratic,
    random_complex,
    random_factored,
    random_hermitian_factored,
    random_hermitian_tensor_stack,
    random_spd_metric,
    tensor_inner,
)


def dense_hs_adjoint(tensor, z):
    """Euclidean adjoint of the lifted operator as a matrix."""
    return np.einsum("m,mij->ij", z, np.conj(tensor))


def make_toy(rng, m, n1, n2, h1=None, h2=None):
    tensor = random_complex(rng, m * n2 * n1).reshape(m, n2, n1)
    h1 = h1 if h1 is not None else EuclideanMetric(n1)
    h2 = h2 if h2 is not None else EuclideanMetric(n2)
    return DenseBilinear(tensor, h1, h2)


def make_reweighted(base, rng, count, weights=None):
    dirs = orthonormalize([random_complex(rng, base.dim) for _ in range(count)], base)
    if weights is None:
        weights = rng.uniform(0.1, 0.8, size=len(dirs))
    return ReweightedMetric(base, np.stack(dirs, axis=0), np.asarray(weights))


class TestLiftedApply:
    def test_empty_tensor(self):
        rng = np.random.default_rng(0)
        bmap = make_toy(rng, 4, 3, 5)
        out = lifted_apply(bmap, FactoredTensor.empty(3, 5))
        assert np.allclose(out, 0.0)

    def test_rank_one_matches_pointwise(self):
        rng = np.random.default_rng(1)
        bmap = make_toy(rng, 4, 3, 5)
        u = random_complex(rng, 3)
        v = random_complex(rng, 5)
        w = FactoredTensor(right=u[:, None], left=v[:, None], values=np.array([1.7]))
        assert np.allclose(lifted_apply(bmap, w), 1.7 * bmap.apply(u, v), atol=1e-12)

    def test_matches_dense_lifting(self):
        rng = np.random.default_rng(2)
        bmap = make_toy(rng, 4, 3, 5)
        m1, m2 = EuclideanMetric(3), EuclideanMetric(5)
        w = random_factored(rng, 3, 5, 3, m1, m2)
        assert np.allclose(lifted_apply(bmap, w), bmap.lift_apply(w.to_dense()), atol=1e-10)


class TestLiftedApplyQuadratic:
    def test_empty(self):
        rng = np.random.default_rng(3)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 4, 5), EuclideanMetric(5))
        assert np.allclose(lifted_apply_quadratic(qmap, HermitianFactored.empty(5)), 0.0)

    def test_rank_one(self):
        rng = np.random.default_rng(4)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 4, 5), EuclideanMetric(5))
        u = random_complex(rng, 5)
        w = HermitianFactored(factors=u[:, None], values=np.array([1.0]))
        assert np.allclose(lifted_apply_quadratic(qmap, w), qmap.apply(u), atol=1e-10)

    def test_rank_two_matches_dense(self):
        rng = np.random.default_rng(5)
        stack = random_hermitian_tensor_stack(rng, 4, 5)
        qmap = DenseQuadratic(stack, EuclideanMetric(5))
        w = random_hermitian_factored(rng, 5, 2, EuclideanMetric(5), signed=True)
        expected = np.einsum("mij,ij->m", stack, w.to_dense())
        assert np.allclose(lifted_apply_quadratic(qmap, w), expected, atol=1e-10)

    def test_quadratic_restriction_of_bilinear(self):
        rng = np.random.default_rng(6)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 6, 4), EuclideanMetric(4))
        for _ in range(10):
            u = random_complex(rng, 4)
            assert np.allclose(qmap.apply(u), qmap.bilinear().apply(u, u), atol=1e-10)


class TestComposedActions:
    def test_empty_previous_tensor(self):
        rng = np.random.default_rng(7)
        bmap = make_toy(rng, 4, 3, 5)
        y = random_complex(rng, 4)
        e = random_complex(rng, 3)
        w0 = FactoredTensor.empty(3, 5)
        out = composed_right_action(w0, 1.0, bmap, y, e, bmap.h1)
        assert np.allclose(out, -bmap.partial_adjoint_left(y, e), atol=1e-12)

    def test_zero_dual(self):
        rng = np.random.default_rng(8)
        bmap = make_toy(rng, 4, 3, 5)
        w = random_factored(rng, 3, 5, 2, bmap.h1, bmap.h2)
        f = random_complex(rng, 5)
        out = composed_left_action(w, 2.0, bmap, np.zeros(4), f, bmap.h2)
        assert np.allclose(out, w.left_action(bmap.h2, f), atol=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_dense_composition(self, weighted):
        rng = np.random.default_rng(9)
        if weighted:
            m1 = random_spd_metric(rng, 3)
            m2 = random_spd_metric(rng, 5)
        else:
            m1, m2 = EuclideanMetric(3), EuclideanMetric(5)
        bmap = make_toy(rng, 4, 3, 5, m1, m2)
        w = random_factored(rng, 3, 5, 2, m1, m2)
        y = random_complex(rng, 4)
        tau = 0.7
        h1 = m1.to_dense()
        h2 = m2.to_dense()
        adj = np.linalg.inv(h2) @ dense_hs_adjoint(bmap.tensor, y) @ np.linalg.inv(h1)
        arg = w.to_dense() - tau * adj
        e = random_complex(rng, 3)
        f = random_complex(rng, 5)
        right = composed_right_action(w, tau, bmap, y, e, m1)
        left = composed_left_action(w, tau, bmap, y, f, m2)
        assert np.allclose(right, arg @ h1 @ e, atol=1e-10)
        assert np.allclose(left, arg.conj().T @ h2 @ f, atol=1e-10)

    def test_hermitian_composition_matches_dense(self):
        rng = np.random.default_rng(10)
        m = random_spd_metric(rng, 4)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 5, 4), m)
        w = random_hermitian_factored(rng, 4, 2, m, signed=True)
        y = rng.standard_normal(5)
        tau = 0.3
        h = m.to_dense()
        # symmetric adjoint as a dense matrix from its action on a basis
        eye = np.eye(4, dtype=complex)
        adj_h = np.stack([qmap.sym_adjoint_action(y, eye[:, j]) for j in range(4)], axis=1)
        arg_h = (w.to_dense() @ h) - tau * adj_h
        e = random_complex(rng, 4)
        out = composed_hermitian_action(w, tau, qmap, y, e, m)
        assert np.allclose(out, arg_h @ e, atol=1e-10)


class TestAdjointMetricTransform:
    def test_identity_metrics_unchanged(self):
        rng = np.random.default_rng(11)
        bmap = make_toy(rng, 4, 3, 5)
        y = random_complex(rng, 4)
        metrics = (EuclideanMetric(3), EuclideanMetric(5), EuclideanMetric(4))
        right, left = adjoint_metric_transform(
            bmap.hs_adjoint_left, bmap.hs_adjoint_right, metrics, y
        )
        e = random_complex(rng, 3)
        f = random_complex(rng, 5)
        assert np.allclose(right(e), bmap.hs_adjoint_left(y, e), atol=1e-12)
        assert np.allclose(left(f), bmap.hs_adjoint_right(y, f), atol=1e-12)

    def test_scalar_inverse_weighting(self):
        a = np.array([2.4 + 0.5j])
        metrics = (DenseMetric([[1.0]]), DenseMetric([[4.0]]), DenseMetric([[1.0]]))
        right, _ = adjoint_metric_transform(
            lambda z, e: a, lambda z, f: a, metrics, np.array([1.0])
        )
        assert np.allclose(right(np.array([1.0 + 0j])), a / 4.0)

    def test_duality_random_probes(self):
        rng = np.random.default_rng(12)
        m1 = random_spd_metric(rng, 3)
        m2 = random_spd_metric(rng, 5)
        km = random_spd_metric(rng, 4)
        bmap = make_toy(rng, 4, 3, 5)
        h1, h2, kd = m1.to_dense(), m2.to_dense(), km.to_dense()
        for _ in range(20):
            y = random_complex(rng, 4)
            right, left = adjoint_metric_transform(
                bmap.hs_adjoint_left, bmap.hs_adjoint_right, (m1, m2, km), y
            )
            adj = np.linalg.inv(h2) @ dense_hs_adjoint(bmap.tensor, kd @ y) @ np.linalg.inv(h1)
            e = random_complex(rng, 3)
            f = random_complex(rng, 5)
            assert np.allclose(right(e), adj @ h1 @ e, atol=1e-9)
            assert np.allclose(left(f), adj.conj().T @ h2 @ f, atol=1e-9)


class TestReweightedActions:
    def setup_toy(self, rng, zero_weights=False):
        base1 = random_spd_metric(rng, 4)
        base2 = random_spd_metric(rng, 6)
        weights1 = np.zeros(2) if zero_weights else None
        m1 = make_reweighted(base1, rng, 2, weights=weights1)
        m2 = make_reweighted(base2, rng, 2, weights=weights1)
        bmap = make_toy(rng, 5, 4, 6, base1, base2)
        w = random_factored(rng, 4, 6, 2, m1, m2)
        y = random_complex(rng, 5)
        return bmap, w, y, m1, m2

    def test_zero_weights_reduce_to_plain(self):
        rng = np.random.default_rng(13)
        bmap, w, y, m1, m2 = self.setup_toy(rng, zero_weights=True)
        e = random_complex(rng, 4)
        f = random_complex(rng, 6)
        plain_r = composed_right_action(w, 0.9, bmap, y, e, m1)
        rw_r = reweighted_composed_right(w, 0.9, bmap, y, e, m1, m2)
        assert np.allclose(plain_r, rw_r, atol=1e-12)
        plain_l = composed_left_action(w, 0.9, bmap, y, f, m2)
        rw_l = reweighted_composed_left(w, 0.9, bmap, y, f, m1, m2)
        assert np.allclose(plain_l, rw_l, atol=1e-12)

    def test_empty_tensor_pure_transformed_adjoint(self):
        rng = np.random.default_rng(14)
        bmap, _, y, m1, m2 = self.setup_toy(rng)
        w0 = FactoredTensor.empty(4, 6)
        e = random_complex(rng, 4)
        out = reweighted_composed_right(w0, 1.0, bmap, y, e, m1, m2)
        expected = -m2.transform(bmap.partial_adjoint_left(y, e), adjoint=True)
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_dense_reweighted_adjoint(self):
        rng = np.random.default_rng(15)
        bmap, w, y, m1, m2 = self.setup_toy(rng)
        tau = 0.8
        h1x = m1.to_dense()
        h2x = m2.to_dense()
        adj = np.linalg.inv(h2x) @ dense_hs_adjoint(bmap.tensor, y) @ np.linalg.inv(h1x)
        arg = w.to_dense() - tau * adj
        e = random_complex(rng, 4)
        f = random_complex(rng, 6)
        right = reweighted_composed_right(w, tau, bmap, y, e, m1, m2)
        left = reweighted_composed_left(w, tau, bmap, y, f, m1, m2)
        assert np.allclose(right, arg @ h1x @ e, atol=1e-9)
        assert np.allclose(left, arg.conj().T @ h2x @ f, atol=1e-9)

    def test_hermitian_reweighted_matches_dense(self):
        rng = np.random.default_rng(16)
        base = random_spd_metric(rng, 5)
        m = make_reweighted(base, rng, 2)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 6, 5), base)
        w = random_hermitian_factored(rng, 5, 2, m)
        y = rng.standard_normal(6)
        tau = 0.4
        hx = m.to_dense()
        hx_inv = np.linalg.inv(hx)
        # Euclidean symmetric adjoint, resolved against the reweighted metric
        hs = dense_hs_adjoint(qmap.bilinear().tensor, np.asarray(y, dtype=complex))
        hs = 0.5 * (hs + hs.conj().T)
        arg = w.to_dense() - tau * (hx_inv @ hs @ hx_inv)
        e = random_complex(rng, 5)
        out = reweighted_composed_hermitian(w, tau, qmap, y, e, m)
        assert np.allclose(out, arg @ hx @ e, atol=1e-9)

    def test_two_route_equivalence(self):
        # wrapping the base adjoint with T equals rebuilding from the
        # Euclidean adjoint with reweighted inverses
        rng = np.random.default_rng(17)
        bmap, w, y, m1, m2 = self.setup_toy(rng)
        e = random_complex(rng, 4)
        via_transform = m2.transform(bmap.partial_adjoint_left(y, e), adjoint=True)
        right_fn, _ = adjoint_metric_transform(
            bmap.hs_adjoint_left, bmap.hs_adjoint_right, (m1, m2, EuclideanMetric(5)), y
        )
        assert np.allclose(via_transform, right_fn(e), atol=1e-9)


class TestDuality:
    def test_bilinear_duality_identity(self):
        rng = np.random.default_rng(18)
        for metrics in ("euclid", "weighted"):
            if metrics == "euclid":
                m1, m2 = EuclideanMetric(4), EuclideanMetric(6)
            else:
                m1, m2 = random_spd_metric(rng, 4), random_spd_metric(rng, 6)
            bmap = make_toy(rng, 5, 4, 6, m1, m2)
            h1, h2 = m1.to_dense(), m2.to_dense()
            for _ in range(20):
                w = random_factored(rng, 4, 6, 3, m1, m2)
                y = random_complex(rng, 5)
                lhs = float(np.real(np.vdot(y, lifted_apply(bmap, w))))
                adj = np.linalg.inv(h2) @ dense_hs_adjoint(bmap.tensor, y) @ np.linalg.inv(h1)
                rhs = tensor_inner(w.to_dense(), adj, h1, h2)
                assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))

    def test_partial_adjoint_consistency(self):
        rng = np.random.default_rng(19)
        m1 = random_spd_metric(rng, 4)
        m2 = random_spd_metric(rng, 6)
        bmap = make_toy(rng, 5, 4, 6, m1, m2)
        for _ in range(20):
            e = random_complex(rng, 4)
            f = random_complex(rng, 6)
            y = random_complex(rng, 5)
            data = float(np.real(np.vdot(y, bmap.apply(e, f))))
            via_left = m2.inner(f, bmap.partial_adjoint_left(y, e))
            via_right = m1.inner(e, bmap.partial_adjoint_right(y, f))
            assert data == pytest.approx(via_left, abs=1e-8 * max(1.0, abs(data)))
            assert data == pytest.approx(via_right, abs=1e-8 * max(1.0, abs(data)))

    def test_quadratic_polarization(self):
        rng = np.random.default_rng(20)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 5, 4), EuclideanMetric(4))
        bmap = qmap.bilinear()
        for _ in range(20):
            e = random_complex(rng, 4)
            f = random_complex(rng, 4)
            sym = 0.5 * (bmap.apply(e, f) + bmap.apply(f, e))
            pol = 0.5 * (qmap.apply(e + f) - qmap.apply(e) - qmap.apply(f))
            assert np.allclose(sym, pol, atol=1e-9)

    def test_quadratic_sym_adjoint_duality(self):
        rng = np.random.default_rng(21)
        m = random_spd_metric(rng, 4)
        qmap = DenseQuadratic(random_hermitian_tensor_stack(rng, 5, 4), m)
        h = m.to_dense()
        for _ in range(20):
            e = random_complex(rng, 4)
            y = rng.standard_normal(5)
            lhs = float(np.real(np.vdot(y, qmap.apply(e))))
            rhs = float(np.real(np.vdot(e, qmap.sym_adjoint_action(y, e) )))
            # <Q(e), y> = <Q*(y) H e, e> via the full pairing
            rhs_metric = float(np.real(np.conj(qmap.sym_adjoint_action(y, e)) @ h @ e))
            assert lhs == pytest.approx(rhs_metric, abs=1e-8 * max(1.0, abs(lhs)))


def unshared_operator_norm(bmap, iters):
    """operator_norm's start and loop with every factor passed as a plain
    vector, so each call recomputes what it needs.  Returns the estimate,
    its power steps and the number of start candidates."""
    starts = [s / bmap.h1.norm(s) for s in bmap.norm_starts()]
    quotients = [float(np.linalg.norm(bmap.apply(s, s))) for s in starts]
    u = starts[int(np.argmax(quotients))]
    y = bmap.apply(u, u)
    best = ny = float(np.linalg.norm(y))
    steps = 0
    while steps < iters:
        y = y / ny
        u_new = bmap.partial_adjoint_right(y, u)
        u = u_new / bmap.h1.norm(u_new)
        y = bmap.apply(u, u)
        ny = float(np.linalg.norm(y))
        steps += 1
        settled = ny < best * (1.0 + 1e-3)
        best = max(best, ny)
        if settled:
            break
    return best, steps, len(starts)


def alternating_operator_norm(bmap, iters=30):
    """operator_norm's start and stop rule with the alternating power step
    of a map whose norm need not be reached with equal factors."""
    starts = [s / bmap.h1.norm(s) for s in bmap.norm_starts()]
    u = v = starts[int(np.argmax([np.linalg.norm(bmap.apply(s, s)) for s in starts]))]
    y = bmap.apply(u, v)
    best = ny = float(np.linalg.norm(y))
    for _ in range(iters):
        y = y / ny
        u_new = bmap.partial_adjoint_right(y, v)
        u = u_new / bmap.h1.norm(u_new)
        v_new = bmap.partial_adjoint_left(y, u)
        v = v_new / bmap.h2.norm(v_new)
        y = bmap.apply(u, v)
        ny = float(np.linalg.norm(y))
        settled = ny < best * (1.0 + 1e-3)
        best = max(best, ny)
        if settled:
            break
    return best


def fourier_problem(shape, metric_kind, count=3, seed=4):
    return PRProblem(
        masks=make_rademacher_masks(shape, count, seed=seed),
        m2=2 * shape[0] + 1,
        m1=2 * shape[1],
        metric=default_metric(shape, metric_kind),
    )


def dense_lifted_norm(bmap):
    """2-norm of the lifted linear map v u^* -> B(u, v), built column by
    column from the images of basis factor pairs (Euclidean metrics)."""
    n = bmap.h1.dim
    basis = [bmap.prepare_factor(e) for e in np.eye(n, dtype=complex)]
    columns = [bmap.apply(eb, ea) for ea in basis for eb in basis]
    return float(np.linalg.norm(np.stack(columns, axis=1), 2))


class TestOperatorNorm:
    @pytest.mark.parametrize("metric_kind", ["euclidean", "sobolev"])
    @pytest.mark.parametrize(
        "dense_limit", [pytest.param(np.inf, id="dense"), pytest.param(-1, id="pruned")]
    )
    def test_shared_spectra_keep_the_estimate(self, monkeypatch, metric_kind, dense_limit):
        # both transform kernels; each candidate is transformed once, and
        # each power step transforms its one new factor once
        monkeypatch.setattr(phase_retrieval, "DENSE_DFT_MAX_WORK", dense_limit)
        qmap = MaskedFourierMap(fourier_problem((6, 7), metric_kind))
        expected, steps, candidates = unshared_operator_norm(qmap.bilinear(), iters=30)
        calls = []
        inner = phase_retrieval._masked_spectra

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(phase_retrieval, "_masked_spectra", counting)
        est = operator_norm(qmap, iters=30, seed=9)
        assert 1 <= est.iterations == steps < 30
        assert est.value == expected
        assert len(calls) == candidates + est.iterations

    @pytest.mark.parametrize("metric_kind", ["euclidean", "sobolev"])
    @pytest.mark.parametrize(
        "dense_limit", [pytest.param(np.inf, id="dense"), pytest.param(-1, id="pruned")]
    )
    def test_norm_reached_with_equal_factors(self, monkeypatch, metric_kind, dense_limit):
        # |B(u, v)|^2 <= |B(u, u)| |B(v, v)|, so one factor per power step
        # loses nothing against the alternating step
        monkeypatch.setattr(phase_retrieval, "DENSE_DFT_MAX_WORK", dense_limit)
        rng = np.random.default_rng(31)
        for seed in range(3):
            bmap = MaskedFourierMap(fourier_problem((6, 7), metric_kind, seed=seed)).bilinear()
            assert bmap.norm_on_diagonal
            for _ in range(10):
                u, v = (x / bmap.h1.norm(x) for x in (random_complex(rng, 42), random_complex(rng, 42)))
                lhs = np.linalg.norm(bmap.apply(u, v)) ** 2
                rhs = np.linalg.norm(bmap.apply(u, u)) * np.linalg.norm(bmap.apply(v, v))
                assert lhs <= rhs * (1.0 + 1e-12)
            alternating = alternating_operator_norm(bmap)
            assert operator_norm(bmap).value >= (1.0 - 5e-3) * alternating

    @pytest.mark.parametrize("shape", [(4, 4), (6, 7)])
    def test_never_exceeds_the_lifted_norm(self, shape):
        bmap = MaskedFourierMap(fourier_problem(shape, "euclidean")).bilinear()
        assert operator_norm(bmap).value <= dense_lifted_norm(bmap) * (1.0 + 1e-12)

    @pytest.mark.parametrize("metric_kind", ["euclidean", "sobolev"])
    def test_at_least_the_best_start(self, metric_kind):
        bmap = MaskedFourierMap(fourier_problem((6, 7), metric_kind)).bilinear()
        quotients = [
            np.linalg.norm(bmap.apply(s, s)) / bmap.h1.norm(s) ** 2 for s in bmap.norm_starts()
        ]
        assert len(quotients) == 4
        assert operator_norm(bmap).value >= max(quotients) * (1.0 - 1e-12)

    def test_scalar_product_map(self):
        bmap = DenseBilinear(np.ones((1, 1, 1)), EuclideanMetric(1), EuclideanMetric(1))
        est = operator_norm(bmap, iters=20)
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.iterations >= 1

    def test_homogeneity(self):
        rng = np.random.default_rng(22)
        tensor = random_complex(rng, 4 * 3 * 5).reshape(4, 5, 3)
        b1 = DenseBilinear(tensor, EuclideanMetric(3), EuclideanMetric(5))
        b2 = DenseBilinear(2.5 * tensor, EuclideanMetric(3), EuclideanMetric(5))
        e1 = operator_norm(b1, iters=40)
        e2 = operator_norm(b2, iters=40)
        assert e2.value == pytest.approx(2.5 * e1.value, rel=1e-8)

    def test_structured_toy_matches_flattened_svd(self):
        # separable coefficients make the lifted top singular matrix rank one,
        # so the alternating iteration attains the flattened operator norm
        rng = np.random.default_rng(23)
        a = random_complex(rng, 6)
        b = random_complex(rng, 6)
        b -= (np.vdot(a, b) / np.vdot(a, a)) * a
        v1, v2 = random_complex(rng, 5), random_complex(rng, 5)
        v2 -= (np.vdot(v1, v2) / np.vdot(v1, v1)) * v1
        u1, u2 = random_complex(rng, 4), random_complex(rng, 4)
        u2 -= (np.vdot(u1, u2) / np.vdot(u1, u1)) * u1
        tensor = np.einsum("m,i,j->mij", a, v1, np.conj(u1)) + 0.3 * np.einsum(
            "m,i,j->mij", b, v2, np.conj(u2)
        )
        bmap = DenseBilinear(tensor, EuclideanMetric(4), EuclideanMetric(5))
        est = operator_norm(bmap, iters=60)
        sigma0 = np.linalg.norm(bmap.lift_matrix(), 2)
        assert est.value == pytest.approx(sigma0, rel=1e-6)
        assert est.value <= sigma0 + 1e-9
