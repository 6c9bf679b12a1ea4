import numpy as np
import pytest

from liftkit.errors import NoSolutionError
from liftkit.lowrank import FactoredTensor, HermitianFactored, carried_images
from liftkit.metric import EuclideanMetric

from helpers import (
    dense_weighted_evd,
    dense_weighted_svd,
    random_complex,
    random_factored,
    random_hermitian_factored,
    random_spd_metric,
    tensor_inner,
)


def basis_vec(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


def factored_case(rng, hermitian, n1, n2, rank):
    """A random tensor and its two metrics; a Hermitian one has signed values
    and lives in one metric of dimension n1."""
    m1 = random_spd_metric(rng, n1)
    if hermitian:
        return random_hermitian_factored(rng, n1, rank, m1, signed=True), m1, m1
    m2 = random_spd_metric(rng, n2)
    return random_factored(rng, n1, n2, rank, m1, m2), m1, m2


KINDS = pytest.mark.parametrize("hermitian", [False, True], ids=["general", "hermitian"])


class TestRightAction:
    def test_empty_gives_zero(self):
        w = FactoredTensor.empty(3, 4)
        out = w.right_action(EuclideanMetric(3), random_complex(np.random.default_rng(0), 3))
        assert out.shape == (4,)
        assert np.allclose(out, 0.0)

    def test_rank_one_euclidean(self):
        w = FactoredTensor(
            right=basis_vec(2, 0)[:, None], left=basis_vec(2, 1)[:, None], values=np.array([2.0])
        )
        out = w.right_action(EuclideanMetric(2), basis_vec(2, 0))
        assert np.allclose(out, 2.0 * basis_vec(2, 1))

    @KINDS
    def test_matches_dense_action(self, hermitian):
        rng = np.random.default_rng(1)
        w, m1, m2 = factored_case(rng, hermitian, 5, 7, 3)
        dense = w.to_dense()
        for _ in range(10):
            e = random_complex(rng, 5)
            expected = dense @ m1.apply(e)
            assert np.linalg.norm(w.right_action(m1, e) - expected) <= 1e-12 * np.linalg.norm(
                expected
            )


class TestLeftAction:
    def test_empty_gives_zero(self):
        w = FactoredTensor.empty(3, 4)
        assert np.allclose(w.left_action(EuclideanMetric(4), basis_vec(4, 0)), 0.0)

    def test_rank_one_euclidean(self):
        w = FactoredTensor(
            right=basis_vec(2, 0)[:, None], left=basis_vec(2, 1)[:, None], values=np.array([2.0])
        )
        out = w.left_action(EuclideanMetric(2), basis_vec(2, 1))
        assert np.allclose(out, 2.0 * basis_vec(2, 0))

    @KINDS
    def test_matches_dense_action(self, hermitian):
        rng = np.random.default_rng(2)
        w, m1, m2 = factored_case(rng, hermitian, 6, 4, 3)
        dense = w.to_dense()
        for _ in range(10):
            f = random_complex(rng, w.shape[0])
            expected = dense.conj().T @ m2.apply(f)
            assert np.linalg.norm(w.left_action(m2, f) - expected) <= 1e-12 * np.linalg.norm(
                expected
            )


class TestHermitianAction:
    def test_empty(self):
        w = HermitianFactored.empty(5)
        assert np.allclose(w.action(EuclideanMetric(5), basis_vec(5, 2)), 0.0)

    def test_single_negative_pair(self):
        w = HermitianFactored(factors=basis_vec(3, 0)[:, None], values=np.array([-1.0]))
        out = w.action(EuclideanMetric(3), basis_vec(3, 0))
        assert np.allclose(out, -basis_vec(3, 0))

    def test_matches_dense_action(self):
        rng = np.random.default_rng(3)
        m = random_spd_metric(rng, 6)
        w = random_hermitian_factored(rng, 6, 3, m, signed=True)
        dense = w.to_dense()
        for _ in range(10):
            e = random_complex(rng, 6)
            expected = dense @ m.apply(e)
            assert np.linalg.norm(w.action(m, e) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_right_left_and_factors_are_one_array(self):
        w = random_hermitian_factored(np.random.default_rng(12), 6, 3, EuclideanMetric(6))
        assert w.right is w.factors and w.left is w.factors
        assert w.shape == (6, 6) and w.dim == 6

    def test_carry_holds_the_images_under_right(self, monkeypatch):
        rng = np.random.default_rng(13)
        m = random_spd_metric(rng, 6)
        w = random_hermitian_factored(rng, 6, 3, m, signed=True)
        images = np.stack([m.apply(col) for col in w.factors.T], axis=1)
        assert w.carry((m, m), (images, images)) is w
        assert np.array_equal(carried_images(w, "right", m), images.conj())
        assert carried_images(w, "left", m) is None
        # the action pairs e with the carried images and applies no metric
        e = random_complex(rng, 6)
        expected = w.to_dense() @ m.apply(e)
        monkeypatch.setattr(m, "apply", lambda x: pytest.fail("metric applied"))
        assert np.linalg.norm(w.action(m, e) - expected) <= 1e-12 * np.linalg.norm(expected)


class TestProjectiveNorm:
    def test_empty_is_zero(self):
        assert FactoredTensor.empty(2, 2).projective_norm() == 0.0

    def test_sum_of_values(self):
        w = FactoredTensor(
            right=np.eye(2, dtype=complex),
            left=np.eye(2, dtype=complex),
            values=np.array([3.0, 1.0]),
        )
        assert w.projective_norm() == pytest.approx(4.0)

    def test_matches_dense_svd_in_weighted_metric(self):
        rng = np.random.default_rng(6)
        m1 = random_spd_metric(rng, 4)
        m2 = random_spd_metric(rng, 5)
        w = random_factored(rng, 4, 5, 4, m1, m2)
        sig, _, _ = dense_weighted_svd(w.to_dense(), m1.to_dense(), m2.to_dense())
        assert w.projective_norm() == pytest.approx(np.sum(sig), abs=1e-10)


class TestLeadingRankOne:
    def test_recovers_rank_one_vector(self):
        rng = np.random.default_rng(7)
        u = random_complex(rng, 6)
        m = EuclideanMetric(6)
        unit = u / m.norm(u)
        w = HermitianFactored(factors=unit[:, None], values=np.array([m.norm(u) ** 2]))
        rec = w.leading_rank_one()
        assert np.linalg.norm(np.outer(rec, rec.conj()) - w.to_dense()) <= 1e-10

    def test_rank_two_takes_leading(self):
        w = HermitianFactored(
            factors=np.eye(3, dtype=complex)[:, :2], values=np.array([4.0, 1.0])
        )
        assert np.allclose(w.leading_rank_one(), 2.0 * basis_vec(3, 0))

    def test_near_rank_one_matches_dense_eig(self):
        rng = np.random.default_rng(8)
        u = random_complex(rng, 5)
        u /= np.linalg.norm(u)
        dense = np.outer(u, u.conj()) + 1e-8 * np.eye(5)
        lam, vecs = dense_weighted_evd(dense, np.eye(5, dtype=complex))
        w = HermitianFactored(factors=vecs[:, :1], values=lam[:1])
        rec = w.leading_rank_one()
        ref = np.sqrt(lam[0]) * vecs[:, 0]
        corr = abs(np.vdot(ref, rec))
        err = np.sqrt(max(np.linalg.norm(rec) ** 2 + np.linalg.norm(ref) ** 2 - 2 * corr, 0))
        assert err <= 1e-3

    def test_empty_raises(self):
        with pytest.raises(NoSolutionError):
            HermitianFactored.empty(3).leading_rank_one()

    def test_nonpositive_leading_raises(self):
        w = HermitianFactored(factors=basis_vec(2, 0)[:, None], values=np.array([-1.0]))
        with pytest.raises(NoSolutionError):
            w.leading_rank_one()

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(9)
        m = EuclideanMetric(5)
        w = random_hermitian_factored(rng, 5, 2, m)
        rotated = HermitianFactored(
            factors=np.exp(1j * 0.77) * w.factors, values=w.values
        )
        assert np.allclose(w.leading_rank_one(), rotated.leading_rank_one(), atol=1e-12)


class TestInvariants:
    def test_dense_equivalence_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n1 = rng.integers(2, 12)
            n2 = rng.integers(2, 12)
            r = int(min(5, n1, n2))
            m1 = random_spd_metric(rng, n1)
            m2 = random_spd_metric(rng, n2)
            w = random_factored(rng, int(n1), int(n2), r, m1, m2)
            dense = w.to_dense()
            e = random_complex(rng, int(n1))
            f = random_complex(rng, int(n2))
            assert np.allclose(w.right_action(m1, e), dense @ m1.apply(e), atol=1e-12)
            assert np.allclose(w.left_action(m2, f), dense.conj().T @ m2.apply(f), atol=1e-12)

    def test_representation_inner_product(self):
        rng = np.random.default_rng(11)
        m1 = random_spd_metric(rng, 5)
        m2 = random_spd_metric(rng, 6)
        w = random_factored(rng, 5, 6, 3, m1, m2)
        tensor_sq = tensor_inner(w.to_dense(), w.to_dense(), m1.to_dense(), m2.to_dense())
        assert tensor_sq == pytest.approx(float(np.sum(w.values**2)), abs=1e-10)

    @KINDS
    def test_pruning_drops_tiny_values(self, hermitian):
        if hermitian:
            # signed values: the tiny negative one goes, the large negative one stays
            values, kept = np.array([1.0, 1e-10, -1e-16, -0.5]), [0, 1, 3]
            w = HermitianFactored(factors=np.eye(4, dtype=complex), values=values)
        else:
            values, kept = np.array([1.0, 1e-10, 1e-16]), [0, 1]
            w = FactoredTensor(
                right=np.eye(3, dtype=complex), left=np.eye(3, dtype=complex), values=values
            )
        out = w.pruned()
        assert type(out) is type(w)
        assert np.array_equal(out.values, values[kept])
        assert np.array_equal(out.right, w.right[:, kept])
        assert np.array_equal(out.left, w.left[:, kept])
        assert (out.left is out.right) == hermitian

    @KINDS
    def test_scaling_keeps_the_kind_and_signs(self, hermitian):
        rng = np.random.default_rng(14)
        w, _, _ = factored_case(rng, hermitian, 5, 4, 3)
        out = w.scaled(2.5)
        assert type(out) is type(w)
        assert np.array_equal(out.values, 2.5 * w.values)
        assert np.allclose(out.to_dense(), 2.5 * w.to_dense(), atol=1e-14)
        assert (out.left is out.right) == hermitian
