import numpy as np
import pytest

from liftkit.errors import MetricSolveError
from liftkit.metric import (
    CARRY_MIN_NORM,
    DENSE_DCT_MAX_WORK,
    DenseDCT,
    EuclideanMetric,
    FastDCT,
    ReweightedMetric,
    SobolevMetric,
    SobolevStencil,
    orthonormalize,
    project_carried,
    project_out,
)

from helpers import random_complex, random_spd_metric


def dense_stencil_matrix(shape, op, in_shape):
    """Brute-force dense assembly of a stencil action."""
    n = in_shape[0] * in_shape[1]
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        cols.append(op(e.reshape(in_shape)).ravel())
    return np.stack(cols, axis=1)


def make_reweighted(base, rng, count, weights=None):
    dirs = orthonormalize([random_complex(rng, base.dim) for _ in range(count)], base)
    if weights is None:
        weights = rng.uniform(0.1, 0.9, size=len(dirs))
    return ReweightedMetric(base, np.stack(dirs, axis=0), weights)


class TestInner:
    def test_euclidean_basis(self):
        m = EuclideanMetric(4)
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        assert m.inner(e0, e0) == pytest.approx(1.0)

    def test_imaginary_pair_is_orthogonal(self):
        m = EuclideanMetric(3)
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        assert m.inner(1j * e0, e0) == pytest.approx(0.0)

    def test_identity_weight_sobolev_matches_euclidean(self):
        rng = np.random.default_rng(0)
        sob = SobolevMetric((3, 4), (1.0, 0.0, 0.0))
        eu = EuclideanMetric(12)
        x = random_complex(rng, 12)
        y = random_complex(rng, 12)
        assert sob.inner(x, y) == pytest.approx(eu.inner(x, y), abs=1e-12)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(1)
        sob = SobolevMetric((4, 5), (0.25, 1.0, 1.0))
        rew = make_reweighted(EuclideanMetric(20), rng, 3)
        for m in (EuclideanMetric(20), sob, rew):
            x = random_complex(rng, 20)
            y = random_complex(rng, 20)
            assert m.inner(x, y) == pytest.approx(m.inner(y, x), rel=1e-12)
            assert m.inner(x, x) > 0
            assert m.inner(np.zeros(20, dtype=complex), np.zeros(20, dtype=complex)) == 0.0

    def test_dimension_mismatch(self):
        m = EuclideanMetric(4)
        with pytest.raises(ValueError):
            m.inner(np.zeros(3, dtype=complex), np.zeros(4, dtype=complex))


class TestSobolevStencil:
    def test_d1_of_constant_is_zero(self):
        st = SobolevStencil((3, 5))
        img = np.ones((3, 5), dtype=complex)
        assert np.allclose(st.d1(img), 0.0)
        assert np.allclose(st.d2(img), 0.0)

    @pytest.mark.parametrize("which", ["d1", "d2"])
    def test_adjoint_identity(self, which):
        rng = np.random.default_rng(7)
        st = SobolevStencil((4, 6))
        fwd = getattr(st, which)
        adj = getattr(st, which + "_adjoint")
        for _ in range(20):
            u = random_complex(rng, 24).reshape(4, 6)
            v_shape = fwd(u).shape
            v = random_complex(rng, v_shape[0] * v_shape[1]).reshape(v_shape)
            lhs = np.real(np.vdot(v, fwd(u)))
            rhs = np.real(np.vdot(adj(v), u))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSobolevApply:
    def test_identity_weights(self):
        rng = np.random.default_rng(2)
        m = SobolevMetric((3, 3), (1.0, 0.0, 0.0))
        u = random_complex(rng, 9)
        assert np.allclose(m.apply(u), u)

    def test_matches_dense_assembly_on_2x2(self):
        m = SobolevMetric((2, 2), (0.0 + 1e-12, 1.0, 0.0))
        st = SobolevStencil((2, 2))
        dense = dense_stencil_matrix((2, 2), lambda img: st.d1_adjoint(st.d1(img)), (2, 2))
        u = np.zeros(4, dtype=complex)
        u[0] = 1.0
        expected = dense @ u
        got = m.apply(u) - 1e-12 * u
        assert np.allclose(got, expected, atol=1e-12)

    def test_constant_image_sees_only_mass_term(self):
        m = SobolevMetric((4, 4), (0.7, 2.0, 3.0))
        u = np.full(16, 1.5 + 0.5j)
        assert np.allclose(m.apply(u), 0.7 * u)

    def test_matches_dense_assembly_random(self):
        rng = np.random.default_rng(3)
        mu = (0.25, 1.0, 1.0)
        m = SobolevMetric((3, 4), mu)
        st = SobolevStencil((3, 4))

        def full(img_vec):
            img = img_vec.reshape(3, 4)
            out = mu[0] * img + mu[1] * st.d1_adjoint(st.d1(img)) + mu[2] * st.d2_adjoint(
                st.d2(img)
            )
            return out.ravel()

        dense = dense_stencil_matrix((3, 4), lambda img: full(img.ravel()).reshape(3, 4), (3, 4))
        u = random_complex(rng, 12)
        assert np.allclose(m.apply(u), dense @ u, atol=1e-12)


class TestApplyInv:
    def test_euclidean_is_identity(self):
        rng = np.random.default_rng(4)
        m = EuclideanMetric(6)
        b = random_complex(rng, 6)
        assert np.allclose(m.apply_inv(b), b)

    def test_reweighted_closed_form_on_promoted_direction(self):
        rng = np.random.default_rng(5)
        base = EuclideanMetric(8)
        dirs = orthonormalize([random_complex(rng, 8)], base)
        lam = 0.6
        m = ReweightedMetric(base, np.stack(dirs, axis=0), [lam])
        phi = dirs[0]
        b = m.base.apply(phi)  # transformed direction
        assert np.allclose(m.apply_inv(b), phi / (1.0 - lam), atol=1e-12)

    def test_sobolev_inverse_roundtrip(self):
        rng = np.random.default_rng(6)
        m = SobolevMetric((5, 7), (0.25, 1.0, 1.0))
        u = random_complex(rng, 35)
        x = m.apply_inv(m.apply(u))
        assert np.linalg.norm(x - u) <= 1e-9 * np.linalg.norm(u)

    def test_roundtrip_all_kinds(self):
        rng = np.random.default_rng(7)
        sob = SobolevMetric((4, 4), (0.5, 1.0, 2.0))
        rew = make_reweighted(sob, rng, 2)
        for m in (EuclideanMetric(16), sob, rew):
            x = random_complex(rng, 16)
            b = m.apply(x)
            assert np.linalg.norm(m.apply(m.apply_inv(b)) - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_reweighted_roundtrip_by_promotion_count(self, count):
        rng = np.random.default_rng(20 + count)
        base = EuclideanMetric(10)
        m = make_reweighted(base, rng, count) if count else ReweightedMetric(
            base, np.zeros((0, 10)), np.zeros(0)
        )
        for _ in range(10):
            x = random_complex(rng, 10)
            out = m.apply_inv(m.apply(x))
            assert np.linalg.norm(out - x) <= 1e-10 * np.linalg.norm(x)


def crossover_grids():
    """The largest 1 x n grid that the DCT matrices serve, and the next grid up,
    turned to (n + 1) x 1, which scipy's DCT serves."""
    n = 1
    while (n + 1) * (n + 2) <= DENSE_DCT_MAX_WORK:
        n += 1
    return [(1, n), (n + 1, 1)]


def dense_sobolev(shape, mu):
    """H assembled column by column from the stencil's difference operators."""
    st = SobolevStencil(shape)

    def full(img):
        return mu[0] * img + mu[1] * st.d1_adjoint(st.d1(img)) + mu[2] * st.d2_adjoint(st.d2(img))

    return dense_stencil_matrix(shape, full, shape)


SOBOLEV_MUS = [(0.25, 1.0, 1.0), (0.7, 0.0, 3.0), (0.7, 2.0, 0.0)]


class TestSobolevDenseReference:
    """apply and apply_inv against the assembled H and its dense solve."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3), (16, 16)]
                             + crossover_grids())
    @pytest.mark.parametrize("mu", SOBOLEV_MUS)
    def test_matches_dense_matrix_and_solve(self, shape, mu):
        rng = np.random.default_rng(shape[0] * 131 + shape[1])
        m = SobolevMetric(shape, mu)
        dense = dense_sobolev(shape, mu)
        inputs = (rng.standard_normal(m.dim), random_complex(rng, m.dim))
        columns = np.stack(inputs, axis=1)
        applied = dense @ columns
        solved = np.linalg.solve(dense, columns)
        for k, x in enumerate(inputs):
            ref = applied[:, k]
            assert np.linalg.norm(m.apply(x) - ref) <= 1e-12 * np.linalg.norm(ref)
            ref = solved[:, k]
            assert np.linalg.norm(m.apply_inv(x) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_crossover_grids_cover_both_dct_pairs(self):
        below, above = crossover_grids()
        assert isinstance(SobolevMetric(below, SOBOLEV_MUS[0])._dct, DenseDCT)
        assert isinstance(SobolevMetric(above, SOBOLEV_MUS[0])._dct, FastDCT)

    @pytest.mark.parametrize("shape", [(3, 5)] + crossover_grids())
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused(self, shape, bad):
        m = SobolevMetric(shape, SOBOLEV_MUS[0])
        b = np.ones(m.dim, dtype=complex)
        b[-1] = bad
        with pytest.raises(MetricSolveError):
            m.apply_inv(b)

    @pytest.mark.parametrize("shape", [(3, 5)] + crossover_grids())
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("where", [0, 1, -1])
    def test_non_finite_entry_anywhere_refused(self, shape, bad, part, where):
        # next to huge finite entries, so the input's sum overflows as well
        m = SobolevMetric(shape, SOBOLEV_MUS[0])
        b = np.full(m.dim, 1e308 * (1 - 1j))
        b[where] = complex(bad, 1.0) if part == "real" else complex(1.0, bad)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(MetricSolveError):
            m.apply_inv(b)

    def test_opposite_infinities_refused(self):
        # their sum is NaN, not inf
        m = SobolevMetric((3, 5), SOBOLEV_MUS[0])
        b = np.ones(m.dim, dtype=complex)
        b[0], b[-1] = np.inf, -np.inf
        with np.errstate(invalid="ignore"), pytest.raises(MetricSolveError):
            m.apply_inv(b)

    @pytest.mark.parametrize("shape", [(3, 5)] + crossover_grids())
    def test_finite_input_whose_sum_overflows_accepted(self, shape):
        # apply_inv sums its input before it checks entry by entry; finite
        # entries near 1e308 overflow that sum and must still be solved
        m = SobolevMetric(shape, (16.0, 1.0, 1.0))
        b = np.zeros(m.dim, dtype=complex)
        b[0] = b[-1] = 1e308 * (1 - 1j)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.add.reduce(b))
            got = m.apply_inv(b)
        if isinstance(m._dct, DenseDCT):
            # scipy's unnormalized DCT overflows on such entries; the DCT
            # matrices do not, and the inverse is linear
            scale = 2.0**-1000
            ref = m.apply_inv(b * scale)
            assert np.linalg.norm(got * scale - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", [(3, 5)] + crossover_grids())
    def test_wrong_length_refused(self, shape):
        m = SobolevMetric(shape, SOBOLEV_MUS[0])
        for op in (m.apply, m.apply_inv):
            with pytest.raises(ValueError):
                op(np.ones(m.dim + 1, dtype=complex))


class TestReweightedApply:
    def test_no_promotions_is_base(self):
        rng = np.random.default_rng(8)
        base = EuclideanMetric(5)
        m = ReweightedMetric(base, np.zeros((0, 5)), np.zeros(0))
        u = random_complex(rng, 5)
        assert np.allclose(m.apply(u), u)

    def test_promoted_direction_is_scaled(self):
        rng = np.random.default_rng(9)
        base = EuclideanMetric(6)
        dirs = orthonormalize([random_complex(rng, 6)], base)
        m = ReweightedMetric(base, np.stack(dirs, axis=0), [0.3])
        phi = dirs[0]
        expected = (1.0 - 0.3) * base.apply(phi)
        assert np.allclose(m.apply(phi), expected, atol=1e-12)

    def test_orthogonal_vector_unchanged(self):
        rng = np.random.default_rng(10)
        base = EuclideanMetric(6)
        vecs = orthonormalize([random_complex(rng, 6) for _ in range(3)], base)
        m = ReweightedMetric(base, np.stack(vecs[:2], axis=0), [0.4, 0.2])
        u = vecs[2]
        assert np.allclose(m.apply(u), base.apply(u), atol=1e-12)

    def test_promoted_norm_identity(self):
        rng = np.random.default_rng(11)
        base = SobolevMetric((3, 4), (0.25, 1.0, 1.0))
        weights = [0.7, 0.25, 0.0 + 0.1]
        m = make_reweighted(base, rng, 3, weights=np.asarray(weights))
        for k in range(3):
            phi = m.directions[k]
            assert m.inner(phi, phi) == pytest.approx(1.0 - m.weights[k], abs=1e-10)

    def test_positive_definite_for_admissible_weights(self):
        rng = np.random.default_rng(12)
        base = EuclideanMetric(10)
        m = make_reweighted(base, rng, 4, weights=np.array([0.99, 0.9, 0.5, 0.0]))
        for _ in range(20):
            x = random_complex(rng, 10)
            assert m.inner(x, x) > 0


class TestTransform:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(13)
        base = EuclideanMetric(7)
        m = make_reweighted(base, rng, 2, weights=np.zeros(2))
        u = random_complex(rng, 7)
        assert np.allclose(m.transform(u), u)
        assert np.allclose(m.transform(u, adjoint=True), u)

    @pytest.mark.parametrize("base_kind", ["euclidean", "sobolev"])
    def test_composition_identity(self, base_kind):
        rng = np.random.default_rng(14)
        if base_kind == "euclidean":
            base = EuclideanMetric(12)
        else:
            base = SobolevMetric((3, 4), (0.25, 1.0, 1.0))
        m = make_reweighted(base, rng, 3)
        for _ in range(10):
            u = random_complex(rng, 12)
            composed = base.apply(m.apply_inv(u))
            assert np.linalg.norm(m.transform(u) - composed) <= 1e-10 * np.linalg.norm(u)

    def test_orthogonal_vector_fixed(self):
        rng = np.random.default_rng(15)
        base = EuclideanMetric(6)
        vecs = orthonormalize([random_complex(rng, 6) for _ in range(3)], base)
        m = ReweightedMetric(base, np.stack(vecs[:2], axis=0), [0.5, 0.25])
        assert np.allclose(m.transform(vecs[2]), vecs[2], atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(16)
        base = SobolevMetric((4, 3), (0.5, 1.0, 0.5))
        m = make_reweighted(base, rng, 2)
        for _ in range(10):
            u = random_complex(rng, 12)
            v = random_complex(rng, 12)
            lhs = np.vdot(v, m.transform(u))
            rhs = np.vdot(m.transform(v, adjoint=True), u)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestReweightedConstants:
    """apply, apply_inv and transform keep their per-call formulas bit for bit."""

    @staticmethod
    def reference(m, x, op):
        factors = 1.0 - 1.0 / (1.0 - m.weights)
        if op == "apply":
            coeff = m.transformed.conj() @ x
            return m.base.apply(x) - (m.weights * coeff) @ m.transformed
        if op == "apply_inv":
            coeff = m.directions.conj() @ x
            return m.base.apply_inv(x) - (factors * coeff) @ m.directions
        if op == "adjoint":
            coeff = m.transformed.conj() @ x
            return x - (factors * coeff) @ m.directions
        coeff = m.directions.conj() @ x
        return x - (factors * coeff) @ m.transformed

    @pytest.mark.parametrize("base_kind", ["euclidean", "sobolev"])
    def test_bitwise_equal_to_per_call_formulas(self, base_kind):
        rng = np.random.default_rng(17)
        if base_kind == "euclidean":
            base = EuclideanMetric(12)
        else:
            base = SobolevMetric((3, 4), (0.25, 1.0, 1.0))
        m = make_reweighted(base, rng, 3)
        for _ in range(5):
            x = random_complex(rng, 12)
            assert np.array_equal(m.apply(x), self.reference(m, x, "apply"))
            assert np.array_equal(m.apply_inv(x), self.reference(m, x, "apply_inv"))
            assert np.array_equal(m.transform(x), self.reference(m, x, "transform"))
            assert np.array_equal(
                m.transform(x, adjoint=True), self.reference(m, x, "adjoint")
            )


class TestOrthonormalize:
    def test_orthonormal_set_is_fixed_up_to_phase(self):
        m = EuclideanMetric(3)
        basis = [np.array([1.0, 0, 0], dtype=complex), np.array([0, 1.0, 0], dtype=complex)]
        out = orthonormalize(basis, m)
        assert len(out) == 2
        for a, b in zip(out, basis):
            assert np.allclose(a, b)

    def test_hand_gram_schmidt(self):
        m = EuclideanMetric(2)
        out = orthonormalize(
            [np.array([1.0, 0.0], dtype=complex), np.array([1.0, 1.0], dtype=complex)], m
        )
        assert np.allclose(out[0], [1.0, 0.0])
        assert np.allclose(out[1], [0.0, 1.0])

    def test_duplicate_dropped(self):
        rng = np.random.default_rng(17)
        m = EuclideanMetric(5)
        v = random_complex(rng, 5)
        out = orthonormalize([v, v], m)
        assert len(out) == 1
        assert m.norm(out[0]) == pytest.approx(1.0)

    def test_empty_input(self):
        assert orthonormalize([], EuclideanMetric(4)) == []

    def test_pairwise_orthonormal_in_weighted_metric(self):
        rng = np.random.default_rng(18)
        m = SobolevMetric((4, 4), (0.25, 1.0, 1.0))
        out = orthonormalize([random_complex(rng, 16) for _ in range(6)], m)
        assert len(out) == 6
        for i, a in enumerate(out):
            for j, b in enumerate(out):
                expected = 1.0 if i == j else 0.0
                assert abs(m.pairing(a, b) - expected) <= 1e-10

    def test_span_preserved(self):
        rng = np.random.default_rng(19)
        m = EuclideanMetric(6)
        vecs = [random_complex(rng, 6) for _ in range(3)]
        out = orthonormalize(vecs, m)
        # each input lies in the span of the outputs produced so far
        for i in range(1, 4):
            basis = np.stack(out[:i], axis=1)
            coeff, *_ = np.linalg.lstsq(basis, vecs[i - 1], rcond=None)
            assert np.linalg.norm(basis @ coeff - vecs[i - 1]) <= 1e-8

    def test_phase_convention(self):
        m = EuclideanMetric(3)
        v = np.array([0.0, -2.0j, 0.5], dtype=complex)
        out = orthonormalize([v], m)
        idx = int(np.argmax(np.abs(out[0])))
        pivot = out[0][idx]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0


class TestProjectOut:
    @staticmethod
    def loop_reference(vec, basis, applied):
        """Two per-vector Gram-Schmidt passes, one basis vector at a time."""
        coeff = np.zeros(len(basis), dtype=complex)
        for _ in range(2):
            for i, (u, hu) in enumerate(zip(basis, applied)):
                c = np.vdot(hu, vec)
                vec = vec - c * u
                coeff[i] += c
        return vec, coeff

    def test_matches_loop_reference_in_weighted_metric(self):
        rng = np.random.default_rng(20)
        m = SobolevMetric((4, 5), (0.25, 1.0, 0.5))
        basis = orthonormalize([random_complex(rng, 20) for _ in range(6)], m)
        applied = [m.apply(u) for u in basis]
        vec = random_complex(rng, 20)
        out, coeff = project_out(vec, basis, applied)
        ref, ref_coeff = self.loop_reference(vec, basis, applied)
        # summation order differs from the loop; the bound is set from float64
        scale = np.linalg.norm(vec)
        assert np.linalg.norm(out - ref) <= 1e-13 * scale
        assert np.max(np.abs(coeff - ref_coeff)) <= 1e-13 * scale
        assert max(abs(m.pairing(out, u)) for u in basis) <= 1e-13 * scale

    def test_empty_basis_returns_input(self):
        vec = np.array([1.0 + 2.0j, -0.5j])
        out, coeff = project_out(vec, [], [])
        assert np.array_equal(out, vec)
        assert coeff.shape == (0,)


class TestProjectCarried:
    """The carried-image step: the vector's image is projected alongside it
    while at least CARRY_MIN_NORM of its norm is left, and the metric is
    applied once below that or when no image is given."""

    @staticmethod
    def metric(rng, kind):
        if kind == "euclidean":
            return EuclideanMetric(20)
        if kind == "spd":
            return random_spd_metric(rng, 20)
        if kind == "reweighted":
            return make_reweighted(SobolevMetric((4, 5), (0.5, 1.0, 0.25)), rng, 3)
        return SobolevMetric((4, 5), (0.25, 1.0, 0.5))

    @staticmethod
    def counted(m, monkeypatch):
        calls = []
        apply = m.apply
        monkeypatch.setattr(m, "apply", lambda x: calls.append(1) or apply(x))
        return calls, apply

    def problem(self, rng, kind, inside, scale):
        """A basis of 4 vectors with images, and a vector of norm ``scale``
        whose share ``inside`` lies in the basis span."""
        m = self.metric(rng, kind)
        basis, applied = orthonormalize([random_complex(rng, 20) for _ in range(4)], m, images=True)
        basis, applied = np.array(basis), np.array(applied)
        along = rng.standard_normal(4) @ basis
        other = project_out(random_complex(rng, 20), basis, applied)[0]
        vec = inside * along / m.norm(along) + np.sqrt(1 - inside**2) * other / m.norm(other)
        return m, basis, applied, scale * vec

    @pytest.mark.parametrize("kind", ["euclidean", "spd", "reweighted", "sobolev"])
    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize("inside, applies", [(0.3, 0), (0.8, 0), (0.95, 1), (0.999, 1)])
    def test_carries_unless_most_is_removed(self, kind, scale, inside, applies, monkeypatch):
        assert (np.sqrt(1 - inside**2) < CARRY_MIN_NORM) == bool(applies)
        rng = np.random.default_rng(97)
        m, basis, applied, vec = self.problem(rng, kind, inside, scale)
        image = m.apply(vec)
        calls, apply = self.counted(m, monkeypatch)
        out, hout, nrm, coeff = project_carried(vec, image, basis, applied, m, scale)
        assert len(calls) == applies
        self.check(out, hout, nrm, coeff, vec, basis, applied, apply, scale)

    @pytest.mark.parametrize("kind", ["euclidean", "spd", "reweighted", "sobolev"])
    @pytest.mark.parametrize("size", [0, 4])
    def test_applies_once_without_an_image(self, kind, size, monkeypatch):
        rng = np.random.default_rng(98)
        m, basis, applied, vec = self.problem(rng, kind, 0.3, 1.0)
        basis, applied = basis[:size], applied[:size]
        calls, apply = self.counted(m, monkeypatch)
        out, hout, nrm, coeff = project_carried(vec, None, basis, applied, m)
        assert len(calls) == 1
        self.check(out, hout, nrm, coeff, vec, basis, applied, apply, 1.0)

    @staticmethod
    def check(out, hout, nrm, coeff, vec, basis, applied, apply, scale):
        assert np.linalg.norm(hout - apply(out)) <= 1e-12 * scale
        assert abs(nrm - np.sqrt(np.vdot(out, apply(out)).real)) <= 1e-12 * scale
        assert np.linalg.norm(out + coeff @ basis - vec) <= 1e-12 * scale
        if len(basis):
            assert np.max(np.abs(np.conj(applied) @ out)) <= 1e-12 * scale


class TestSolverFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cap_exhaustion_raises(self):
        # a non-finite right-hand side makes the DCT inverse refuse the solve
        m = SobolevMetric((2, 2), (1.0, 0.0, 0.0))
        bad = np.array([np.nan] * 4, dtype=complex)
        with pytest.raises((MetricSolveError, ValueError)):
            m.apply_inv(bad)
