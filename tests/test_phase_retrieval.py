import tracemalloc

import numpy as np
import pytest

from liftkit.errors import ConfigError
from liftkit.lowrank import HermitianFactored
from liftkit.metric import EuclideanMetric, SobolevMetric
from liftkit import phase_retrieval
from liftkit.operators import lifted_apply_quadratic
from liftkit.phase_retrieval import (
    MaskedFourierBilinear,
    MaskedFourierMap,
    MaskSet,
    PRProblem,
    add_noise,
    coverage_map,
    default_metric,
    error_up_to_phase,
    forward,
    make_gaussian_masks,
    make_rademacher_masks,
    recover,
    sym_adjoint_action,
    synthetic_image,
)
from liftkit.solver import SolverConfig

from helpers import random_complex


def naive_forward(masks, m2, m1, image):
    """Quadruple-loop DFT reference for the squared intensities."""
    count, n2, n1 = masks.shape
    out = np.zeros((count, m2, m1))
    for ell in range(count):
        prod = masks[ell] * image
        for a in range(m2):
            for b in range(m1):
                acc = 0.0 + 0.0j
                for i in range(n2):
                    for j in range(n1):
                        acc += prod[i, j] * np.exp(-2j * np.pi * (i * a / m2 + j * b / m1))
                out[ell, a, b] = np.abs(acc) ** 2
    return out.ravel()


def ones_problem(shape, m2=None, m1=None):
    n2, n1 = shape
    masks = MaskSet(array=np.ones((1, n2, n1), dtype=complex), kind="custom")
    return PRProblem(
        masks=masks,
        m2=m2 or n2,
        m1=m1 or n1,
        metric=EuclideanMetric(n2 * n1),
    )


class TestForward:
    def test_delta_image_flat_spectrum(self):
        problem = ones_problem((3, 4))
        u = np.zeros((3, 4), dtype=complex)
        u[0, 0] = 1.0
        assert np.allclose(forward(problem, u), 1.0)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(0)
        problem = ones_problem((4, 4), 8, 8)
        u = random_complex(rng, 16).reshape(4, 4)
        a = forward(problem, u)
        b = forward(problem, np.exp(1j * 1.234) * u)
        assert np.array_equal(a, b) or np.allclose(a, b, rtol=1e-14)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        masks = make_rademacher_masks((4, 4), 2, seed=3)
        problem = PRProblem(masks=masks, m2=8, m1=8, metric=EuclideanMetric(16))
        u = random_complex(rng, 16).reshape(4, 4)
        got = forward(problem, u)
        ref = naive_forward(masks.array, 8, 8, u)
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(np.max(ref), 1.0)

    def test_rectangular_padding(self):
        rng = np.random.default_rng(2)
        masks = make_gaussian_masks((3, 5), 2, seed=4)
        problem = PRProblem(masks=masks, m2=7, m1=6, metric=EuclideanMetric(15))
        u = random_complex(rng, 15).reshape(3, 5)
        got = forward(problem, u)
        ref = naive_forward(masks.array, 7, 6, u)
        assert np.max(np.abs(got - ref)) <= 1e-10 * max(np.max(ref), 1.0)

    def test_parseval_identity(self):
        rng = np.random.default_rng(3)
        problem = ones_problem((5, 4))
        u = random_complex(rng, 20).reshape(5, 4)
        total = np.sum(forward(problem, u))
        assert total == pytest.approx(20.0 * np.linalg.norm(u) ** 2, rel=1e-8)

    def test_shape_mismatch(self):
        problem = ones_problem((3, 3))
        with pytest.raises(ConfigError):
            forward(problem, np.zeros((2, 2), dtype=complex))


class TestSymAdjoint:
    def test_zero_dual_gives_zero(self):
        problem = ones_problem((3, 3))
        e = np.ones((3, 3), dtype=complex)
        out = sym_adjoint_action(problem, np.zeros(9), e)
        assert np.allclose(out, 0.0)

    def test_scalar_case(self):
        problem = ones_problem((1, 1))
        e = np.array([[1.5 - 0.5j]])
        c = 2.25
        out = sym_adjoint_action(problem, np.array([c]), e)
        assert np.allclose(out, c * e)

    @pytest.mark.parametrize("metric_kind", ["euclidean", "sobolev"])
    def test_duality_probes(self, metric_kind):
        rng = np.random.default_rng(4)
        shape = (4, 5)
        masks = make_rademacher_masks(shape, 3, seed=5)
        metric = default_metric(shape, metric_kind)
        problem = PRProblem(masks=masks, m2=8, m1=10, metric=metric)
        for _ in range(25):
            e = random_complex(rng, 20).reshape(shape)
            y = rng.standard_normal(problem.data_dim)
            lhs = float(np.real(np.vdot(y, forward(problem, e))))
            adj = sym_adjoint_action(problem, y, e)
            rhs = metric.inner(adj.ravel(), e.ravel())
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))

    def test_oracle_self_adjointness(self):
        rng = np.random.default_rng(5)
        shape = (3, 4)
        masks = make_rademacher_masks(shape, 2, seed=6)
        metric = SobolevMetric(shape, (0.25, 1.0, 1.0))
        problem = PRProblem(masks=masks, m2=6, m1=8, metric=metric)
        y = rng.standard_normal(problem.data_dim)
        for _ in range(10):
            e = random_complex(rng, 12)
            f = random_complex(rng, 12)
            ae = sym_adjoint_action(problem, y, e.reshape(shape)).ravel()
            af = sym_adjoint_action(problem, y, f.reshape(shape)).ravel()
            lhs = metric.inner(ae, f)
            rhs = metric.inner(e, af)
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(lhs)))


class TestAdjointBound:
    """Both Fourier maps bound their metric-resolved adjoint at y by
    adjoint_bound() * max|y|, and the bound is reached in the Euclidean
    metric by a constant y."""

    @staticmethod
    def resolved_norm(problem, adjoint):
        """The largest singular value, in the problem's metric, of the tensor
        whose right action is e -> adjoint(e)."""
        h = problem.metric.to_dense()
        vals, vecs = np.linalg.eigh(h)
        root = (vecs * np.sqrt(vals)) @ vecs.conj().T
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        eye = np.eye(problem.metric.dim, dtype=complex)
        mat = np.stack([adjoint(col) for col in eye.T], axis=1)
        return np.linalg.norm(root @ mat @ inv_root, 2)

    @pytest.mark.parametrize("metric_kind", ["euclidean", "sobolev"])
    def test_bounds_the_resolved_adjoint(self, metric_kind):
        rng = np.random.default_rng(14)
        shape = (4, 5)
        masks = make_gaussian_masks(shape, 3, seed=15)
        problem = PRProblem(masks=masks, m2=8, m1=10, metric=default_metric(shape, metric_kind))
        qmap, bmap = MaskedFourierMap(problem), MaskedFourierBilinear(problem)
        bound = qmap.adjoint_bound()
        assert bound == bmap.adjoint_bound() > 0
        for _ in range(4):
            y = rng.standard_normal(problem.data_dim)
            sym = self.resolved_norm(problem, lambda e: qmap.sym_adjoint_action(y, e))
            assert sym <= bound * np.max(np.abs(y))
            z = random_complex(rng, problem.data_dim)
            left = self.resolved_norm(problem, lambda e: bmap.partial_adjoint_left(z, e))
            assert left <= bound * np.max(np.abs(z))
        ones = np.ones(problem.data_dim)
        reached = self.resolved_norm(problem, lambda e: qmap.sym_adjoint_action(ones, e))
        if metric_kind == "euclidean":
            assert reached == pytest.approx(bound, rel=1e-10)


def full_grid_spectra(problem, image):
    """Unpruned reference: 2-D DFT of each mask-image product on the padded grid."""
    stack = problem.masks.array * image[None, :, :]
    return np.fft.fft2(stack, s=(problem.m2, problem.m1), axes=(-2, -1))


def full_grid_sandwich(problem, coeff, image):
    """Unpruned reference: full-size inverse scaled by m2*m1, then cropped."""
    spectra = full_grid_spectra(problem, image)
    back = np.fft.ifft2(coeff * spectra, axes=(-2, -1)) * (problem.m2 * problem.m1)
    n2, n1 = problem.shape
    return np.sum(np.conj(problem.masks.array) * back[:, :n2, :n1], axis=0)


class TestPrunedKernels:
    """The pruned row-column transforms against the full-grid 2-D FFT formula."""

    # (image shape, m2, m1): square 2n padding, odd rectangular sizes, no padding
    LAYOUTS = [((6, 6), 12, 12), ((3, 5), 7, 6), ((4, 5), 4, 5)]

    @staticmethod
    def case(shape, m2, m1, seed):
        rng = np.random.default_rng(seed)
        masks = make_gaussian_masks(shape, 3, seed=seed)
        masks = MaskSet(array=masks.array + 0.5j * rng.standard_normal(masks.array.shape))
        problem = PRProblem(
            masks=masks, m2=m2, m1=m1, metric=EuclideanMetric(shape[0] * shape[1])
        )
        image = random_complex(rng, shape[0] * shape[1]).reshape(shape)
        return rng, problem, image

    @pytest.mark.parametrize("shape,m2,m1", LAYOUTS)
    def test_spectra_match_full_grid(self, shape, m2, m1):
        _, problem, image = self.case(shape, m2, m1, seed=30)
        masks_before, image_before = problem.masks.array.copy(), image.copy()
        got = phase_retrieval._masked_spectra(problem, image)
        ref = full_grid_spectra(problem, image)
        assert got.shape == (3, m2, m1)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.array_equal(problem.masks.array, masks_before)
        assert np.array_equal(image, image_before)

    @pytest.mark.parametrize("shape,m2,m1", LAYOUTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_sandwich_matches_full_grid(self, shape, m2, m1, kind):
        rng, problem, image = self.case(shape, m2, m1, seed=31)
        # real coefficients are the quadratic adjoint's, complex the bilinear's
        coeff = rng.standard_normal((3, m2, m1))
        if kind == "complex":
            coeff = coeff + 1j * rng.standard_normal((3, m2, m1))
        before = (coeff.copy(), problem.masks.array.copy(), image.copy())
        got = phase_retrieval._sandwich(problem, coeff, image)
        ref = full_grid_sandwich(problem, coeff, image)
        assert got.shape == shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        for after, kept in zip((coeff, problem.masks.array, image), before):
            assert np.array_equal(after, kept)

    # both sides of the size rule, all with uneven rectangular padding: 20x36
    # picks the dense blocks, 30x34 and 32x32 the pruned FFTs
    RULE_LAYOUTS = [((20, 36), 45, 73), ((30, 34), 61, 70), ((32, 32), 64, 64)]
    KERNELS = {"dense": phase_retrieval.DenseDFT, "pruned": phase_retrieval.PrunedFFT}

    @pytest.mark.parametrize(
        "shape,m2,m1,kernel",
        [
            ((4, 5), 4, 5, "dense"),
            ((16, 16), 32, 32, "dense"),
            ((20, 36), 45, 73, "dense"),
            ((30, 34), 61, 70, "pruned"),
            ((32, 32), 64, 64, "pruned"),
        ],
    )
    def test_size_rule_follows_the_grid(self, shape, m2, m1, kernel):
        for count in (1, 8):
            masks = make_rademacher_masks(shape, count, seed=1)
            metric = EuclideanMetric(shape[0] * shape[1])
            problem = PRProblem(masks=masks, m2=m2, m1=m1, metric=metric)
            assert type(problem.transforms) is self.KERNELS[kernel]

    @pytest.mark.parametrize("shape,m2,m1", LAYOUTS + RULE_LAYOUTS)
    @pytest.mark.parametrize("kernel", ["dense", "pruned"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_forced_kernel_matches_full_grid(self, monkeypatch, shape, m2, m1, kernel, kind):
        limit = np.inf if kernel == "dense" else -1
        monkeypatch.setattr(phase_retrieval, "DENSE_DFT_MAX_WORK", limit)
        rng, problem, image = self.case(shape, m2, m1, seed=33)
        assert type(problem.transforms) is self.KERNELS[kernel]
        coeff = rng.standard_normal((3, m2, m1))
        if kind == "complex":
            coeff = coeff + 1j * rng.standard_normal((3, m2, m1))
        before = (coeff.copy(), problem.masks.array.copy(), image.copy())
        spectra = phase_retrieval._masked_spectra(problem, image)
        ref = full_grid_spectra(problem, image)
        assert np.linalg.norm(spectra - ref) <= 1e-13 * np.linalg.norm(ref)
        spectra_before = spectra.copy()
        got = phase_retrieval._sandwich(problem, coeff, image)
        reused = phase_retrieval._sandwich(problem, coeff, image, spectra)
        ref = full_grid_sandwich(problem, coeff, image)
        assert got.shape == shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        # given spectra are read, not recomputed or changed
        assert np.array_equal(reused, got)
        assert np.array_equal(spectra, spectra_before)
        for after, kept in zip((coeff, problem.masks.array, image), before):
            assert np.array_equal(after, kept)

    def test_each_adjoint_requests_one_forward_transform(self, monkeypatch):
        # perfbench counts FFT flops per call of _masked_spectra and _sandwich,
        # so one adjoint must reach _masked_spectra through the module exactly once
        rng, problem, image = self.case((3, 4), 6, 8, seed=32)
        calls = []
        inner = phase_retrieval._masked_spectra

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(phase_retrieval, "_masked_spectra", counting)
        y = random_complex(rng, problem.data_dim)
        bmap = MaskedFourierBilinear(problem)
        vec = image.ravel()
        for action in (
            lambda: sym_adjoint_action(problem, y.real, image),
            lambda: MaskedFourierMap(problem).sym_adjoint_action(y.real, vec),
            lambda: bmap.partial_adjoint_left(y, vec),
            lambda: bmap.partial_adjoint_right(y, vec),
        ):
            calls.clear()
            action()
            assert len(calls) == 1


class TestTransformWorkspace:
    """Each problem's transforms run in one workspace of their own; nothing
    handed out of the module lives in it."""

    # one grid on each side of the size rule, each with 16,384 bins: numpy's
    # ufunc buffers hold up to 8,192 elements, so the allocation guard below
    # needs more bins than that to tell a buffer from a spectra-sized copy
    GRIDS = [((16, 16), 16, 32, 32), ((32, 32), 4, 64, 64)]

    @staticmethod
    def problem(monkeypatch, grid, kernel, seed=40):
        shape, count, m2, m1 = grid
        monkeypatch.setattr(
            phase_retrieval, "DENSE_DFT_MAX_WORK", np.inf if kernel == "dense" else -1
        )
        masks = make_rademacher_masks(shape, count, seed=seed)
        metric = EuclideanMetric(shape[0] * shape[1])
        problem = PRProblem(masks=masks, m2=m2, m1=m1, metric=metric)
        assert type(problem.transforms) is TestPrunedKernels.KERNELS[kernel]
        return problem

    @staticmethod
    def results(problem, image, y):
        """Every result the module hands out for one image."""
        bmap = MaskedFourierBilinear(problem)
        vec = image.ravel()
        factor = bmap.prepare_factor(vec)
        coeff = y.real.reshape(problem.masks.count, problem.m2, problem.m1)
        return [
            forward(problem, image),
            phase_retrieval._masked_spectra(problem, image),
            factor.spectra,
            phase_retrieval._sandwich(problem, coeff, image),
            phase_retrieval._sandwich(problem, coeff, image, factor.spectra),
            MaskedFourierMap(problem).sym_adjoint_action(y.real, vec),
            bmap.partial_adjoint_left(y, factor),
            bmap.partial_adjoint_right(y, vec),
            bmap.apply(factor, factor),
        ]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("kernel", ["dense", "pruned"])
    def test_results_survive_later_transforms(self, monkeypatch, grid, kernel):
        rng = np.random.default_rng(41)
        problem = self.problem(monkeypatch, grid, kernel)
        images = [random_complex(rng, problem.metric.dim).reshape(problem.shape) for _ in range(2)]
        y = random_complex(rng, problem.data_dim)
        first = self.results(problem, images[0], y)
        kept = [r.copy() for r in first]
        second = self.results(problem, images[1], y)
        for got, ref in zip(first, kept):
            assert np.array_equal(got, ref)
        # a fresh problem, whose workspace no earlier transform touched,
        # gives the same bits
        fresh = self.problem(monkeypatch, grid, kernel)
        for got, ref in zip(second, self.results(fresh, images[1], y)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("kernel", ["dense", "pruned"])
    def test_problems_do_not_share_a_workspace(self, monkeypatch, grid, kernel):
        rng = np.random.default_rng(42)
        one, two = (self.problem(monkeypatch, grid, kernel) for _ in range(2))
        buffers = [
            [v for v in vars(p.transforms).values() if isinstance(v, np.ndarray)] for p in (one, two)
        ]
        for a in buffers[0]:
            assert not any(np.shares_memory(a, b) for b in buffers[1])
        image = random_complex(rng, one.metric.dim).reshape(one.shape)
        y = random_complex(rng, one.data_dim)
        alone = self.results(two, image, y)
        # the forward's spectra wait in one problem's workspace while the
        # other problem transforms
        spectra = phase_retrieval._masked_spectra(one, image, one.transforms.spectra)
        kept = spectra.copy()
        for got, ref in zip(self.results(two, image, y), alone):
            assert np.array_equal(got, ref)
        assert np.array_equal(spectra, kept)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("kernel", ["dense", "pruned"])
    def test_warm_actions_allocate_less_than_one_spectra_array(self, monkeypatch, grid, kernel):
        rng = np.random.default_rng(43)
        problem = self.problem(monkeypatch, grid, kernel)
        qmap = MaskedFourierMap(problem)
        vec = random_complex(rng, problem.metric.dim)
        y = rng.standard_normal(problem.data_dim)
        spectra_bytes = problem.data_dim * np.dtype(complex).itemsize
        for action in (lambda: qmap.sym_adjoint_action(y, vec), lambda: qmap.apply(vec)):
            action()  # builds the transforms and their workspace
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                action()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < spectra_bytes


class TestLiftedConsistency:
    def test_rank_one_tensor_reproduces_forward(self):
        rng = np.random.default_rng(6)
        shape = (4, 4)
        masks = make_rademacher_masks(shape, 3, seed=7)
        problem = PRProblem(masks=masks, m2=8, m1=8, metric=EuclideanMetric(16))
        qmap = MaskedFourierMap(problem)
        u = random_complex(rng, 16)
        w = HermitianFactored(
            factors=(u / np.linalg.norm(u))[:, None],
            values=np.array([np.linalg.norm(u) ** 2]),
        )
        lifted = lifted_apply_quadratic(qmap, w)
        direct = forward(problem, u.reshape(shape))
        assert np.max(np.abs(lifted - direct)) <= 1e-10 * max(np.max(direct), 1.0)

    def test_bilinear_diagonal_restriction(self):
        rng = np.random.default_rng(7)
        shape = (3, 3)
        masks = make_gaussian_masks(shape, 2, seed=8)
        problem = PRProblem(masks=masks, m2=6, m1=6, metric=EuclideanMetric(9))
        bmap = MaskedFourierBilinear(problem)
        u = random_complex(rng, 9)
        assert np.allclose(
            bmap.apply(u, u), forward(problem, u.reshape(shape)), atol=1e-10
        )

    def test_bilinear_partial_adjoint_consistency(self):
        rng = np.random.default_rng(8)
        shape = (3, 4)
        masks = make_rademacher_masks(shape, 2, seed=9)
        metric = SobolevMetric(shape, (0.25, 1.0, 1.0))
        problem = PRProblem(masks=masks, m2=6, m1=8, metric=metric)
        bmap = MaskedFourierBilinear(problem)
        for _ in range(10):
            e = random_complex(rng, 12)
            f = random_complex(rng, 12)
            y = random_complex(rng, problem.data_dim)
            data = float(np.real(np.vdot(y, bmap.apply(e, f))))
            via_left = metric.inner(f, bmap.partial_adjoint_left(y, e))
            via_right = metric.inner(e, bmap.partial_adjoint_right(y, f))
            assert data == pytest.approx(via_left, abs=1e-8 * max(1.0, abs(data)))
            assert data == pytest.approx(via_right, abs=1e-8 * max(1.0, abs(data)))


class TestMaskGenerators:
    def test_rademacher_frequencies(self):
        masks = make_rademacher_masks((100, 100), 100, seed=10)
        vals = masks.array.real.ravel()
        n = vals.size
        root2 = np.sqrt(2.0)
        assert abs(np.mean(np.isclose(vals, root2)) - 0.25) < 0.01
        assert abs(np.mean(np.isclose(vals, 0.0)) - 0.5) < 0.01
        assert abs(np.mean(np.isclose(vals, -root2)) - 0.25) < 0.01
        # mean within three standard errors, second moment within 1%
        assert abs(np.mean(vals)) < 3.0 / np.sqrt(n)
        assert abs(np.mean(vals**2) - 1.0) < 0.01

    def test_gaussian_moments(self):
        masks = make_gaussian_masks((100, 100), 100, seed=11)
        vals = masks.array.real.ravel()
        assert abs(np.mean(vals)) < 0.01
        assert abs(np.var(vals) - 1.0) < 0.01

    def test_gaussian_full_coverage(self):
        masks = make_gaussian_masks((32, 32), 4, seed=12)
        assert np.all(coverage_map(masks) == 4)

    def test_seed_reproducibility(self):
        a = make_rademacher_masks((16, 16), 8, seed=7)
        b = make_rademacher_masks((16, 16), 8, seed=7)
        assert np.array_equal(a.array, b.array)
        c = make_gaussian_masks((16, 16), 8, seed=7)
        d = make_gaussian_masks((16, 16), 8, seed=7)
        assert np.array_equal(c.array, d.array)


class TestCoverage:
    def test_all_ones_masks(self):
        masks = MaskSet(array=np.ones((5, 4, 4), dtype=complex))
        assert np.all(coverage_map(masks) == 5)

    def test_rademacher_blocked_fraction(self):
        masks = make_rademacher_masks((64, 64), 4, seed=13)
        zero_pixels = int(np.sum(coverage_map(masks) == 0))
        n = 64 * 64
        p = (0.5) ** 4
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(zero_pixels - n * p) <= 3.0 * sigma

    def test_single_mask_support(self):
        masks = make_rademacher_masks((8, 8), 1, seed=14)
        cov = coverage_map(masks)
        assert np.array_equal(cov, (np.abs(masks.array[0]) > 0).astype(int))


class TestAddNoise:
    def test_zero_level(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(size=50)
        assert np.array_equal(add_noise(g, 0.0, seed=1), g)

    def test_exact_ratio(self):
        rng = np.random.default_rng(10)
        g = rng.uniform(size=100)
        for level in (0.01, 0.05, 0.1):
            noisy = add_noise(g, level, seed=2)
            ratio = np.linalg.norm(noisy - g) / np.linalg.norm(g)
            assert ratio == pytest.approx(level, abs=1e-12)

    def test_five_percent_residual(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(size=64)
        noisy = add_noise(g, 0.05, seed=3)
        assert np.linalg.norm(noisy - g) == pytest.approx(0.05 * np.linalg.norm(g))


class TestErrorUpToPhase:
    def test_phase_rotations_are_zero(self):
        rng = np.random.default_rng(12)
        u = random_complex(rng, 30)
        for theta in (0.0, 0.3, np.pi, 5.0):
            assert error_up_to_phase(np.exp(1j * theta) * u, u) <= 1e-12

    def test_zero_candidate(self):
        rng = np.random.default_rng(13)
        u = random_complex(rng, 10)
        assert error_up_to_phase(np.zeros(10), u) == pytest.approx(1.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(14)
        ref = random_complex(rng, 20)
        u = ref + 0.1 * random_complex(rng, 20)
        closed = error_up_to_phase(u, ref)
        thetas = np.linspace(0, 2 * np.pi, 100000, endpoint=False)
        diffs = np.abs(np.exp(1j * thetas)[:, None] * u[None, :] - ref[None, :])
        grid = np.min(np.sqrt(np.sum(diffs**2, axis=1))) / np.linalg.norm(ref)
        assert closed == pytest.approx(grid, abs=1e-6)
        assert closed <= grid + 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(ConfigError):
            error_up_to_phase(np.ones(3), np.zeros(3))


class TestRecover:
    def test_scalar_magnitude(self):
        problem = ones_problem((1, 1))
        problem.g = np.array([4.0])
        cfg = SolverConfig(ell=1, k=2, max_iter=400, tol=1e-12, seed=0)
        image, result = recover(problem, cfg)
        assert abs(image[0, 0]) == pytest.approx(2.0, abs=1e-5)

    def test_zero_data_zero_image(self):
        problem = ones_problem((2, 2))
        problem.g = np.zeros(4)
        cfg = SolverConfig(ell=1, k=2, max_iter=5, seed=0)
        image, result = recover(problem, cfg)
        assert np.allclose(image, 0.0)

    def test_missing_data_rejected(self):
        problem = ones_problem((2, 2))
        with pytest.raises(ConfigError):
            recover(problem, SolverConfig(tau=0.5, sigma=0.5, validate_steps=False))


class TestSyntheticImage:
    def test_seeded_and_normalized(self):
        a = synthetic_image((16, 16), seed=5)
        b = synthetic_image((16, 16), seed=5)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a)) == pytest.approx(1.0)
        assert np.min(np.abs(a)) > 0.0

    def test_complex_content(self):
        img = synthetic_image((16, 16), seed=6)
        assert np.max(np.abs(img.imag)) > 1e-3
