"""Masked Fourier phase retrieval: masks, padded-DFT forward operator,
adjoint actions, noise, and the recovery driver.

Images are row-major complex arrays of shape (n2, n1).  Measurements are the
squared moduli of zero-padded 2-D DFTs of the pointwise mask-image products,
stacked mask-major into one real vector.  The DFT is the unnormalized forward
transform; its adjoint is the conjugate transpose, an unscaled inverse DFT
restricted to the image shape.  Each problem picks one transform pair from its
grid shape, once: on small grids, precomputed dense DFT blocks applied as
matrix products (``A2 @ X @ A1^T``, and the conjugate blocks back); otherwise
row-column FFTs pruned of the zero padding (Markel 1971), where the forward
transforms rows only where the image has them and the adjoint
inverse-transforms rows only where it keeps them.  The mask products, the
coefficient multiply and the conjugate-mask sum are the same for both.

Each transform pair owns a workspace, allocated once with the pair: the
padded spectra of every mask and, for the dense blocks, their intermediate
products.  Every transform on the problem writes into it, so an action
allocates nothing of the padded grid, and the pruned FFTs zero only the
padding instead of copying into a new zeroed grid.  What
the workspace holds is valid until the next transform on the same problem,
and one problem must not be transformed from two threads at once; every
result handed out of this module is an array of its own.

Each pair also holds the mask stack and its conjugate in the pair's own
precision.  A problem builds a second, complex64 pair on first use, from the
masks rounded to complex64.  The quadratic adjoint runs its transforms there
when the threshold call's tolerance is loose
(``MaskedFourierMap.at_tolerance``): the image is cast to complex64 on the
way in and the sum over the masks back to complex128 on the way out, so
every other array the solver sees stays complex128.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.fft import fft, ifft

from .errors import ConfigError
from .metric import EuclideanMetric, Metric, SobolevMetric
from .operators import BilinearMap, QuadraticMap
from .solver import run_primal_dual

SOBOLEV_DEFAULT_MU = (0.25, 1.0, 1.0)

# Dense DFT blocks are used while one transform's matrix work per mask,
# n2 * m1 * (n1 + m2) complex multiply-adds, stays at or below this.  On one
# BLAS thread and 2x padding, the blocks took 0.55-0.96x the pruned FFTs'
# time per adjoint on 8x8 to 28x28 images (28x28 is 131,712), about the same
# on 32x32 (196,608) and 1.16-1.32x on 40x40: the FFTs' fixed cost per call
# stops dominating.
DENSE_DFT_MAX_WORK = 160_000

# The threshold tolerance from which the quadratic adjoint runs in complex64.
# Against complex128, the complex64 action differs by at most 2.3e-7 (about
# 2 eps) relative in the metric norm, over random (y, e) on 16x16 with 8 masks
# (dense blocks, Euclidean) and on 32x32 and 64x64 with 4 masks (pruned FFTs,
# Sobolev).  An engine verdict tolerates delta times the argument's norm
# estimate, so at 100 eps the action error stays near 1/50 of it.
SINGLE_PRECISION_DELTA = 100 * float(np.finfo(np.float32).eps)


@dataclass(frozen=True, eq=False)
class MaskSet:
    """A stack of masks of identical shape with provenance and seed."""

    array: np.ndarray  # (count, n2, n1) complex
    kind: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        if self.array.ndim != 3 or self.array.shape[0] < 1:
            raise ConfigError("mask stack must have shape (count, n2, n1) with count >= 1")
        if not np.all(np.isfinite(self.array)):
            raise ConfigError("masks must be finite")

    @property
    def count(self):
        return self.array.shape[0]

    @property
    def shape(self):
        return self.array.shape[1:]


def make_rademacher_masks(shape, count, seed):
    """Masks with entries sqrt(2), 0, -sqrt(2) at probabilities 1/4, 1/2, 1/4."""
    if count < 1:
        raise ConfigError("need at least one mask")
    rng = np.random.default_rng(seed)
    root2 = np.sqrt(2.0)
    values = rng.choice(
        [root2, 0.0, -root2], p=[0.25, 0.5, 0.25], size=(count, shape[0], shape[1])
    )
    return MaskSet(array=values.astype(complex), kind="rademacher", seed=seed)


def make_gaussian_masks(shape, count, seed):
    """Masks with independent standard normal entries."""
    if count < 1:
        raise ConfigError("need at least one mask")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((count, shape[0], shape[1]))
    return MaskSet(array=values.astype(complex), kind="gaussian", seed=seed)


MASK_MAKERS = {"rademacher": make_rademacher_masks, "gaussian": make_gaussian_masks}


def coverage_map(masks):
    """Per-pixel count of masks with a nonzero entry there."""
    return np.sum(np.abs(masks.array) > 0, axis=0).astype(int)


@dataclass(eq=False)
class PRProblem:
    """A masked Fourier phase-retrieval instance.

    ``m2``/``m1`` are the DFT sizes (at least the image shape); ``metric`` is
    the domain inner product on the vectorized image; ``g`` the measurement
    vector of length count * m2 * m1 when present.
    """

    masks: MaskSet
    m2: int
    m1: int
    metric: Metric
    g: np.ndarray | None = None
    truth: np.ndarray | None = None

    def __post_init__(self):
        n2, n1 = self.masks.shape
        if self.m2 < n2 or self.m1 < n1:
            raise ConfigError("DFT sizes must not be smaller than the image")
        if self.metric.dim != n2 * n1:
            raise ConfigError("metric dimension must match the vectorized image")
        if self.g is not None and self.g.shape != (self.data_dim,):
            raise ConfigError(f"data vector must have length {self.data_dim}")
        if self.truth is not None and self.truth.shape != (n2, n1):
            raise ConfigError("ground truth must match the mask shape")

    @property
    def shape(self):
        return self.masks.shape

    @property
    def data_dim(self):
        return self.masks.count * self.m2 * self.m1

    def _pair(self, masks):
        n2, n1 = self.shape
        dense = n2 * self.m1 * (n1 + self.m2) <= DENSE_DFT_MAX_WORK
        return (DenseDFT if dense else PrunedFFT)(masks, self.m2, self.m1)

    @cached_property
    def transforms(self):
        """The padded-DFT pair of this grid with its masks and workspace,
        chosen and built on first use."""
        return self._pair(self.masks.array.astype(complex, copy=False))

    @cached_property
    def single_precision(self):
        """The complex64 pair, with complex64 masks and a workspace of its
        own, built on first use."""
        return self._pair(self.masks.array.astype(np.complex64))

    def pair(self, dtype):
        """The complex64 pair for complex64 arrays, the complex128 one for
        any other."""
        return self.single_precision if dtype == np.complex64 else self.transforms


METRIC_KINDS = ("euclidean", "sobolev")


def default_metric(shape, kind="euclidean", mu=SOBOLEV_DEFAULT_MU):
    if kind == "euclidean":
        return EuclideanMetric(shape[0] * shape[1])
    if kind == "sobolev":
        return SobolevMetric(shape, mu)
    raise ConfigError(f"unknown metric kind {kind!r}")


class PrunedFFT:
    """Row-column FFTs pruned of the zero padding, in place.

    The forward writes the mask products into the top-left block of its
    destination, zeroes the rest of the n2 image rows and transforms them to
    length m1, and only then zeroes the m2 - n2 padding rows and transforms
    every column to length m2: the padding rows are never row-transformed.
    The inverse transforms the columns first, then only the n2 kept rows, of
    which the first n1 entries are kept.  ``masks`` and ``masks_conj`` are
    the mask stack and its conjugate; ``spectra`` is the (count, m2, m1)
    workspace, of the masks' dtype.

    Both run in the buffer they are given: with ``overwrite_x`` a complex
    array, view or not, is scipy's output array, and without ``n=`` scipy
    makes no zero-padded copy.  The results are read from the buffer itself,
    not from the arrays scipy returns: those are views of the buffer with an
    equal but distinct dtype object, and numpy copies an input that overlaps
    its ufunc output unless the two have the same dtype object.
    """

    def __init__(self, masks, m2, m1):
        self.shape = masks.shape[1:]
        self.masks, self.masks_conj = masks, np.conj(masks)
        self.spectra = np.empty((masks.shape[0], m2, m1), dtype=masks.dtype)

    def forward(self, image, out):
        n2, n1 = self.shape
        rows = out[:, :n2, :]
        np.multiply(self.masks, image, out=rows[:, :, :n1])
        rows[:, :, n1:] = 0
        fft(rows, axis=-1, overwrite_x=True)
        out[:, n2:, :] = 0
        fft(out, axis=-2, overwrite_x=True)
        return out

    def inverse(self, spectra):
        """The unscaled inverse restricted to the image, computed in place in
        ``spectra`` and returned as a view of it."""
        n2, n1 = self.shape
        ifft(spectra, axis=-2, norm="forward", overwrite_x=True)
        ifft(spectra[:, :n2, :], axis=-1, norm="forward", overwrite_x=True)
        return spectra[:, :n2, :n1]


def _dft_block(m, n):
    """The first n columns of the m-point DFT matrix, exp(-2 pi i jk / m).

    jk is reduced mod m before scaling, so every twiddle is accurate to
    rounding."""
    jk = np.outer(np.arange(m), np.arange(n)) % m
    return np.exp(-2j * np.pi * jk / m)


class DenseDFT:
    """The padded DFT as two matrix products with precomputed DFT blocks.

    With A2 (m2, n2) and A1 (m1, n1) the blocks of the zero-padded DFTs, the
    forward is A2 @ X @ A1^T per mask and the inverse A2^H @ S @ conj(A1):
    the padding never enters.  The rows of every mask are one product.
    Every product writes into the workspace: ``spectra`` (count, m2, m1),
    the image-grid stack (count, n2, n1) that holds the mask products and
    the inverse's result, and the half-transformed rows and columns.  Like
    ``PrunedFFT``, it holds the masks and their conjugate.  The blocks and the
    workspace are of the masks' dtype; the blocks are rounded to it from
    complex128.
    """

    def __init__(self, masks, m2, m1):
        count, n2, n1 = masks.shape
        dtype = masks.dtype
        self.masks, self.masks_conj = masks, np.conj(masks)
        a2, a1 = _dft_block(m2, n2).astype(dtype), _dft_block(m1, n1).astype(dtype)
        self.a2, self.a1t = a2, np.ascontiguousarray(a1.T)
        self.a2h, self.a1c = np.ascontiguousarray(a2.conj().T), a1.conj()
        self.spectra = np.empty((count, m2, m1), dtype=dtype)
        self._grid = np.empty((count, n2, n1), dtype=dtype)
        self._rows = np.empty((count, n2, m1), dtype=dtype)
        self._cols = np.empty((count, m2, n1), dtype=dtype)

    def forward(self, image, out):
        count, n2, n1 = self._grid.shape
        np.multiply(self.masks, image, out=self._grid)
        rows = self._rows.reshape(count * n2, -1)
        np.matmul(self._grid.reshape(count * n2, n1), self.a1t, out=rows)
        return np.matmul(self.a2, self._rows, out=out)

    def inverse(self, spectra):
        """The unscaled inverse restricted to the image, in the workspace."""
        count, m2, m1 = spectra.shape
        cols = self._cols.reshape(count * m2, -1)
        np.matmul(spectra.reshape(count * m2, m1), self.a1c, out=cols)
        return np.matmul(self.a2h, self._cols, out=self._grid)


def _masked_spectra(problem, image, out=None):
    """Padded DFTs of every mask-image product, shape (count, m2, m1).

    They are written into ``out`` when given (the problem's workspace, for a
    result that only lives until the next transform) and into a new array
    otherwise.  A complex64 image is transformed by the complex64 pair, into
    complex64 spectra.
    """
    pair = problem.pair(image.dtype)
    if out is None:
        out = np.empty_like(pair.spectra)
    return pair.forward(image, out)


def _sandwich(problem, coeff, image, spectra=None):
    """D^* F^H diag(coeff) F D applied to an image (coeff per DFT bin).

    F^H is the unscaled inverse DFT restricted to the image.  ``spectra``,
    when given, are the image's masked spectra; they are read, not
    recomputed or changed.  The scaled spectra and their inverse stay in the
    problem's workspace; only the sum over the masks is a new array.

    A complex64 ``coeff`` runs the sandwich in the complex64 workspace: the
    image is cast to complex64 and the sum back to complex128.  Any other
    coefficient runs it in complex128.
    """
    pair = problem.pair(coeff.dtype)
    work = pair.spectra
    if spectra is None:
        spectra = _masked_spectra(problem, image.astype(work.dtype, copy=False), work)
    np.multiply(spectra, coeff, out=work)
    back = pair.inverse(work)
    back *= pair.masks_conj
    return np.add.reduce(back, axis=0).astype(complex, copy=False)


def forward(problem, image):
    """Squared masked Fourier intensities as one real vector (mask-major)."""
    if image.shape != problem.shape:
        raise ConfigError(f"image must have shape {problem.shape}")
    spectra = _masked_spectra(problem, image, problem.transforms.spectra)
    # re^2 + im^2: no square root per bin, as abs() would take; both squares
    # are taken in place, on the workspace's contiguous real view
    parts = spectra.view(float)
    np.square(parts, out=parts)
    return np.add(spectra.real, spectra.imag).ravel()


def sym_adjoint_action(problem, y, e):
    """Metric-resolved action of the symmetric adjoint lifting on an image.

    Only the real part of the dual vector enters; for non-Euclidean domain
    metrics the inverse metric is applied to the Euclidean result.
    """
    if e.shape != problem.shape:
        raise ConfigError(f"image must have shape {problem.shape}")
    return MaskedFourierMap(problem).sym_adjoint_action(np.asarray(y), e).reshape(problem.shape)


def _adjoint_bound(problem):
    """K with |H^-1 D^* F^H diag(y) F D| <= K max|y| in the problem's metric:
    the unscaled DFT multiplies norms by sqrt(m2 m1), the masks by at most
    the root of their largest per-pixel energy, and H^-1 by at most one
    over the metric's spectral floor."""
    floor = problem.metric.spectral_floor
    if floor is None:
        return None
    energy = float(np.max(np.sum(np.abs(problem.masks.array) ** 2, axis=0)))
    return problem.m2 * problem.m1 * energy / floor


class SpectralFactor(NamedTuple):
    """A factor image with its masked spectra (None until computed)."""

    image: np.ndarray
    spectra: np.ndarray | None


class MaskedFourierBilinear(BilinearMap):
    """Associated bilinear map of the intensity operator.

    B(u, v) pairs the spectra of v against the conjugated spectra of u, so it
    is linear in v and antilinear in u.  Every argument may be a vector or a
    ``prepare_factor`` result, whose spectra are then reused.  Its norm is
    reached with equal factors: B(u, v) = conj(Lu) Lv bin by bin, so by
    Cauchy-Schwarz |B(u, v)|^2 <= |B(u, u)| |B(v, v)|.
    """

    norm_on_diagonal = True

    def __init__(self, problem):
        self.problem = problem
        self.h1 = problem.metric
        self.h2 = problem.metric
        self.data_dim = problem.data_dim

    def _factor(self, vec):
        if isinstance(vec, SpectralFactor):
            return vec
        return SpectralFactor(np.asarray(vec).reshape(self.problem.shape), None)

    def prepare_factor(self, vec):
        factor = self._factor(vec)
        if factor.spectra is None:
            factor = factor._replace(spectra=_masked_spectra(self.problem, factor.image))
        return factor

    def apply(self, u, v):
        u, v = self.prepare_factor(u), self.prepare_factor(v)
        return (v.spectra * np.conj(u.spectra)).ravel()

    def norm_starts(self):
        """The constant image, the cheapest in a Sobolev metric, and each
        conjugated mask, which puts that mask's whole masked spectrum into
        the zero bin; each mapped by the inverse metric, as the partial
        adjoints' outputs are."""
        apply_inv = self.problem.metric.apply_inv
        yield apply_inv(np.ones(self.problem.metric.dim, dtype=complex))
        for mask in self.problem.masks.array:
            yield apply_inv(np.conj(mask).ravel())

    def adjoint_bound(self):
        return _adjoint_bound(self.problem)

    def _adjoint(self, coeff, vec):
        factor = self._factor(vec)
        coeff = coeff.reshape(self.problem.masks.count, self.problem.m2, self.problem.m1)
        out = _sandwich(self.problem, coeff, factor.image, factor.spectra)
        return self.problem.metric.apply_inv(out.ravel())

    def partial_adjoint_left(self, y, e):
        return self._adjoint(np.asarray(y), e)

    def partial_adjoint_right(self, y, f):
        return self._adjoint(np.conj(np.asarray(y)), f)


class MaskedFourierMap(QuadraticMap):
    """Quadratic forward operator of the phase-retrieval problem on vectors.

    ``single`` marks the view that ``at_tolerance`` hands out at a loose
    tolerance: its adjoint actions run their transforms in complex64.
    """

    def __init__(self, problem):
        self.problem = problem
        self.h = problem.metric
        self.data_dim = problem.data_dim
        self.shape = problem.shape
        self.bins = (problem.masks.count, problem.m2, problem.m1)
        self.single = False

    def apply(self, u):
        return forward(self.problem, np.asarray(u).reshape(self.shape))

    def at_tolerance(self, delta):
        """A single-precision view from ``SINGLE_PRECISION_DELTA`` on, a
        complex128 one below it; the map itself when it is of that precision.
        A view is meant for one threshold call, whose dual vector is fixed."""
        single = delta >= SINGLE_PRECISION_DELTA
        if single == self.single:
            return self
        view = copy.copy(self)
        view.single, view._cast = single, (None, None)
        return view

    def _coefficients(self, y):
        """The real part of y per DFT bin.  A single-precision view casts it
        to complex64 once per dual vector and reuses the cast while it is
        given the same array, so y must not change in place meanwhile."""
        if not self.single:
            return y.real.reshape(self.bins)
        if self._cast[0] is not y:
            self._cast = (y, y.real.astype(np.complex64).reshape(self.bins))
        return self._cast[1]

    def sym_adjoint_action(self, y, e):
        out = _sandwich(self.problem, self._coefficients(y), e.reshape(self.shape))
        return self.h.apply_inv(out.ravel())

    def adjoint_bound(self):
        return _adjoint_bound(self.problem)

    def bilinear(self):
        return MaskedFourierBilinear(self.problem)


def add_noise(g, level_fraction, seed):
    """Additive Gaussian noise rescaled to an exact relative residual."""
    if not 0 <= level_fraction < np.inf:
        raise ConfigError("noise level must be finite and nonnegative")
    g = np.asarray(g, dtype=float)
    if level_fraction == 0:
        return g.copy()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g.shape)
    noise *= level_fraction * np.linalg.norm(g) / np.linalg.norm(noise)
    return g + noise


def _phase_aligned(u, reference):
    """u times the global phase factor that best aligns it with
    ``reference``: the angle of their complex correlation, in closed form."""
    corr = np.vdot(reference, u)
    phase = np.exp(-1j * np.angle(corr)) if corr != 0 else 1.0
    return phase * u


def error_up_to_phase(u, reference):
    """Relative error minimized over a global phase factor."""
    if np.shape(u) != np.shape(reference):
        raise ConfigError("images must have the same shape")
    u = np.asarray(u).ravel()
    ref = np.asarray(reference).ravel()
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0:
        raise ConfigError("reference image must be nonzero")
    return float(np.linalg.norm(_phase_aligned(u, ref) - ref) / ref_norm)


def recover(problem, cfg, sink=None):
    """Run the quadratic-mode solver and extract the rank-one image.

    Returns the recovered (n2, n1) image and the solver result carrying the
    iteration log; zero data yields the zero image.
    """
    if problem.g is None:
        raise ConfigError("problem carries no measurement vector")
    qmap = MaskedFourierMap(problem)
    result = run_primal_dual(qmap, problem.g, cfg, sink=sink)
    if result.w.rank == 0:
        image = np.zeros(problem.shape, dtype=complex)
    else:
        image = result.w.leading_rank_one().reshape(problem.shape)
    return image, result


def synthetic_image(shape, seed, blobs=4):
    """Seeded synthetic complex test image: Gaussian bumps over a small
    baseline with a smooth phase ramp."""
    n2, n1 = shape
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(n2), np.arange(n1), indexing="ij")
    amp = np.full(shape, 0.15)
    for _ in range(blobs):
        cy = rng.uniform(0.15, 0.85) * n2
        cx = rng.uniform(0.15, 0.85) * n1
        width = rng.uniform(0.08, 0.2) * min(n2, n1)
        height = rng.uniform(0.5, 1.0)
        amp += height * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
    ramp = rng.uniform(-1.0, 1.0, size=3)
    phase = 2.0 * np.pi * (ramp[0] * xx / n1 + ramp[1] * yy / n2 + ramp[2] * xx * yy / (n1 * n2))
    image = amp * np.exp(1j * phase)
    return image / np.max(np.abs(image))
