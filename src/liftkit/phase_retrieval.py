"""Masked Fourier phase retrieval: masks, padded-DFT forward operator,
adjoint actions, noise, and the recovery driver.

Images are row-major complex arrays of shape (n2, n1).  Measurements are the
squared moduli of zero-padded 2-D DFTs of the pointwise mask-image products,
stacked mask-major into one real vector.  The DFT is the unnormalized forward
transform; its adjoint is the conjugate transpose, an unscaled inverse DFT
restricted to the image shape.  Both run as row-column transforms pruned of
the zero padding (Markel 1971): the forward transforms rows only where the
image has them, the adjoint inverse-transforms rows only where it keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft

from .errors import ConfigError
from .metric import EuclideanMetric, Metric, SobolevMetric
from .operators import BilinearMap, QuadraticMap
from .solver import run_primal_dual

SOBOLEV_DEFAULT_MU = (0.25, 1.0, 1.0)


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


METRIC_KINDS = ("euclidean", "sobolev")


def default_metric(shape, kind="euclidean", mu=SOBOLEV_DEFAULT_MU):
    if kind == "euclidean":
        return EuclideanMetric(shape[0] * shape[1])
    if kind == "sobolev":
        return SobolevMetric(shape, mu)
    raise ConfigError(f"unknown metric kind {kind!r}")


def _masked_spectra(problem, image):
    """Padded DFTs of every mask-image product, shape (count, m2, m1).

    The n2 image rows are transformed to length m1 first; only then is every
    column transformed to length m2, so the m2 - n2 zero rows of the padding
    are never row-transformed.
    """
    stack = problem.masks.array * image[None, :, :]
    rows = fft(stack, n=problem.m1, axis=-1, overwrite_x=True)
    return fft(rows, n=problem.m2, axis=-2, overwrite_x=True)


def _sandwich(problem, coeff, image):
    """D^* F^H diag(coeff) F D applied to an image (coeff per DFT bin).

    F^H is the unscaled inverse DFT restricted to the image: the columns are
    inverse-transformed first, then only the n2 kept rows, of which the first
    n1 entries are kept.
    """
    n2, n1 = problem.shape
    spectra = _masked_spectra(problem, image)
    spectra *= coeff
    cols = ifft(spectra, axis=-2, norm="forward", overwrite_x=True)
    back = ifft(cols[:, :n2, :], axis=-1, norm="forward", overwrite_x=True)[:, :, :n1]
    back *= np.conj(problem.masks.array)
    return np.sum(back, axis=0)


def forward(problem, image):
    """Squared masked Fourier intensities as one real vector (mask-major)."""
    if image.shape != problem.shape:
        raise ConfigError(f"image must have shape {problem.shape}")
    spectra = _masked_spectra(problem, image)
    return np.abs(spectra).ravel() ** 2


def sym_adjoint_action(problem, y, e):
    """Metric-resolved action of the symmetric adjoint lifting on an image.

    Only the real part of the dual vector enters; for non-Euclidean domain
    metrics the inverse metric is applied to the Euclidean result.
    """
    if e.shape != problem.shape:
        raise ConfigError(f"image must have shape {problem.shape}")
    coeff = np.real(np.asarray(y)).reshape(problem.masks.count, problem.m2, problem.m1)
    out = _sandwich(problem, coeff, e)
    return problem.metric.apply_inv(out.ravel()).reshape(problem.shape)


class MaskedFourierBilinear(BilinearMap):
    """Associated bilinear map of the intensity operator.

    B(u, v) pairs the spectra of v against the conjugated spectra of u, so it
    is linear in v and antilinear in u.
    """

    def __init__(self, problem):
        self.problem = problem
        self.h1 = problem.metric
        self.h2 = problem.metric
        self.data_dim = problem.data_dim

    def _image(self, vec):
        return np.asarray(vec).reshape(self.problem.shape)

    def apply(self, u, v):
        spec_u = _masked_spectra(self.problem, self._image(u))
        spec_v = _masked_spectra(self.problem, self._image(v))
        return (spec_v * np.conj(spec_u)).ravel()

    def partial_adjoint_left(self, y, e):
        coeff = np.asarray(y).reshape(self.problem.masks.count, self.problem.m2, self.problem.m1)
        out = _sandwich(self.problem, coeff, self._image(e))
        return self.problem.metric.apply_inv(out.ravel())

    def partial_adjoint_right(self, y, f):
        coeff = np.conj(np.asarray(y)).reshape(
            self.problem.masks.count, self.problem.m2, self.problem.m1
        )
        out = _sandwich(self.problem, coeff, self._image(f))
        return self.problem.metric.apply_inv(out.ravel())


class MaskedFourierMap(QuadraticMap):
    """Quadratic forward operator of the phase-retrieval problem on vectors."""

    def __init__(self, problem):
        self.problem = problem
        self.h = problem.metric
        self.data_dim = problem.data_dim

    def apply(self, u):
        return forward(self.problem, np.asarray(u).reshape(self.problem.shape)).astype(complex)

    def sym_adjoint_action(self, y, e):
        img = sym_adjoint_action(self.problem, y, np.asarray(e).reshape(self.problem.shape))
        return img.ravel()

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


def error_up_to_phase(u, reference):
    """Relative error minimized over a global phase factor.

    The optimal angle comes from the complex correlation in closed form.
    """
    u = np.asarray(u).ravel()
    ref = np.asarray(reference).ravel()
    if u.shape != ref.shape:
        raise ConfigError("images must have the same shape")
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0:
        raise ConfigError("reference image must be nonzero")
    corr = np.vdot(ref, u)
    phase = np.exp(-1j * np.angle(corr)) if corr != 0 else 1.0
    return float(np.linalg.norm(phase * u - ref) / ref_norm)


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
