"""Hilbert-space structures for the solver: Euclidean, discrete Sobolev, and
low-rank-reweighted inner products.

All metrics act on complex coefficient vectors but represent real inner
products of the form ``inner(x, y) = Re[y^* H x]``; the full complex pairing
``y^* H x`` is exposed separately because the low-rank machinery relies on
exact matrix identities.

The Sobolev metric applies H as a five-point stencil and its inverse through
the orthonormal 2-D DCT-II, which diagonalizes H: as real matrix products on
the stacked real and imaginary planes on grids up to `DENSE_DCT_MAX_WORK`,
as scipy's DCT above it, where the n^3 products cost more.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.fft import dct, dctn, idctn

from .errors import ConfigError, MetricSolveError
from .lowrank import _phase_factor

# The Sobolev inverse uses DCT-II matrices while its matrix work per plane,
# n2 * n1 * (n2 + n1) real multiply-adds for one product pair, stays at or
# below this.  Per complex inverse on one OpenBLAS thread of a 2-vCPU KVM
# guest, the four real GEMMs took 29-39 against 58-68 us for scipy's
# dctn/idctn at 32x32 (65,536), 118-167 against 164-213 us at 64x64 and
# 147-162 against 197-259 us at 72x72; at 80x80 and 88x88 (1,362,944) the
# two were within noise (310-339 against 337-375 us at 88x88), and from
# 96x96 (1,769,472) the n^3 products lose (379-386 against 322-345 us;
# 0.92 against 0.62 ms at 128x128).
DENSE_DCT_MAX_WORK = 1_400_000

# a projected metric image is kept while the projection leaves at least this
# fraction of the vector's norm; below it the metric is applied afresh
CARRY_MIN_NORM = 0.5


class SobolevStencil:
    """Forward-difference operators on an (n2, n1) grid with their adjoints.

    ``d1`` differences along rows (horizontal direction, output n2 x (n1-1)),
    ``d2`` along columns (vertical, output (n2-1) x n1).  The adjoints are the
    negative-divergence stencils with zero padding at the boundary.
    """

    def __init__(self, shape):
        n2, n1 = shape
        if n2 < 1 or n1 < 1:
            raise ValueError(f"invalid grid shape {shape!r}")
        self.shape = (int(n2), int(n1))

    def d1(self, img):
        return img[:, 1:] - img[:, :-1]

    def d1_adjoint(self, arr):
        out = np.zeros(self.shape, dtype=complex)
        out[:, :-1] -= arr
        out[:, 1:] += arr
        return out

    def d2(self, img):
        return img[1:, :] - img[:-1, :]

    def d2_adjoint(self, arr):
        out = np.zeros(self.shape, dtype=complex)
        out[:-1, :] -= arr
        out[1:, :] += arr
        return out


class Metric:
    """Base class: a symmetric positive definite inner-product structure."""

    kind = "abstract"
    # a positive lower bound on the eigenvalues of H, None where unknown
    spectral_floor = None

    def __init__(self, dim):
        self.dim = int(dim)

    def apply(self, x):
        """Return H x."""
        raise NotImplementedError

    def apply_inv(self, b):
        """Return x with H x = b."""
        raise NotImplementedError

    def _check(self, x):
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got shape {x.shape}")

    def pairing(self, x, y):
        """Full complex pairing y^* H x."""
        return complex(np.vdot(y, self.apply(x)))

    def inner(self, x, y):
        """Real inner product Re[y^* H x]."""
        return float(np.real(np.vdot(y, self.apply(x))))

    def norm(self, x):
        return self.apply_and_norm(x)[1]

    def apply_and_norm(self, x):
        """H x and the norm of x, from one apply."""
        hx = self.apply(x)
        return hx, math.sqrt(max(np.vdot(x, hx).real, 0.0))

    def transform(self, u, adjoint=False):
        """Apply T = H_base H^{-1}: the identity unless the metric is reweighted."""
        return u

    def to_dense(self):
        """Materialize H as a dense matrix (small problems and diagnostics only)."""
        eye = np.eye(self.dim, dtype=complex)
        cols = [self.apply(eye[:, j]) for j in range(self.dim)]
        return np.stack(cols, axis=1)


class EuclideanMetric(Metric):
    kind = "euclidean"
    spectral_floor = 1.0

    def apply(self, x):
        self._check(x)
        return x

    def apply_inv(self, b):
        self._check(b)
        return b

    def to_dense(self):
        return np.eye(self.dim, dtype=complex)


class DenseDCT:
    """H^{-1} as four real GEMMs with the orthonormal DCT-II matrices.

    With C2 (n2, n2) and C1 (n1, n1) the 1-D DCT-II matrices, the inverse is
    C2^T [(C2 P C1^T) * w] C1 for each of the real and imaginary planes P and
    reciprocal spectrum w.  The planes are stacked as (n2, 2, n1), so a left
    product is one GEMM on the (n2, 2 n1) view and a right product one GEMM
    on the (2 n2, n1) view, where w is held with each row twice.
    """

    def __init__(self, shape, weights):
        n2, n1 = shape
        c2, c1 = _dct_matrix(n2), _dct_matrix(n1)
        self.c2, self.c2t = c2, np.ascontiguousarray(c2.T)
        self.c1, self.c1t = c1, np.ascontiguousarray(c1.T)
        self.weights = np.repeat(weights, 2, axis=0)

    def filter(self, img):
        n2, n1 = img.shape
        planes = img.view(np.float64).reshape(n2, n1, 2).transpose(0, 2, 1).reshape(n2, 2 * n1)
        spec = (self.c2 @ planes).reshape(2 * n2, n1) @ self.c1t
        spec *= self.weights
        planes = self.c2t @ (spec @ self.c1).reshape(n2, 2 * n1)
        return planes.reshape(n2, 2, n1).transpose(0, 2, 1).copy().view(complex)


class FastDCT:
    """H^{-1} as scipy's orthonormal dctn/idctn pair around the reciprocal spectrum."""

    def __init__(self, shape, weights):
        self.weights = weights

    def filter(self, img):
        return idctn(dctn(img, norm="ortho") * self.weights, norm="ortho")


def _dct_matrix(n):
    """The orthonormal DCT-II matrix: row k holds basis vector k."""
    return dct(np.eye(n), norm="ortho", axis=0)


class SobolevMetric(Metric):
    """Discrete first-order Sobolev metric on an (n2, n1) grid.

    H = mu_I I + mu_D1 D1* D1 + mu_D2 D2* D2.  With forward differences and
    zero-padded adjoints each D* D is a Neumann Laplacian, so H is a
    five-point stencil: precomputed centre weights times the image minus the
    weighted neighbours.  The orthonormal 2-D DCT-II diagonalizes it exactly,
    so the inverse is one forward and one inverse DCT around a division by
    the spectrum: real matrix products (`DenseDCT`) while the grid's matrix
    work is at most `DENSE_DCT_MAX_WORK`, scipy's DCT (`FastDCT`) above it.
    """

    kind = "sobolev"

    def __init__(self, shape, mu):
        mu = tuple(float(m) for m in mu)
        if len(mu) != 3:
            raise ConfigError("mu must be (mu_I, mu_D1, mu_D2)")
        if not (0 < mu[0] < np.inf and 0 <= mu[1] < np.inf and 0 <= mu[2] < np.inf):
            raise ConfigError(f"weights must be finite with mu_I > 0, mu_D1, mu_D2 >= 0, got {mu}")
        self.grid_shape = (int(shape[0]), int(shape[1]))
        self.mu = mu
        # the spectrum below is smallest at the constant image
        self.spectral_floor = mu[0]
        self.stencil = SobolevStencil(self.grid_shape)  # also checks the shape
        super().__init__(self.grid_shape[0] * self.grid_shape[1])
        n2, n1 = self.grid_shape
        # D* D has the neighbour count of each pixel on its diagonal
        across, down = np.full(n1, 2.0), np.full(n2, 2.0)
        for count in (across, down):
            count[0] -= 1.0
            count[-1] -= 1.0
        self._centre = mu[0] + mu[1] * across[None, :] + mu[2] * down[:, None]
        lap1 = 4.0 * np.sin(np.pi * np.arange(n1) / (2 * n1)) ** 2
        lap2 = 4.0 * np.sin(np.pi * np.arange(n2) / (2 * n2)) ** 2
        # eigenvalues of H on the DCT-II basis, indexed like the grid
        spectrum = mu[0] + mu[1] * lap1[None, :] + mu[2] * lap2[:, None]
        dense = n2 * n1 * (n2 + n1) <= DENSE_DCT_MAX_WORK
        self._dct = (DenseDCT if dense else FastDCT)(self.grid_shape, 1.0 / spectrum)

    def apply(self, x):
        self._check(x)
        _, mu_1, mu_2 = self.mu
        img = x.reshape(self.grid_shape)
        out = self._centre * img
        if mu_1:
            nb = mu_1 * img
            out[:, 1:] -= nb[:, :-1]
            out[:, :-1] -= nb[:, 1:]
        if mu_2:
            if mu_2 != mu_1:  # equal weights reuse the row term's scaled image
                nb = mu_2 * img
            out[1:] -= nb[:-1]
            out[:-1] -= nb[1:]
        return out.ravel()

    def apply_inv(self, b):
        self._check(b)
        # a sum with a non-finite term is non-finite, so a finite sum clears
        # every entry; only a sum that overflowed needs the entrywise check
        if not cmath.isfinite(np.add.reduce(b)) and not np.all(np.isfinite(b)):
            raise MetricSolveError("Sobolev inverse of a non-finite vector")
        img = np.ascontiguousarray(b, dtype=complex).reshape(self.grid_shape)
        return self._dct.filter(img).ravel()


class ReweightedMetric(Metric):
    """A base metric shrunk along promoted directions.

    ``directions`` holds base-orthonormal vectors phi_k (rows), ``weights``
    the shrink factors lambda_k in [0, 1); the modified operator is
    H - sum_k lambda_k (H phi_k)(H phi_k)^*.  Promotions always refer to the
    original base metric, never to an already-reweighted one.
    """

    kind = "reweighted"

    def __init__(self, base, directions, weights):
        if base.kind == "reweighted":
            raise ValueError("reweighting must be built over the original base metric")
        directions = np.atleast_2d(np.asarray(directions, dtype=complex))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if directions.size == 0:
            directions = directions.reshape(0, base.dim)
            weights = weights.reshape(0)
        if directions.shape[0] != weights.shape[0]:
            raise ValueError("one weight per promoted direction required")
        if directions.shape[0] and directions.shape[1] != base.dim:
            raise ValueError("promoted directions must match the base dimension")
        if np.any(weights < 0) or np.any(weights >= 1):
            raise ValueError("weights must lie in [0, 1)")
        self.base = base
        self.directions = directions
        self.weights = weights
        # transformed directions H phi_k
        self.transformed = np.stack(
            [base.apply(d) for d in directions], axis=0
        ) if directions.shape[0] else directions.copy()
        # per-call constants: conjugated rows and the inverse's shrink factors
        self._transformed_conj = self.transformed.conj()
        self._directions_conj = directions.conj()
        self._factors = 1.0 - 1.0 / (1.0 - weights)
        self.count = directions.shape[0]
        super().__init__(base.dim)

    # the base metric's check and the promoted-row products reject a wrong length
    def apply(self, x):
        out = self.base.apply(x)
        if self.count:
            coeff = self._transformed_conj @ x  # phi_k^* H x
            out = out - (self.weights * coeff) @ self.transformed
        return out

    def apply_inv(self, b):
        out = self.base.apply_inv(b)
        if self.count:
            coeff = self._directions_conj @ b  # phi_k^* b
            out = out - (self._factors * coeff) @ self.directions
        return out

    def transform(self, u, adjoint=False):
        """Apply T = H_base H^{-1} (or its adjoint T^*) without inverses."""
        if not self.count:
            return u
        if adjoint:
            coeff = self._transformed_conj @ u
            return u - (self._factors * coeff) @ self.directions
        coeff = self._directions_conj @ u
        return u - (self._factors * coeff) @ self.transformed


def project_out(vec, basis, applied):
    """Classical Gram-Schmidt, twice (CGS2), against a metric-orthonormal basis.

    ``basis`` and ``applied`` hold the u_i and their images H u_i as rows.
    Returns vec without its components u_i^* H vec, and the coefficients
    summed over both passes; the second pass keeps orthogonality at rounding level.
    """
    if not len(basis):
        return vec, np.zeros(0, dtype=complex)
    applied_conj = np.conj(applied)
    first = applied_conj @ vec  # u_i^* H vec, as np.vdot(H u_i, vec)
    vec = vec - first @ basis
    second = applied_conj @ vec
    return vec - second @ basis, first + second


def orthonormalize(vectors, metric, drop_tol=1e-10, images=False):
    """Gram-Schmidt in the metric's inner product.

    The span of the first m outputs equals the span of the first m inputs;
    vectors that are dependent beyond ``drop_tol`` (relative to their input
    norm) are dropped, so the returned list may be shorter than the input.
    Each output is scaled so that its largest-magnitude entry is real
    positive, which fixes the free global phase.  With ``images`` the
    outputs' metric images come back too, as a second list.

    Each input's image is taken once and projected alongside it, unless the
    projection removed most of the input (less than ``CARRY_MIN_NORM`` of
    its norm is left), where the projected image would lose digits to
    cancellation and the metric is applied again.
    """
    kept = []
    kept_applied = []
    for v in vectors:
        q = np.asarray(v, dtype=complex)
        hq, orig = metric.apply_and_norm(q)
        if orig == 0.0:
            continue
        q, coeff = project_out(q, kept, kept_applied)
        hq = hq - coeff @ kept_applied if kept else hq
        nrm = math.sqrt(max(np.vdot(q, hq).real, 0.0))
        if nrm < CARRY_MIN_NORM * orig:
            hq, nrm = metric.apply_and_norm(q)
        if nrm <= drop_tol * orig:
            continue
        phase = _phase_factor(q) / nrm
        kept.append(q * phase)
        kept_applied.append(hq * phase)
    return (kept, kept_applied) if images else kept
