"""Hilbert-space structures for the solver: Euclidean, discrete Sobolev, and
low-rank-reweighted inner products.

All metrics act on complex coefficient vectors but represent real inner
products of the form ``inner(x, y) = Re[y^* H x]``; the full complex pairing
``y^* H x`` is exposed separately because the low-rank machinery relies on
exact matrix identities.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn

from .errors import ConfigError, MetricSolveError
from .lowrank import _phase_fix


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
        val = np.real(np.vdot(x, self.apply(x)))
        return float(np.sqrt(max(val, 0.0)))

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

    def apply(self, x):
        self._check(x)
        return x

    def apply_inv(self, b):
        self._check(b)
        return b

    def to_dense(self):
        return np.eye(self.dim, dtype=complex)


class SobolevMetric(Metric):
    """Discrete first-order Sobolev metric on an (n2, n1) grid.

    H = mu_I I + mu_D1 D1* D1 + mu_D2 D2* D2 realized through stencil actions.
    With forward differences and zero-padded adjoints each D* D is a Neumann
    Laplacian, which the orthonormal 2-D DCT-II diagonalizes exactly, so the
    inverse is one forward and one inverse DCT around a diagonal division.
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
        self.stencil = SobolevStencil(self.grid_shape)
        super().__init__(self.grid_shape[0] * self.grid_shape[1])
        n2, n1 = self.grid_shape
        lap1 = 4.0 * np.sin(np.pi * np.arange(n1) / (2 * n1)) ** 2
        lap2 = 4.0 * np.sin(np.pi * np.arange(n2) / (2 * n2)) ** 2
        # eigenvalues of H on the DCT-II basis, indexed like the grid
        self._spectrum = mu[0] + mu[1] * lap1[None, :] + mu[2] * lap2[:, None]

    def apply(self, x):
        self._check(x)
        mu_i, mu_1, mu_2 = self.mu
        img = x.reshape(self.grid_shape)
        out = mu_i * img
        if mu_1 > 0:
            out = out + mu_1 * self.stencil.d1_adjoint(self.stencil.d1(img))
        if mu_2 > 0:
            out = out + mu_2 * self.stencil.d2_adjoint(self.stencil.d2(img))
        return out.ravel()

    def apply_inv(self, b):
        self._check(b)
        if not np.all(np.isfinite(b)):
            raise MetricSolveError("Sobolev inverse of a non-finite vector")
        img = np.asarray(b, dtype=complex).reshape(self.grid_shape)
        return idctn(dctn(img, norm="ortho") / self._spectrum, norm="ortho").ravel()


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
        super().__init__(base.dim)

    @property
    def count(self):
        return self.directions.shape[0]

    def apply(self, x):
        self._check(x)
        out = self.base.apply(x)
        if self.count:
            coeff = self._transformed_conj @ x  # phi_k^* H x
            out = out - (self.weights * coeff) @ self.transformed
        return out

    def apply_inv(self, b):
        self._check(b)
        out = self.base.apply_inv(b)
        if self.count:
            coeff = self._directions_conj @ b  # phi_k^* b
            out = out - (self._factors * coeff) @ self.directions
        return out

    def transform(self, u, adjoint=False):
        """Apply T = H_base H^{-1} (or its adjoint T^*) without inverses."""
        self._check(u)
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
    basis = np.asarray(basis)
    applied = np.asarray(applied)
    first = (applied @ vec.conj()).conj()  # u_i^* H vec, as np.vdot(H u_i, vec)
    vec = vec - first @ basis
    second = (applied @ vec.conj()).conj()
    return vec - second @ basis, first + second


def orthonormalize(vectors, metric, drop_tol=1e-10):
    """Gram-Schmidt in the metric's inner product.

    The span of the first m outputs equals the span of the first m inputs;
    vectors that are dependent beyond ``drop_tol`` (relative to their input
    norm) are dropped, so the returned list may be shorter than the input.
    Each output is scaled so that its largest-magnitude entry is real
    positive, which fixes the free global phase.
    """
    kept = []
    kept_applied = []
    for v in vectors:
        q = np.asarray(v, dtype=complex).copy()
        orig = metric.norm(q)
        if orig == 0.0:
            continue
        q, _ = project_out(q, kept, kept_applied)
        nrm = metric.norm(q)
        if nrm <= drop_tol * orig:
            continue
        q = _phase_fix(q / nrm)
        kept.append(q)
        kept_applied.append(metric.apply(q))
    return kept
