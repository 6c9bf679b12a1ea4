"""Low-rank factored storage of the lifted variable and its actions.

A general tensor is kept as value/factor triples ``w = sum_k sigma_k
(u_k (x) v_k)`` (the matrix ``sum_k sigma_k v_k u_k^*``); a symmetric tensor
as signed eigenpairs ``w = sum_k lambda_k (u_k (x) u_k)``.  The represented
matrix is never materialized outside of diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSolutionError

PRUNE_REL = 1e-14
DEFAULT_RANK_CAP = 64


def _phase_fix(u):
    idx = int(np.argmax(np.abs(u)))
    pivot = u[idx]
    if np.abs(pivot) > 0:
        return u * (np.conj(pivot) / np.abs(pivot))
    return u


@dataclass(frozen=True, eq=False)
class FactoredTensor:
    """Singular triples of a lifted variable.

    ``right`` has shape (n1, r), ``left`` (n2, r), ``values`` (r,) with
    strictly positive entries sorted descending.
    """

    right: np.ndarray
    left: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls, n1, n2):
        return cls(
            right=np.zeros((n1, 0), dtype=complex),
            left=np.zeros((n2, 0), dtype=complex),
            values=np.zeros(0),
        )

    @property
    def rank(self):
        return self.values.shape[0]

    @property
    def shape(self):
        return (self.left.shape[0], self.right.shape[0])

    def right_action(self, metric1, e):
        """Return w H1 e = sum_k sigma_k (u_k^* H1 e) v_k."""
        if self.rank == 0:
            return np.zeros(self.left.shape[0], dtype=complex)
        he = metric1.apply(e)
        coeff = self.values * (self.right.conj().T @ he)
        return self.left @ coeff

    def left_action(self, metric2, f):
        """Return w^* H2 f = sum_k sigma_k (v_k^* H2 f) u_k."""
        if self.rank == 0:
            return np.zeros(self.right.shape[0], dtype=complex)
        hf = metric2.apply(f)
        coeff = self.values * (self.left.conj().T @ hf)
        return self.right @ coeff

    def projective_norm(self):
        return float(np.sum(self.values))

    def scaled(self, s):
        if self.rank == 0:
            return self
        return FactoredTensor(right=self.right, left=self.left, values=self.values * s)

    def pruned(self, rel_tol=PRUNE_REL):
        if self.rank == 0:
            return self
        keep = self.values > rel_tol * self.values[0]
        if np.all(keep):
            return self
        if not np.any(keep):
            return FactoredTensor.empty(self.right.shape[0], self.left.shape[0])
        return FactoredTensor(
            right=self.right[:, keep], left=self.left[:, keep], values=self.values[keep]
        )

    def to_dense(self):
        """Materialize the represented matrix; small problems and tests only."""
        return (self.left * self.values) @ self.right.conj().T


@dataclass(frozen=True, eq=False)
class HermitianFactored:
    """Signed eigenpairs of a symmetric lifted variable.

    ``factors`` has shape (n, r); ``values`` are real, sorted descending.
    """

    factors: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls, n):
        return cls(factors=np.zeros((n, 0), dtype=complex), values=np.zeros(0))

    @property
    def rank(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.factors.shape[0]

    def action(self, metric, e):
        """Return w H e = sum_k lambda_k (u_k^* H e) u_k."""
        if self.rank == 0:
            return np.zeros(self.dim, dtype=complex)
        he = metric.apply(e)
        coeff = self.values * (self.factors.conj().T @ he)
        return self.factors @ coeff

    def projective_norm(self):
        return float(np.sum(self.values))

    def scaled(self, s):
        if self.rank == 0:
            return self
        return HermitianFactored(factors=self.factors, values=self.values * s)

    def pruned(self, rel_tol=PRUNE_REL):
        if self.rank == 0:
            return self
        scale = np.max(np.abs(self.values))
        keep = np.abs(self.values) > rel_tol * scale
        if np.all(keep):
            return self
        if not np.any(keep):
            return HermitianFactored.empty(self.dim)
        return HermitianFactored(factors=self.factors[:, keep], values=self.values[keep])

    def leading_rank_one(self):
        """Extract u = sqrt(lambda_0) u_0 with a deterministic global phase."""
        if self.rank == 0 or self.values[0] <= 0:
            raise NoSolutionError("factorization has no positive leading component")
        return _phase_fix(np.sqrt(self.values[0]) * self.factors[:, 0])

    def to_dense(self):
        """Materialize the represented matrix; small problems and tests only."""
        return (self.factors * self.values) @ self.factors.conj().T


def svd_to_evd(sigma, u, v, metric):
    """Convert a singular triple of a symmetric tensor into a signed eigenvalue.

    Returns sigma * Re[v^* H u]; the corresponding eigenvector is u.
    """
    return float(sigma) * metric.inner(u, v)
