"""Low-rank factored storage of the lifted variable and its actions.

A general tensor is kept as value/factor triples ``w = sum_k sigma_k
(u_k (x) v_k)`` (the matrix ``sum_k sigma_k v_k u_k^*``); a symmetric tensor
as signed eigenpairs ``w = sum_k lambda_k (u_k (x) u_k)``, the same form with
one factor set for both sides.  The represented matrix is never materialized
outside of diagnostics.  An action in a metric H pairs e with the H-images of
the factors, u_k^* H e = (H u_k)^* e, so H is applied to the factors once per
metric, not to every e, and not at all in a metric whose images the tensor was
built with (``carry``): a thresholded iterate and its Ritz pairs carry the
images their engine pass rotated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoSolutionError

PRUNE_REL = 1e-14
DEFAULT_RANK_CAP = 64


def carried_images(tensor, side, metric):
    """conj(H u_k) for the factor columns u_k on ``side`` when ``tensor``
    holds them for this metric object, else None; a reweight builds a new
    metric, so none is stale."""
    held = tensor._images.get(side)
    return held[1] if held is not None and held[0] is metric else None


def _act(tensor, side, factors, into, metric, e):
    """sum_k value_k ((H u_k)^* e) into_k over the factor columns u_k on
    ``side``; conj(H u_k) is kept per side for the last metric object asked."""
    if tensor.rank == 0:
        return np.zeros(into.shape[0], dtype=complex)
    held = tensor._images.get(side)
    if held is None or held[0] is not metric:
        images = np.stack([metric.apply(col) for col in factors.T], axis=1)
        held = tensor._images[side] = (metric, np.conj(images, dtype=complex))
    return into @ (tensor.values * (held[1].T @ e))


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
    _images: dict = field(default_factory=dict, init=False, repr=False)

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

    def carry(self, metrics, images):
        """Hold the factors' images (H1 right, H2 left) in ``metrics``; returns self."""
        self._images["right"] = (metrics[0], images[0].conj())
        self._images["left"] = (metrics[1], images[1].conj())
        return self

    def right_action(self, metric1, e):
        """Return w H1 e = sum_k sigma_k (u_k^* H1 e) v_k."""
        return _act(self, "right", self.right, self.left, metric1, e)

    def left_action(self, metric2, f):
        """Return w^* H2 f = sum_k sigma_k (v_k^* H2 f) u_k."""
        return _act(self, "left", self.left, self.right, metric2, f)

    def projective_norm(self):
        return float(np.sum(self.values))

    def _select(self, keep, values):
        """The tensor of the same kind on the factor columns ``keep``."""
        return FactoredTensor(right=self.right[:, keep], left=self.left[:, keep], values=values)

    def scaled(self, s):
        if self.rank == 0:
            return self
        return self._select(slice(None), self.values * s)

    def pruned(self, rel_tol=PRUNE_REL):
        """Drop the triples whose |value| is at most rel_tol times the largest."""
        if self.rank == 0:
            return self
        magnitude = np.abs(self.values)
        keep = magnitude > rel_tol * np.max(magnitude)
        if np.all(keep):
            return self
        return self._select(keep, self.values[keep])

    def to_dense(self):
        """Materialize the represented matrix; small problems and tests only."""
        return (self.left * self.values) @ self.right.conj().T


class HermitianFactored(FactoredTensor):
    """Signed eigenpairs of a symmetric lifted variable: a factored tensor
    whose right and left factors are one array, ``factors``.

    ``factors`` has shape (n, r); ``values`` are real, sorted descending.
    """

    def __init__(self, factors, values):
        super().__init__(right=factors, left=factors, values=values)

    @classmethod
    def empty(cls, n):
        return cls(factors=np.zeros((n, 0), dtype=complex), values=np.zeros(0))

    @property
    def factors(self):
        return self.right

    @property
    def dim(self):
        return self.right.shape[0]

    def _select(self, keep, values):
        return HermitianFactored(factors=self.right[:, keep], values=values)

    def carry(self, metrics, images):
        """Hold the factors' images H factors in ``metrics[0]`` once, under
        the side they live on; ``images[1]`` is not read.  Returns self."""
        self._images["right"] = (metrics[0], images[0].conj())
        return self

    def action(self, metric, e):
        """Return w H e = sum_k lambda_k (u_k^* H e) u_k."""
        return _act(self, "right", self.right, self.right, metric, e)

    def leading_rank_one(self):
        """Extract u = sqrt(lambda_0) u_0 with a deterministic global phase."""
        if self.rank == 0 or self.values[0] <= 0:
            raise NoSolutionError("factorization has no positive leading component")
        return _phase_fix(np.sqrt(self.values[0]) * self.right[:, 0])

