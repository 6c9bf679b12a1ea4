"""Forward-map contracts and the tensor-free actions built from them.

A bilinear map B(u, v) is antilinear in u and linear in v, matching the
rank-one lifting u (x) v ~ v u^*.  Implementations provide the two partial
adjoints resolved against their domain metrics; the data space carries the
Euclidean real inner product.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class BilinearMap:
    """Contract for bilinear forward operators.

    Attributes ``h1``/``h2`` are the domain metrics (right and left factor
    spaces), ``data_dim`` the measurement length.  ``norm_bound``, when set,
    is an upper bound on the operator norm.
    """

    h1 = None
    h2 = None
    data_dim = 0
    norm_bound = None

    def apply(self, u, v):
        raise NotImplementedError

    def prepare_factor(self, vec):
        """A form of the factor ``vec`` that ``apply`` and the partial
        adjoints accept in its place and that carries the work they would
        otherwise redo on every call with it; ``vec`` itself by default."""
        return vec

    def partial_adjoint_left(self, y, e):
        """Adjoint of v -> B(e, v); maps data space into the left space."""
        raise NotImplementedError

    def partial_adjoint_right(self, y, f):
        """Adjoint of u -> B(u, f); maps data space into the right space."""
        raise NotImplementedError


class QuadraticMap:
    """Contract for quadratic forward operators Q(u) = B(u, u)."""

    h = None
    data_dim = 0
    norm_bound = None

    def apply(self, u):
        raise NotImplementedError

    def sym_adjoint_action(self, y, e):
        """Action of the symmetric adjoint lifting, resolved against h."""
        raise NotImplementedError

    def bilinear(self):
        """The associated bilinear map."""
        raise NotImplementedError


def lifted_apply(bmap, w):
    """Forward image of a factored tensor: sum_k sigma_k B(u_k, v_k)."""
    out = np.zeros(bmap.data_dim, dtype=complex)
    for j in range(w.rank):
        out += w.values[j] * bmap.apply(w.right[:, j], w.left[:, j])
    return out


def lifted_apply_quadratic(qmap, w):
    """Forward image of a symmetric factored tensor: sum_k lambda_k Q(u_k)."""
    out = np.zeros(qmap.data_dim, dtype=complex)
    for j in range(w.rank):
        out += w.values[j] * qmap.apply(w.factors[:, j])
    return out


def composed_right_action(w_prev, tau, bmap, y, e, metric1):
    """Right action of w_prev - tau B^*(y) on e (threshold argument)."""
    return reweighted_composed_right(w_prev, tau, bmap, y, e, metric1, bmap.h2)


def composed_left_action(w_prev, tau, bmap, y, f, metric2):
    """Left action of w_prev - tau B^*(y) on f."""
    return reweighted_composed_left(w_prev, tau, bmap, y, f, bmap.h1, metric2)


def composed_hermitian_action(w_prev, tau, qmap, y, e, metric):
    """Action of w_prev - tau Q^*(y) on e in the symmetric setting."""
    return reweighted_composed_hermitian(w_prev, tau, qmap, y, e, metric)


def reweighted_composed_right(w_prev, tau, bmap, y, e, metric1, metric2):
    """Right composed action in possibly reweighted metrics.

    The forward-map adjoint is taken in the base metrics and mapped by the
    left-space transform adjoint (the identity for a metric that is not
    reweighted); the low-rank pairing uses the reweighted inner product.
    """
    adj = bmap.partial_adjoint_left(y, e)
    return -tau * metric2.transform(adj, adjoint=True) + w_prev.right_action(metric1, e)


def reweighted_composed_left(w_prev, tau, bmap, y, f, metric1, metric2):
    adj = bmap.partial_adjoint_right(y, f)
    return -tau * metric1.transform(adj, adjoint=True) + w_prev.left_action(metric2, f)


def reweighted_composed_hermitian(w_prev, tau, qmap, y, e, metric):
    adj = qmap.sym_adjoint_action(y, e)
    return -tau * metric.transform(adj, adjoint=True) + w_prev.action(metric, e)


def adjoint_metric_transform(hs_left, hs_right, metrics, y):
    """Wrap Euclidean adjoint actions into arbitrary metrics.

    ``hs_left(z, e)`` / ``hs_right(z, f)`` are the partial adjoint actions of
    the lifting with respect to plain inner products everywhere; ``metrics``
    is (h1, h2, k).  Returns the action pair (e -> right action, f -> left
    action) of the metric-resolved adjoint at the dual point y.
    """
    h1, h2, kmetric = metrics
    ky = kmetric.apply(y)

    def right_action(e):
        return h2.apply_inv(hs_left(ky, e))

    def left_action(f):
        return h1.apply_inv(hs_right(ky, f))

    return right_action, left_action


class NormEstimate(NamedTuple):
    value: float
    iterations: int


def operator_norm(op, iters=30, seed=0):
    """Alternating power-iteration estimate of the bilinear operator norm.

    Quadratic maps are measured through their associated bilinear map.  The
    estimate is the best rank-one quotient found and never exceeds the true
    norm; callers should apply a safety factor before using it for step-size
    rules.
    """
    bmap = op.bilinear() if isinstance(op, QuadraticMap) else op
    rng = np.random.default_rng(seed)
    n1 = bmap.h1.dim
    n2 = bmap.h2.dim

    def unit(metric, n):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return v / metric.norm(v)

    u = bmap.prepare_factor(unit(bmap.h1, n1))
    v = unit(bmap.h2, n2)
    best = 0.0
    done = 0
    for i in range(iters):
        # each factor is prepared once: for the forward image and for the
        # partial adjoint that reads it
        v = bmap.prepare_factor(v)
        y = bmap.apply(u, v)
        ny = float(np.linalg.norm(y))
        done = i + 1
        if ny == 0.0:
            break
        best = max(best, ny)
        y = y / ny
        u_new = bmap.partial_adjoint_right(y, v)
        nu = bmap.h1.norm(u_new)
        if nu == 0.0:
            break
        u = bmap.prepare_factor(u_new / nu)
        v_new = bmap.partial_adjoint_left(y, u)
        nv = bmap.h2.norm(v_new)
        if nv == 0.0:
            break
        v = v_new / nv
    return NormEstimate(value=best, iterations=done)
