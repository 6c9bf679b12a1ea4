"""Forward-map contracts and the tensor-free actions built from them.

A bilinear map B(u, v) is antilinear in u and linear in v, matching the
rank-one lifting u (x) v ~ v u^*.  Implementations provide the two partial
adjoints resolved against their domain metrics; the data space carries the
Euclidean real inner product.  The step-size estimate ``operator_norm`` is a
power iteration on the bilinear norm; a map whose norm is reached with equal
factors (``BilinearMap.norm_on_diagonal``) takes one adjoint per power step.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class BilinearMap:
    """Contract for bilinear forward operators.

    Attributes ``h1``/``h2`` are the domain metrics (right and left factor
    spaces), ``data_dim`` the measurement length.
    """

    h1 = None
    h2 = None
    data_dim = 0
    # True for a map whose norm is reached with equal factors,
    # sup |B(u, v)| = sup |B(u, u)| over unit u and v (the two factor spaces
    # coincide); ``operator_norm`` then updates one factor per power step
    norm_on_diagonal = False

    def apply(self, u, v):
        raise NotImplementedError

    def prepare_factor(self, vec):
        """A form of the factor ``vec`` that ``apply`` and the partial
        adjoints accept in its place and that carries the work they would
        otherwise redo on every call with it; ``vec`` itself by default."""
        return vec

    def norm_starts(self):
        """Candidate factors near the norm's maximum, for a map whose two
        factor spaces coincide; ``operator_norm`` starts from the best of
        them.  No candidates by default: the estimate then starts at random."""
        return iter(())

    def adjoint_bound(self):
        """A bound K such that, at every y, the tensor whose actions the
        partial adjoints give has largest singular value in ``h1``/``h2`` at
        most K max_k |y_k|; None (no bound) by default."""
        return None

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

    def apply(self, u):
        raise NotImplementedError

    def sym_adjoint_action(self, y, e):
        """Action of the symmetric adjoint lifting, resolved against h."""
        raise NotImplementedError

    def at_tolerance(self, delta):
        """The map whose adjoint actions a threshold call at relative
        tolerance ``delta`` takes: a cheaper view whose action error stays
        well below ``delta`` times the action's norm, or this map itself
        (the default)."""
        return self

    def adjoint_bound(self):
        """A bound K such that e -> sym_adjoint_action(y, e) has operator
        norm at most K max_k |y_k| in ``h``, for every y; None (no bound) by
        default."""
        return None

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
    """Forward image of a symmetric factored tensor: sum_k lambda_k Q(u_k),
    real when the map's images are."""
    if w.rank == 0:
        return np.zeros(qmap.data_dim)
    out = w.values[0] * qmap.apply(w.factors[:, 0])
    for j in range(1, w.rank):
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
    Each composed action sums into the low-rank action's own fresh output.
    """
    out = w_prev.right_action(metric1, e)
    out -= tau * metric2.transform(bmap.partial_adjoint_left(y, e), adjoint=True)
    return out


def reweighted_composed_left(w_prev, tau, bmap, y, f, metric1, metric2):
    out = w_prev.left_action(metric2, f)
    out -= tau * metric1.transform(bmap.partial_adjoint_right(y, f), adjoint=True)
    return out


def reweighted_composed_hermitian(w_prev, tau, qmap, y, e, metric):
    out = w_prev.action(metric, e)
    out -= tau * metric.transform(qmap.sym_adjoint_action(y, e), adjoint=True)
    return out


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


# A power iteration started from a norm start stops after the first step that
# raises its best quotient by less than this, relative.
NORM_SETTLE_RTOL = 1e-3


def _best_start(bmap):
    """The map's best norm start, prepared and normalized, with its forward
    image; None when it has none.  Each candidate is scored by its rank-one
    quotient |B(s, s)| / |s|^2 at one prepared factor, and only the best
    prepared factor is held."""
    best, best_quotient = None, -1.0
    for s in bmap.norm_starts():
        nrm = bmap.h1.norm(s)
        if nrm == 0.0:
            continue
        factor = bmap.prepare_factor(s / nrm)
        image = bmap.apply(factor, factor)
        quotient = float(np.linalg.norm(image))
        if quotient > best_quotient:
            best, best_quotient = (factor, image), quotient
    return best


def operator_norm(op, iters=30, seed=0):
    """Alternating power-iteration estimate of the bilinear operator norm.

    Quadratic maps are measured through their associated bilinear map.  The
    iteration starts from the map's best norm start (``norm_starts``) and
    stops after the first power step that raises the best quotient by less
    than ``NORM_SETTLE_RTOL``, relative; a map without starts takes all
    ``iters`` steps from a random start drawn with ``seed``.  ``iterations``
    counts the power steps: each maps the factors through both partial
    adjoints, prepares each once and measures one quotient.  For a map whose
    norm is reached with equal factors (``norm_on_diagonal``) a step updates
    one factor, u <- H^-1 B^*(y) u normalized and y <- B(u, u): one adjoint
    and one prepared factor, the symmetric higher-order power method
    (Kofidis & Regalia, SIAM J. Matrix Anal. Appl. 23, 2002).  The estimate is
    the best rank-one quotient found and never exceeds the true norm;
    callers should apply a safety factor before using it for step-size
    rules.
    """
    bmap = op.bilinear() if isinstance(op, QuadraticMap) else op
    start = _best_start(bmap)
    if start is None:
        rng = np.random.default_rng(seed)

        def unit(metric):
            v = rng.standard_normal(metric.dim) + 1j * rng.standard_normal(metric.dim)
            return bmap.prepare_factor(v / metric.norm(v))

        u = unit(bmap.h1)
        v = unit(bmap.h2)
        y = bmap.apply(u, v)
    else:
        u, y = start
        v = u
    ny = best = float(np.linalg.norm(y))
    done = 0
    for i in range(iters):
        if ny == 0.0:
            break
        y = y / ny
        u_new = bmap.partial_adjoint_right(y, v)
        nu = bmap.h1.norm(u_new)
        if nu == 0.0:
            break
        u = bmap.prepare_factor(u_new / nu)
        if bmap.norm_on_diagonal:
            v = u
        else:
            v_new = bmap.partial_adjoint_left(y, u)
            nv = bmap.h2.norm(v_new)
            if nv == 0.0:
                break
            v = bmap.prepare_factor(v_new / nv)
        y = bmap.apply(u, v)
        ny = float(np.linalg.norm(y))
        done = i + 1
        settled = start is not None and ny < best * (1.0 + NORM_SETTLE_RTOL)
        best = max(best, ny)
        if settled:
            break
    return NormEstimate(value=best, iterations=done)
