"""Soft-thresholding primitives and matrix-free spectral thresholding.

The tensor-valued operators compute only as many singular triples as the
threshold level requires, growing the subspace geometrically while the
engine keeps reporting values above the level.  Each call hands its final
engine call's converged Ritz pairs to the next (``ritz_pairs``), below the
level included, so a solve's next threshold call starts where the last one
ended, not only from the directions it kept.  The result and its Ritz pairs
carry their factors' metric images, rotated by the engine pass from its
basis images, so neither the next actions on the result nor the next call's
start apply the metric to them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EngineError, check_integers
from .lowrank import DEFAULT_RANK_CAP, FactoredTensor, HermitianFactored, carried_images
from .partial_svd import PartialSVD, augmented_restart, subspace_iterate

ENGINES = ("lanczos", "subspace", "dense")


def soft(t, tau):
    """Soft threshold: moves t toward zero by tau, clipping at zero."""
    t = np.asarray(t)
    out = np.sign(t) * np.maximum(np.abs(t) - tau, 0.0)
    return float(out) if out.ndim == 0 else out


def soft_plus(t, tau):
    """One-sided soft threshold: t - tau above the level, zero otherwise."""
    t = np.asarray(t)
    out = np.maximum(t - tau, 0.0)
    return float(out) if out.ndim == 0 else out


def shrink(z, gamma, metric):
    """Contract z toward the origin by gamma in the metric's norm."""
    if gamma < 0:
        raise ValueError("shrink level must be nonnegative")
    nrm = metric.norm(z)
    if nrm <= gamma:
        return np.zeros_like(z)
    return (1.0 - gamma / nrm) * z


@dataclass(frozen=True)
class ThresholdConfig:
    """Settings for the tensor-free thresholding operators.

    ``ell`` is the initial subspace size, ``k`` the cap on the columns of
    one Krylov pass of the lanczos engine (k > ell; a pass stops at its first
    certified column), ``delta`` the relative convergence tolerance,
    ``rank_cap`` the largest subspace the adaptation may grow to, not a bound
    on the result's rank: a pass keeps every value it certifies above the
    level.  A column of ``svt``'s Golub-Kahan pass costs two oracle actions,
    a column of ``evt``'s Hermitian Lanczos pass one.  These checks are the
    one owner of the engine-setting rules; ``SolverConfig`` validates
    through them.
    """

    tau: float
    ell: int = 5
    k: int = 10
    delta: float = 1e-8
    engine: str = "lanczos"
    rank_cap: int = DEFAULT_RANK_CAP

    def __post_init__(self):
        check_integers(self, "ell", "k", "rank_cap")
        if not 0 <= self.tau < math.inf:
            raise ConfigError("threshold level must be finite and nonnegative")
        if not 0 < self.ell < self.k:
            raise ConfigError(f"need 0 < ell < k, got ell={self.ell}, k={self.k}")
        if not 0 < self.delta < math.inf:
            raise ConfigError("delta must be finite and positive")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.rank_cap < 1:
            raise ConfigError("rank cap must be positive")


def _warm_vector(warm_start, metric):
    """Start direction from a previous iterate: sum of its right factors
    weighted by |value|, paired with its metric image when the iterate
    carries its factors' images in ``metric``."""
    if warm_start is None or warm_start.rank == 0:
        return None
    weights = np.abs(warm_start.values)
    vec = warm_start.right @ weights
    images = carried_images(warm_start, "right", metric)
    if images is None:
        return vec if vec.any() else None
    # carried images come with metric-orthonormal factors: nonzero weights, nonzero start
    return (vec, (images @ weights).conj()) if weights.any() else None


def _deflated_leading(oracle, found, cfg, rng, hermitian):
    """Leading singular value (largest eigenvalue, for a Hermitian oracle)
    of the oracle with the computed triples ``found`` removed; None when the
    check itself does not converge.

    Guards the early threshold cut against singular values hidden from the
    Krylov space (near-degenerate clusters can conceal one member while a
    smaller converged value legitimates the stop).  The deflation acts
    through ``found``'s factor images, so the metric is applied to its
    factors at most once per side, not on every probe action.
    """
    from .partial_svd import ActionOracle, augmented_restart

    m1, m2 = oracle.metrics
    deflated = ActionOracle(
        lambda e: oracle.right(e) - found.right_action(m1, e),
        lambda f: oracle.left(f) - found.left_action(m2, f),
        oracle.dims,
        oracle.metrics,
    )
    probe = augmented_restart(
        deflated, 1, 4, cfg.delta, max_restarts=25, rng=rng, hermitian=hermitian
    )
    if not probe.converged:
        return None
    return float(probe.values[0]) if probe.count else 0.0


def _adaptive_triples(oracle, cfg, rng, warm_start, hermitian):
    """Run the configured engine, growing the subspace until a value is
    certified below the threshold level behind a converged prefix (or the
    rank is exhausted).  With ``hermitian`` every engine returns eigenpairs
    with signed values, largest first, and the iterative ones run on one
    action per column (after the subspace engine's first sweep); otherwise
    singular triples.  The exact ``dense`` engine is called once.

    Each engine call starts from one warm iterate: the caller's, the last
    result after a growth, or none after a probe finds a hidden value.  A
    probe guards every cut below the cap, and the first cut after a growth
    step even at the cap, since that growth started from the found triples.
    Returns the last engine result, its triples as one factored tensor that
    carries their metric images (``_factored``), the indices of its
    converged triples above the level, and the restarts summed over the
    engine calls.
    """
    # the rank can grow no further than the smaller dimension; the engines
    # clamp ell and k to it themselves
    cap = min(cfg.rank_cap, *oracle.dims)
    ell = min(cfg.ell, cap)
    k = cfg.k
    rng = rng if rng is not None else np.random.default_rng(0)
    warm = warm_start
    grown = False
    restarts = 0

    while True:
        if cfg.engine == "subspace":
            start = None if warm is None else list(warm.left.T)
            psvd = subspace_iterate(
                oracle, ell, cfg.delta, rng=rng, start=start, stop_below=cfg.tau,
                hermitian=hermitian,
            )
        elif cfg.engine == "dense":
            psvd = _dense_triples(oracle, hermitian)
        else:
            psvd = augmented_restart(
                oracle, ell, k, cfg.delta, rng=rng, start=_warm_vector(warm, oracle.metrics[0]),
                stop_below=cfg.tau, hermitian=hermitian,
            )
        restarts += psvd.restarts

        values, tol, cut = psvd.values, psvd.tol, psvd.cut
        full = _factored(psvd, hermitian, oracle.metrics)

        if cut is not None:
            if not psvd.exact and (ell < cap or grown):
                # the cut claims completeness; make sure nothing above the
                # level is hidden from the computed subspace.  An unconverged
                # cut triple is no singular triple, so it is not deflated.
                span = cut + 1 if psvd.residuals[cut] <= tol else cut
                found = full._select(slice(span), values[:span])
                sigma_next = _deflated_leading(oracle, found, cfg, rng, hermitian)
                if sigma_next is None or sigma_next > cfg.tau - tol:
                    ell = min(2 * ell, cap)
                    k = max(2 * ell, k)
                    # the warm start is biased toward the found triples; a
                    # fresh random start restores overlap with hidden ones
                    warm = None
                    grown = False
                    continue
            keep = (values[:cut] > cfg.tau).nonzero()[0]
        elif psvd.exact:
            keep = (values > cfg.tau).nonzero()[0]
        elif ell < cap:
            # no value certified below the level yet: enlarge the subspace
            ell = min(2 * ell, cap)
            k = max(2 * ell, k)
            # weighted by the values above zero: a large negative eigenvalue
            # would otherwise steer the next start below the level
            warm = full._select(slice(None), np.maximum(values, 0.0))
            grown = True
            continue
        else:
            # rank growth capped: accept the converged prefix (inexact regime)
            conv = psvd.residuals <= tol
            prefix = conv.size if conv.all() else int(conv.argmin())
            if prefix == 0 and values.size:
                raise EngineError(
                    f"no singular triple converged (ell={ell}, k={k})", partial=psvd
                )
            keep = (conv[:prefix] & (values[:prefix] > cfg.tau)).nonzero()[0]
        return psvd, full, keep, restarts


def _dense_triples(oracle, hermitian):
    """Materialize the oracle and decompose it exactly (benchmark baseline).

    Returns an exact ``PartialSVD`` with zero residuals, tol 0 and no cut:
    values sorted descending (signed eigenvalues when ``hermitian``) with
    their right and left vectors.  Only intended for small problems; for
    non-Euclidean metrics the dense metric square roots are formed explicitly.
    """
    n1 = oracle.dims[0]
    m1, m2 = oracle.metrics
    eye = np.eye(n1, dtype=complex)
    mat = np.stack([oracle.right(eye[:, j]) for j in range(n1)], axis=1)  # w H1
    weighted = m1.kind != "euclidean" or m2.kind != "euclidean"
    if weighted:
        h1 = m1.to_dense()
        r1, ri1 = _dense_sqrt(h1)
        r2, ri2 = _dense_sqrt(m2.to_dense())
        mat = r2 @ (mat @ np.linalg.inv(h1)) @ r1.conj().T
    if hermitian:
        lam, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        order = np.argsort(-lam)
        values, right, left = lam[order], vecs[:, order], vecs[:, order]
    else:
        y, values, zh = np.linalg.svd(mat, full_matrices=False)
        right, left = zh.conj().T, y
    if weighted:
        right, left = ri1 @ right, ri2 @ left
    return PartialSVD(
        right, left, values, np.zeros(values.shape), converged=True, exact=True,
        norm_estimate=float(np.max(np.abs(values), initial=0.0)),
    )


def _dense_sqrt(h):
    vals, vecs = np.linalg.eigh(h)
    vals = np.maximum(vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inv_root = (vecs * (1.0 / np.sqrt(np.maximum(vals, 1e-300)))) @ vecs.conj().T
    return root, inv_root


def _factored(psvd, hermitian, metrics):
    """An engine result's triples as a factored tensor (eigenpairs when
    ``hermitian``), carrying their metric images when the result holds them;
    every tensor a threshold call hands out is a selection of it."""
    if hermitian:
        out = HermitianFactored(factors=psvd.right_vectors, values=psvd.values)
    else:
        out = FactoredTensor(right=psvd.right_vectors, left=psvd.left_vectors, values=psvd.values)
    return out if psvd.images is None else out.carry(metrics, psvd.images)


def _threshold(oracle, cfg, rng, warm_start, hermitian):
    """Soft-threshold the oracle's spectrum at cfg.tau; the path behind svt and evt.

    For symmetric oracles every engine returns signed eigenvalues, largest
    first.  The result carries ``restarts`` (summed over engine calls),
    ``norm_estimate`` (nonnegative), ``actions`` (the oracle calls made here)
    and ``ritz_pairs``, which a caller passes as the next call's
    ``warm_start``: the final engine call's converged triples (its leading
    one when none converged; every triple from the dense engine, whose next
    call ignores them), weighted by max(value, 0).  Both are selections of
    the engine result's ``_factored`` wrap, carrying the metric images its
    pass rotated.  An empty result also carries its ``certificate``: the
    bound theta + r of the leading Ritz value (the largest value, exactly,
    from the dense engine; 0 when the engine found no value), which the
    verdict certified below the level, or None when the verdict accepted the
    result uncertified at the rank cap; a non-empty result carries None.
    """
    calls = oracle.calls
    psvd, full, keep, restarts = _adaptive_triples(oracle, cfg, rng, warm_start, hermitian)
    values = psvd.values
    bound = None
    if psvd.cut is not None or psvd.exact:
        bound = float(values[0] + psvd.residuals[0]) if values.size else 0.0
    conv = (psvd.residuals <= psvd.tol).nonzero()[0]
    idx = conv if conv.size else np.arange(min(psvd.count, 1))
    pairs = full._select(idx, np.maximum(values[idx], 0.0))
    out = full._select(keep, values[keep] - cfg.tau).pruned()
    out.__dict__.update(
        restarts=restarts, norm_estimate=psvd.norm_estimate, actions=oracle.calls - calls,
        ritz_pairs=pairs, certificate=None if out.rank else bound,
    )
    return out


def svt(oracle, cfg, rng=None, warm_start=None):
    """Tensor-free singular value thresholding.

    Returns the factored form of the argument with every singular value soft
    thresholded at cfg.tau; the result may be empty.  Engine statistics are
    attached as described in ``_threshold``.
    """
    return _threshold(oracle, cfg, rng, warm_start, hermitian=False)


def evt(oracle, cfg, rng=None, warm_start=None):
    """Tensor-free positive eigenvalue thresholding for symmetric oracles.

    Values at or below cfg.tau (including every negative eigenvalue) are
    annihilated, so the result is positive semidefinite by construction.
    """
    return _threshold(oracle, cfg, rng, warm_start, hermitian=True)
