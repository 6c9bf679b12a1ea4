"""Soft-thresholding primitives and matrix-free spectral thresholding.

The tensor-valued operators compute only as many singular triples as the
threshold level requires, growing the subspace geometrically while the
engine keeps reporting values above the level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EngineError
from .lowrank import DEFAULT_RANK_CAP, FactoredTensor, HermitianFactored, svd_to_evd
from .partial_svd import _certified_cut, augmented_restart, subspace_iterate

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
        return np.zeros_like(z, dtype=complex)
    return (1.0 - gamma / nrm) * z


@dataclass(frozen=True)
class ThresholdConfig:
    """Settings for the tensor-free thresholding operators.

    ``ell`` is the initial subspace size, ``k`` the cap on the columns of
    one bidiagonalization pass (k > ell; a pass stops at its first certified
    column), ``delta`` the relative convergence tolerance, ``rank_cap`` the
    largest subspace the adaptation may grow to.
    """

    tau: float
    ell: int = 5
    k: int = 10
    delta: float = 1e-8
    engine: str = "lanczos"
    rank_cap: int = DEFAULT_RANK_CAP
    max_restarts: int = 200
    max_sweeps: int = 300

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("threshold level must be nonnegative")
        if not 0 < self.ell < self.k:
            raise ValueError("need 0 < ell < k")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.rank_cap < 1:
            raise ValueError("rank cap must be positive")


def _warm_vector(warm_start):
    """Start direction from a previous iterate: weighted sum of its right factors."""
    if warm_start is None or warm_start.rank == 0:
        return None
    if isinstance(warm_start, HermitianFactored):
        weights = np.abs(warm_start.values)
        vec = warm_start.factors @ weights
    else:
        vec = warm_start.right @ warm_start.values
    return vec if np.linalg.norm(vec) > 0 else None


def _warm_columns(warm_start):
    """Initial subspace columns from a previous iterate's left factors."""
    if warm_start is None or warm_start.rank == 0:
        return None
    if isinstance(warm_start, HermitianFactored):
        return [warm_start.factors[:, j] for j in range(warm_start.rank)]
    return [warm_start.left[:, j] for j in range(warm_start.rank)]


@dataclass(eq=False)
class _Thresholded:
    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    restarts: int
    sweeps: int
    norm_estimate: float


def _deflated_leading(oracle, psvd, span, cfg, rng):
    """Leading singular value of the oracle with the first ``span`` computed
    triples removed; None when the check itself does not converge.

    Guards the early threshold cut against singular values hidden from the
    Krylov space (near-degenerate clusters can conceal one member while a
    smaller converged value legitimates the stop).
    """
    from .partial_svd import ActionOracle, augmented_restart

    u = psvd.right_vectors[:, :span]
    v = psvd.left_vectors[:, :span]
    s = psvd.values[:span]
    m1, m2 = oracle.metrics

    def right(e):
        return oracle.right(e) - v @ (s * (u.conj().T @ m1.apply(e)))

    def left(f):
        return oracle.left(f) - u @ (s * (v.conj().T @ m2.apply(f)))

    deflated = ActionOracle(right, left, oracle.dims, oracle.metrics)
    mindim = min(oracle.dims)
    probe = augmented_restart(
        deflated,
        1,
        min(4, mindim) if mindim > 1 else 1,
        cfg.delta,
        max_restarts=25,
        rng=rng,
    )
    if not probe.converged:
        return None
    return float(probe.values[0]) if probe.count else 0.0


def _adaptive_triples(oracle, cfg, rng, warm_start):
    """Run the configured engine, growing the subspace until a value is
    certified below the threshold level behind a converged prefix (or the
    rank is exhausted).

    Returns the converged triples to keep (already filtered to values above
    the level) plus engine statistics.
    """
    n1, n2 = oracle.dims
    mindim = min(n1, n2)
    cap = min(cfg.rank_cap, mindim)
    ell = min(cfg.ell, cap)
    k = min(max(cfg.k, ell + 1), mindim)
    rng = rng if rng is not None else np.random.default_rng(0)

    start_vec = _warm_vector(warm_start)
    start_cols = _warm_columns(warm_start)
    total_restarts = 0
    total_sweeps = 0

    while True:
        if cfg.engine == "subspace":
            psvd = subspace_iterate(
                oracle,
                ell,
                cfg.delta,
                max_sweeps=cfg.max_sweeps,
                rng=rng,
                start=start_cols,
                stop_below=cfg.tau,
            )
        else:
            psvd = augmented_restart(
                oracle,
                ell,
                k,
                cfg.delta,
                max_restarts=cfg.max_restarts,
                rng=rng,
                start=start_vec,
                stop_below=cfg.tau,
            )
        total_restarts += psvd.restarts
        total_sweeps += psvd.sweeps

        values = psvd.values
        tol = cfg.delta * max(psvd.norm_estimate, 1e-300)
        cut = _certified_cut(values, psvd.residuals, cfg.tau, tol)

        if cut is not None:
            if not psvd.exact and ell < cap:
                # the cut claims completeness; make sure nothing above the
                # level is hidden from the computed subspace.  An unconverged
                # cut triple is no singular triple, so it is not deflated.
                span = cut + 1 if psvd.residuals[cut] <= tol else cut
                sigma_next = _deflated_leading(oracle, psvd, span, cfg, rng)
                if sigma_next is None or sigma_next > cfg.tau - tol:
                    ell = min(2 * ell, cap)
                    k = min(max(2 * ell, k), mindim)
                    # the warm start is biased toward the found triples; a
                    # fresh random start restores overlap with hidden ones
                    start_vec = None
                    start_cols = None
                    continue
            keep = np.flatnonzero(values[:cut] > cfg.tau)
        elif psvd.exact:
            keep = np.flatnonzero(values > cfg.tau)
        elif ell < cap:
            # no value certified below the level yet: enlarge the subspace
            ell = min(2 * ell, cap)
            k = min(max(2 * ell, k), mindim)
            if cfg.engine == "subspace":
                start_cols = [psvd.left_vectors[:, j] for j in range(psvd.count)]
            else:
                vec = psvd.right_vectors @ psvd.values
                start_vec = vec if np.linalg.norm(vec) > 0 else None
            continue
        else:
            # rank growth capped: accept the converged prefix (inexact regime)
            conv = psvd.residuals <= tol
            prefix = values.shape[0]
            for j in range(values.shape[0]):
                if not conv[j]:
                    prefix = j
                    break
            if prefix == 0 and values.size:
                raise EngineError(
                    f"no singular triple converged (ell={ell}, k={k})", partial=psvd
                )
            keep = np.flatnonzero(conv[:prefix] & (values[:prefix] > cfg.tau))

        return _Thresholded(
            values=values[keep],
            right=psvd.right_vectors[:, keep],
            left=psvd.left_vectors[:, keep],
            restarts=total_restarts,
            sweeps=total_sweeps,
            norm_estimate=psvd.norm_estimate,
        )


def _dense_triples(oracle, hermitian=False):
    """Materialize the oracle and decompose it exactly (benchmark baseline).

    Only intended for small problems; for non-Euclidean metrics the dense
    metric square roots are formed explicitly.
    """
    n1, n2 = oracle.dims
    m1, m2 = oracle.metrics
    eye = np.eye(n1, dtype=complex)
    wh1 = np.stack([oracle.right(eye[:, j]) for j in range(n1)], axis=1)
    euclid = m1.kind == "euclidean" and m2.kind == "euclidean"
    if euclid:
        mat = wh1
        if hermitian:
            mat = 0.5 * (mat + mat.conj().T)
            lam, vecs = np.linalg.eigh(mat)
            order = np.argsort(-lam)
            return lam[order], vecs[:, order], vecs[:, order]
        y, sig, zh = np.linalg.svd(mat)
        return sig, zh.conj().T, y
    h1 = m1.to_dense()
    h2 = m2.to_dense()
    w = wh1 @ np.linalg.inv(h1)
    r1, ri1 = _dense_sqrt(h1)
    r2, ri2 = _dense_sqrt(h2)
    mat = r2 @ w @ r1.conj().T
    if hermitian:
        mat = 0.5 * (mat + mat.conj().T)
        lam, vecs = np.linalg.eigh(mat)
        order = np.argsort(-lam)
        back = ri1 @ vecs[:, order]
        return lam[order], back, back
    y, sig, zh = np.linalg.svd(mat)
    return sig, ri1 @ zh.conj().T, ri2 @ y


def _dense_sqrt(h):
    vals, vecs = np.linalg.eigh(h)
    vals = np.maximum(vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inv_root = (vecs * (1.0 / np.sqrt(np.maximum(vals, 1e-300)))) @ vecs.conj().T
    return root, inv_root


def svt(oracle, cfg, rng=None, warm_start=None):
    """Tensor-free singular value thresholding.

    Returns the factored form of the argument with every singular value soft
    thresholded at cfg.tau; the result may be empty.  Engine statistics are
    attached as ``restarts``/``sweeps`` attributes on the returned object.
    """
    n1, n2 = oracle.dims
    if cfg.engine == "dense":
        sig, right, left = _dense_triples(oracle, hermitian=False)
        keep = sig > cfg.tau
        if not np.any(keep):
            out = FactoredTensor.empty(n1, n2)
        else:
            out = FactoredTensor(
                right=right[:, keep], left=left[:, keep], values=sig[keep] - cfg.tau
            ).pruned()
        stats = _Thresholded(out.values, out.right, out.left, 0, 0, sig[0] if len(sig) else 0.0)
    else:
        stats = _adaptive_triples(oracle, cfg, rng, warm_start)
        if stats.values.size == 0:
            out = FactoredTensor.empty(n1, n2)
        else:
            out = FactoredTensor(
                right=stats.right, left=stats.left, values=stats.values - cfg.tau
            ).pruned()
    object.__setattr__(out, "restarts", stats.restarts)
    object.__setattr__(out, "sweeps", stats.sweeps)
    object.__setattr__(out, "norm_estimate", stats.norm_estimate)
    return out


def evt(oracle, cfg, rng=None, warm_start=None):
    """Tensor-free positive eigenvalue thresholding for symmetric oracles.

    Singular triples are converted to signed eigenpairs; values at or below
    cfg.tau (including every negative eigenvalue) are annihilated, so the
    result is positive semidefinite by construction.
    """
    n = oracle.dims[0]
    metric = oracle.metrics[0]
    if cfg.engine == "dense":
        lam, vecs, _ = _dense_triples(oracle, hermitian=True)
        keep = lam > cfg.tau
        if not np.any(keep):
            out = HermitianFactored.empty(n)
        else:
            out = HermitianFactored(
                factors=vecs[:, keep], values=lam[keep] - cfg.tau
            ).pruned()
        object.__setattr__(out, "restarts", 0)
        object.__setattr__(out, "sweeps", 0)
        object.__setattr__(out, "norm_estimate", float(lam[0]) if len(lam) else 0.0)
        return out

    stats = _adaptive_triples(oracle, cfg, rng, warm_start)
    lams = []
    vecs = []
    for i in range(stats.values.size):
        lam = svd_to_evd(
            stats.values[i], stats.right[:, i], stats.left[:, i], metric
        )
        if lam > cfg.tau:
            lams.append(lam - cfg.tau)
            vecs.append(stats.right[:, i])
    if not lams:
        out = HermitianFactored.empty(n)
    else:
        out = HermitianFactored.from_pairs(lams, vecs).pruned()
    object.__setattr__(out, "restarts", stats.restarts)
    object.__setattr__(out, "sweeps", stats.sweeps)
    object.__setattr__(out, "norm_estimate", stats.norm_estimate)
    return out
