"""Proximal iteration engines operating on factored tensors only.

``run_primal_dual`` implements the extrapolated primal-dual loop for exact,
Tikhonov, and norm-ball data fidelities in both the bilinear and the
quadratic (symmetric) setting; ``run_forward_backward`` is the one-line
gradient alternative for the Tikhonov functional.  The lifted variable is
held in factored form throughout and the extrapolated tensor is never
formed; only its forward image is combined linearly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .lowrank import FactoredTensor, HermitianFactored
from .metric import ReweightedMetric, orthonormalize
from .operators import (
    QuadraticMap,
    # the plain actions are unused here; perfbench/tracer.py wraps them at this owner
    composed_hermitian_action,
    composed_left_action,
    composed_right_action,
    lifted_apply,
    lifted_apply_quadratic,
    operator_norm,
    reweighted_composed_hermitian,
    reweighted_composed_left,
    reweighted_composed_right,
)
# augmented_restart is unused here; perfbench/tracer.py wraps it at this owner
from .partial_svd import ActionOracle, augmented_restart
from .thresholding import ThresholdConfig, evt, svt

FIDELITY_KINDS = ("exact", "tikhonov", "epsball")


@dataclass(frozen=True)
class Fidelity:
    """Data-fidelity term selecting the dual proximal update.

    ``eps`` is the norm-ball radius; only the epsball fidelity reads it, but
    it must be finite and nonnegative for every kind.
    """

    kind: str = "exact"
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in FIDELITY_KINDS:
            raise ConfigError(f"unknown fidelity {self.kind!r}")
        if not 0 <= self.eps < math.inf:
            raise ConfigError("eps must be finite and nonnegative")
        if self.kind == "epsball" and not self.eps > 0:
            raise ConfigError("epsball fidelity needs a finite eps > 0")

    @classmethod
    def exact(cls):
        return cls(kind="exact")

    @classmethod
    def tikhonov(cls):
        return cls(kind="tikhonov")

    @classmethod
    def eps_ball(cls, eps):
        return cls(kind="epsball", eps=float(eps))


@dataclass(frozen=True)
class ReweightSettings:
    """Periodic shrinking of the domain metrics along the leading directions."""

    enabled: bool = False
    weight: float = 0.5
    period: int = 10
    max_promoted: int = 5

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigError("reweight weight must lie in [0, 1]")
        if self.period < 1 or self.max_promoted < 1:
            raise ConfigError("reweight period and promotion count must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, fidelity, reweighting, and threshold-engine settings.

    ``tau``/``sigma`` default to 0.99 over the (safety-factored) operator
    norm estimate; ``alpha_reg`` scales the effective threshold level.
    """

    tau: float | None = None
    sigma: float | None = None
    theta: float = 1.0
    fidelity: Fidelity = field(default_factory=Fidelity)
    alpha_reg: float = 1.0
    reweight: ReweightSettings = field(default_factory=ReweightSettings)
    ell: int = 5
    k: int = 10
    delta: float = 1e-8
    engine: str = "lanczos"
    rank_cap: int = 5
    max_iter: int = 1000
    tol: float = 1e-10
    seed: int = 0
    validate_steps: bool = True
    normalize_data: bool = True

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta must lie in [0, 1]")
        if not 0 <= self.alpha_reg < math.inf:
            raise ConfigError("alpha_reg must be finite and nonnegative")
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ConfigError("tau must be finite and positive")
        if self.sigma is not None and not 0 < self.sigma < math.inf:
            raise ConfigError("sigma must be finite and positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")
        if not 0 <= self.tol < math.inf:
            raise ConfigError("tol must be finite and nonnegative")
        self.threshold_config(0.0)

    def threshold_config(self, tau):
        """The threshold-engine settings at level tau; raises ConfigError on bad ones."""
        return ThresholdConfig(
            tau=tau,
            ell=self.ell,
            k=self.k,
            delta=self.delta,
            engine=self.engine,
            rank_cap=self.rank_cap,
        )


@dataclass(eq=False)
class SolverState:
    """Mutable loop state: factored primal, dual vector, current metrics."""

    w: object
    w_prev: object
    y: np.ndarray
    metric1: object
    metric2: object
    n: int = 0
    norm_carry: float = 0.0


@dataclass(frozen=True)
class IterationRecord:
    n: int
    rank: int
    fidelity: float
    values: tuple
    restarts: int
    ms: float
    actions: int = 0


@dataclass(eq=False)
class SolverResult:
    w: object
    y: np.ndarray
    log: list
    scale: float
    converged: bool
    metric1: object
    metric2: object


def _shrink_euclidean(z, gamma):
    nrm = float(np.linalg.norm(z))
    if nrm <= gamma:
        return np.zeros_like(z)
    return (1.0 - gamma / nrm) * z


def dual_step(state, cfg, g, lifted_images):
    """Fidelity-dispatched dual update.

    ``lifted_images`` holds the forward images of the current and previous
    primal iterate; the extrapolation is folded into their combination.
    """
    img_curr, img_prev = lifted_images
    residual = (1.0 + cfg.theta) * img_curr - cfg.theta * img_prev - g
    z = state.y + cfg.sigma * residual
    kind = cfg.fidelity.kind
    if kind == "exact":
        return z
    if kind == "tikhonov":
        return z / (cfg.sigma + 1.0)
    return _shrink_euclidean(z, cfg.sigma * cfg.fidelity.eps)


def _threshold_oracle(state, cfg, problem):
    """Composed-action oracle for the threshold argument w - tau A^*(y)."""
    tau = cfg.tau
    y = state.y
    if isinstance(problem, QuadraticMap):
        metric = state.metric1
        action = lambda e: reweighted_composed_hermitian(state.w, tau, problem, y, e, metric)
        return ActionOracle.hermitian(
            action, metric.dim, metric, norm_estimate=state.norm_carry or None
        )
    m1, m2 = state.metric1, state.metric2
    right = lambda e: reweighted_composed_right(state.w, tau, problem, y, e, m1, m2)
    left = lambda f: reweighted_composed_left(state.w, tau, problem, y, f, m1, m2)
    return ActionOracle(
        right, left, (m1.dim, m2.dim), (m1, m2), norm_estimate=state.norm_carry or None
    )


def primal_step(state, cfg, problem, rng=None):
    """Threshold the implicit argument w - tau A^*(y) at level tau*alpha_reg.

    The result carries the thresholding statistics, ``actions`` among them.
    """
    oracle = _threshold_oracle(state, cfg, problem)
    warm = state.w if state.w.rank else None
    threshold = evt if isinstance(problem, QuadraticMap) else svt
    tcfg = cfg.threshold_config(cfg.tau * cfg.alpha_reg)
    return threshold(oracle, tcfg, rng=rng, warm_start=warm)


def _base_frame(factors, metric):
    """Metric-orthonormal basis Q of the factors' span and R = Q^* H X, so X = Q R."""
    q = np.stack(orthonormalize(list(factors.T), metric), axis=1)
    hq = np.stack([metric.apply(col) for col in q.T], axis=1)
    return q, hq.conj().T @ factors


def reweight_step(state, cfg, base1, base2):
    """Rebuild the reweighted metrics from the current iterate.

    Promotes the leading directions of the unweighted (base-metric) spectral
    decomposition of w with weights proportional to its value profile; an
    empty iterate clears all promotions.  The iterate is held as at most
    ``rank_cap`` factored triples, so the decomposition is exact: with
    X1 = Q1 R1 and X2 = Q2 R2 base-orthonormal, w = Q2 (R2 diag(values) R1^*) Q1^*
    and one SVD of that small core gives it.
    """
    w = state.w
    if w.rank == 0:
        return base1, base2
    hermitian = isinstance(w, HermitianFactored)
    q1, r1 = _base_frame(w.factors if hermitian else w.right, base1)
    q2, r2 = (q1, r1) if hermitian else _base_frame(w.left, base2)
    y_small, sig, zh_small = np.linalg.svd((r2 * w.values) @ r1.conj().T, full_matrices=False)
    sig = sig[: cfg.reweight.max_promoted]
    sig = sig[sig > 1e-12 * sig[0]]
    weights = np.minimum(cfg.reweight.weight * sig / sig[0], 1.0 - 1e-9)
    count = sig.size
    metric1 = ReweightedMetric(base1, (q1 @ zh_small[:count].conj().T).T, weights)
    if hermitian:
        return metric1, metric1
    return metric1, ReweightedMetric(base2, (q2 @ y_small[:, :count]).T, weights)


def _empty_primal(problem):
    if isinstance(problem, QuadraticMap):
        return HermitianFactored.empty(problem.h.dim)
    return FactoredTensor.empty(problem.h1.dim, problem.h2.dim)


def _lifted(problem, w):
    if isinstance(problem, QuadraticMap):
        return lifted_apply_quadratic(problem, w)
    return lifted_apply(problem, w)


def _base_metrics(problem):
    if isinstance(problem, QuadraticMap):
        return problem.h, problem.h
    return problem.h1, problem.h2


def _resolve_steps(problem, cfg, forward_backward=False):
    need_estimate = cfg.tau is None or cfg.sigma is None or cfg.validate_steps
    est = 0.0
    if need_estimate:
        est = operator_norm(problem, seed=cfg.seed).value * 1.05
    # reweighting shrinks the promoted norms, inflating the operator norm in
    # the new metric by up to 1/(1 - weight); reserve that headroom
    inflation = 1.0
    if cfg.reweight.enabled and cfg.reweight.weight < 1.0:
        inflation = 1.0 / (1.0 - cfg.reweight.weight)
    if forward_backward:
        eff = est * inflation
        tau = cfg.tau if cfg.tau is not None else (0.9 / eff**2 if eff > 0 else 1.0)
        sigma = cfg.sigma if cfg.sigma is not None else 1.0
        return replace(cfg, tau=tau, sigma=sigma), est
    default = 0.99 / (est * inflation) if est > 0 else 1.0
    tau = cfg.tau if cfg.tau is not None else default
    sigma = cfg.sigma if cfg.sigma is not None else default
    if cfg.validate_steps and est > 0 and tau * sigma * (est * inflation) ** 2 >= 1.0:
        raise ConfigError(
            f"step sizes violate tau*sigma*|B|^2 < 1 (tau={tau:.3g}, sigma={sigma:.3g}, "
            f"|B| est {est:.3g}, reweight inflation {inflation:.3g})"
        )
    return replace(cfg, tau=tau, sigma=sigma), est


def _prepare_data(g, cfg):
    g = np.asarray(g)
    scale = float(np.linalg.norm(g))
    if cfg.normalize_data and scale > 0:
        return g / scale, scale
    return g, 1.0


def _record(state, n, fidelity, ms, sink, records):
    w = state.w
    rec = IterationRecord(
        n=n,
        rank=w.rank,
        fidelity=fidelity,
        values=tuple(float(v) for v in w.values),
        restarts=w.restarts,
        ms=ms,
        actions=w.actions,
    )
    records.append(rec)
    if sink is not None:
        sink(rec)
    return rec


def _run(problem, g, cfg, sink, update_dual):
    """The proximal loop of both entries, from the zero start.

    ``update_dual(state, g, images)`` returns the new dual vector from the
    forward images of the current and previous primal iterate.
    """
    g_work, scale = _prepare_data(g, cfg)
    base1, base2 = _base_metrics(problem)
    if g_work.shape != (problem.data_dim,):
        raise ConfigError(f"data vector must have length {problem.data_dim}")

    rng = np.random.default_rng(cfg.seed)
    state = SolverState(
        w=_empty_primal(problem),
        w_prev=_empty_primal(problem),
        y=np.zeros(problem.data_dim),
        metric1=base1,
        metric2=base2,
    )
    img_curr = np.zeros(problem.data_dim, dtype=complex)
    img_prev = np.zeros(problem.data_dim, dtype=complex)
    records = []
    converged = False
    g_norm = max(float(np.linalg.norm(g_work)), 1e-300)

    for n in range(cfg.max_iter):
        t0 = time.perf_counter()
        state.y = update_dual(state, g_work, (img_curr, img_prev))
        if not np.all(np.isfinite(state.y)):
            raise NumericalError(f"dual vector became non-finite at iteration {n}")
        w_new = primal_step(state, cfg, problem, rng=rng)
        state.w_prev = state.w
        state.w = w_new
        state.n = n + 1
        state.norm_carry = max(state.norm_carry, w_new.norm_estimate)
        img_prev = img_curr
        img_curr = _lifted(problem, state.w)
        if state.w.rank and not np.all(np.isfinite(state.w.values)):
            raise NumericalError(f"primal values became non-finite at iteration {n}")
        fidelity = float(np.linalg.norm(img_curr - g_work))
        if cfg.reweight.enabled and state.n % cfg.reweight.period == 0:
            state.metric1, state.metric2 = reweight_step(state, cfg, base1, base2)
        ms = (time.perf_counter() - t0) * 1e3
        _record(state, state.n, fidelity, ms, sink, records)
        if fidelity <= cfg.tol * g_norm:
            converged = True
            break

    return SolverResult(
        w=state.w.scaled(scale),
        y=state.y,
        log=records,
        scale=scale,
        converged=converged,
        metric1=state.metric1,
        metric2=state.metric2,
    )


def run_primal_dual(problem, g, cfg, sink=None):
    """Full primal-dual loop from the zero start.

    Returns the factored solution rescaled back to the original data scale,
    the final dual vector, and the per-iteration log.  ``sink`` receives each
    IterationRecord as it is produced.
    """
    cfg, _ = _resolve_steps(problem, cfg)
    return _run(problem, g, cfg, sink, lambda state, g, images: dual_step(state, cfg, g, images))


def run_forward_backward(problem, g, cfg, sink=None):
    """Forward-backward splitting for the Tikhonov functional.

    One thresholded gradient step per iteration; the dual slot carries the
    current data residual.
    """
    if cfg.fidelity.kind != "tikhonov":
        raise ConfigError("forward-backward splitting requires the tikhonov fidelity")
    cfg, _ = _resolve_steps(problem, cfg, forward_backward=True)
    return _run(problem, g, cfg, sink, lambda state, g, images: images[0] - g)
