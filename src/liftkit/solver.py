"""Proximal iteration engines operating on factored tensors only.

``run_primal_dual`` implements the extrapolated primal-dual loop for exact,
Tikhonov, and norm-ball data fidelities in both the bilinear and the
quadratic (symmetric) setting; ``run_forward_backward`` is the one-line
gradient alternative for the Tikhonov functional.  The lifted variable is
held in factored form throughout and the extrapolated tensor is never
formed; only its forward image is combined linearly.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalError, check_integers
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
from .partial_svd import ActionOracle, augmented_restart, verdict_tol
from .thresholding import ThresholdConfig, evt, svt

FIDELITY_KINDS = ("exact", "tikhonov", "epsball")

# The per-iteration threshold tolerance (``threshold_delta``): an iteration
# far from the solution needs no sharp cut (inexact primal-dual steps:
# Rasch & Chambolle, Comput. Optim. Appl. 76, 2020).  Progress is measured
# by the change of the forward image, which goes to zero at any fixed point;
# the fidelity would stall at the noise level of noisy data.  While the
# current and the previous iterate are empty, both images are zero and only
# the dual moves, so progress is its relative change there.
DELTA_PROGRESS = 0.1
DELTA_MAX = 1e-2


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
        check_integers(self, "period", "max_promoted")
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigError("reweight weight must lie in [0, 1]")
        if self.period < 1 or self.max_promoted < 1:
            raise ConfigError("reweight period and promotion count must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes, fidelity, reweighting, and threshold-engine settings.

    ``tau``/``sigma`` default to 0.99 over the (safety-factored) operator
    norm estimate; ``alpha_reg`` scales the effective threshold level.
    ``delta`` is the floor of the per-iteration threshold tolerance
    (``threshold_delta``): a settled solve thresholds at it, earlier
    iterations more loosely, at most at ``DELTA_MAX``.  The iterations from
    the empty start run near ``DELTA_MAX``; with zero data, where nothing
    moves, at the floor.
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
        check_integers(self, "max_iter", "seed")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed!r}")
        self.threshold_config(0.0)

    def threshold_config(self, tau, delta=None):
        """The threshold-engine settings at level tau and relative tolerance
        ``delta`` (``self.delta`` when None); raises ConfigError on bad ones."""
        return ThresholdConfig(
            tau=tau,
            ell=self.ell,
            k=self.k,
            delta=self.delta if delta is None else delta,
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
    """One iteration's outcome; ``delta`` is the relative tolerance its
    threshold call used."""

    n: int
    rank: int
    fidelity: float
    values: tuple
    restarts: int
    ms: float
    actions: int = 0
    delta: float = 0.0


@dataclass(eq=False)
class SolverResult:
    """The loop's outcome; ``step_norm`` is the operator-norm estimate the
    step sizes were taken from or checked against (a ``NormEstimate``), None
    when none was made."""

    w: object
    y: np.ndarray
    log: list
    scale: float
    converged: bool
    metric1: object
    metric2: object
    step_norm: object = None


def _norm(x):
    """Euclidean norm of a data-space vector, from one dot product."""
    return math.sqrt(np.vdot(x, x).real)


def dual_step(state, cfg, g, lifted_images):
    """Fidelity-dispatched dual update.

    ``lifted_images`` holds the forward images of the current and previous
    primal iterate; the extrapolation is folded into their combination.
    The update is fused into one new vector; its inputs are only read.
    """
    img_curr, img_prev = lifted_images
    z = np.multiply(1.0 + cfg.theta, img_curr, dtype=np.result_type(img_curr, g))
    z -= cfg.theta * img_prev
    z -= g
    z *= cfg.sigma
    z += state.y
    kind = cfg.fidelity.kind
    if kind == "tikhonov":
        z /= cfg.sigma + 1.0
    elif kind == "epsball":
        # shrink toward the origin by sigma * eps in the Euclidean norm
        nrm, gamma = _norm(z), cfg.sigma * cfg.fidelity.eps
        z *= 0.0 if nrm <= gamma else 1.0 - gamma / nrm
    return z


def _threshold_oracle(state, cfg, problem):
    """Composed-action oracle for the threshold argument w - tau A^*(y)."""
    tau, y = cfg.tau, state.y
    if isinstance(problem, QuadraticMap):
        metric = state.metric1
        action = lambda e: reweighted_composed_hermitian(state.w, tau, problem, y, e, metric)
        return ActionOracle.hermitian(action, metric.dim, metric, state.norm_carry or None)
    m1, m2 = state.metric1, state.metric2
    right = lambda e: reweighted_composed_right(state.w, tau, problem, y, e, m1, m2)
    left = lambda f: reweighted_composed_left(state.w, tau, problem, y, f, m1, m2)
    return ActionOracle(
        right, left, (m1.dim, m2.dim), (m1, m2), norm_estimate=state.norm_carry or None
    )


def threshold_delta(cfg, change, scale):
    """The relative threshold tolerance of an iteration whose last step moved
    by ``change``: DELTA_PROGRESS times that change over ``scale``, at most
    DELTA_MAX, at least ``cfg.delta``; the floor when ``scale`` is zero.

    The loop passes the change of the forward image over the data norm, and,
    while the current and the previous iterate are empty, the change of the
    dual vector over its new norm.  No change reads as settled."""
    if not scale:
        return cfg.delta
    return max(cfg.delta, min(DELTA_MAX, DELTA_PROGRESS * change / scale))


def _rescaled_empty(reference, state, cfg, delta, adjoint_bound):
    """The empty threshold result of an empty-start iteration, decided from
    an earlier engine call's certificate at no action; None when it does
    not decide it.

    ``reference`` is (y_ref, result): an empty result of the argument
    -tau A^*(y_ref) and its ``certificate``.  With y = c y_ref + r, c > 0 by
    least squares, the argument -tau A^*(y) is c times that one plus
    -tau A^*(r), whose norm is at most tau * adjoint_bound * max|r|, so by
    Weyl's inequality its leading value is at most c * certificate plus that
    slack.  It is empty when that stays below the level by the tolerance
    this iteration's engine call would use.  The result has 0 actions and
    restarts, and hands on the reference's ``ritz_pairs``, eigenpairs of the
    same operator, as the next call's start.
    """
    y_ref, ref = reference
    ref_sq = np.vdot(y_ref, y_ref).real
    c = np.vdot(y_ref, state.y).real / ref_sq
    if not c > 0:
        return None
    slack = cfg.tau * adjoint_bound * float(np.max(np.abs(state.y - c * y_ref)))
    norm = c * ref.norm_estimate
    tol = verdict_tol(delta, state.norm_carry, norm)
    if c * ref.certificate + slack >= cfg.tau * cfg.alpha_reg - tol:
        return None
    out = copy.copy(ref)
    out.__dict__.update(restarts=0, norm_estimate=norm, actions=0, certificate=None)
    return out


def primal_step(state, cfg, problem, rng=None, delta=None):
    """Threshold the implicit argument w - tau A^*(y) at level tau*alpha_reg,
    to the relative tolerance ``delta`` (``cfg.delta`` when None).

    The call starts from the converged Ritz pairs of the call that made
    ``state.w`` (its ``ritz_pairs``), or from ``state.w`` itself when it
    carries none.  The result carries the thresholding statistics,
    ``actions`` and ``ritz_pairs`` among them.
    """
    oracle = _threshold_oracle(state, cfg, problem)
    warm = getattr(state.w, "ritz_pairs", state.w)
    threshold = evt if isinstance(problem, QuadraticMap) else svt
    tcfg = cfg.threshold_config(cfg.tau * cfg.alpha_reg, delta)
    return threshold(oracle, tcfg, rng=rng, warm_start=warm)


def _base_frame(factors, metric):
    """Metric-orthonormal basis Q of the factors' span and R = Q^* H X, so X = Q R."""
    q, hq = orthonormalize(list(factors.T), metric, images=True)
    return np.stack(q, axis=1), np.conj(hq) @ factors


def reweight_step(state, cfg, base1, base2):
    """Rebuild the reweighted metrics from the current iterate.

    Promotes the leading directions of the unweighted (base-metric) spectral
    decomposition of w with weights proportional to its value profile; an
    empty iterate clears all promotions.  The iterate is held as factored
    triples, so the decomposition is exact at any rank: with X1 = Q1 R1 and
    X2 = Q2 R2 base-orthonormal, w = Q2 (R2 diag(values) R1^*) Q1^* and one
    SVD of that small core gives it.
    """
    w = state.w
    if w.rank == 0:
        return base1, base2
    hermitian = isinstance(w, HermitianFactored)
    q1, r1 = _base_frame(w.right, base1)
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


def _resolve_steps(problem, cfg, forward_backward=False):
    """The config with its step sizes set, and the norm estimate behind them
    (None when the steps are given and not validated)."""
    need_estimate = cfg.tau is None or cfg.sigma is None or cfg.validate_steps
    norm = operator_norm(problem, seed=cfg.seed) if need_estimate else None
    est = norm.value * 1.05 if norm is not None else 0.0
    # reweighting shrinks the promoted norms, inflating the operator norm in
    # the new metric by up to 1/(1 - weight); reserve that headroom
    inflation = 1.0
    if cfg.reweight.enabled and cfg.reweight.weight < 1.0:
        inflation = 1.0 / (1.0 - cfg.reweight.weight)
    eff = est * inflation
    if forward_backward:
        tau = cfg.tau if cfg.tau is not None else (0.9 / eff**2 if eff > 0 else 1.0)
        sigma = cfg.sigma if cfg.sigma is not None else 1.0
        # forward-backward converges for tau < 2 / |B|^2
        rule, product, bound = "tau*|B|^2 < 2", tau * eff**2, 2.0
    else:
        default = 0.99 / eff if eff > 0 else 1.0
        tau = cfg.tau if cfg.tau is not None else default
        sigma = cfg.sigma if cfg.sigma is not None else default
        rule, product, bound = "tau*sigma*|B|^2 < 1", tau * sigma * eff**2, 1.0
    if cfg.validate_steps and est > 0 and product >= bound:
        raise ConfigError(
            f"step sizes violate {rule} (tau={tau:.3g}, sigma={sigma:.3g}, "
            f"|B| est {est:.3g}, reweight inflation {inflation:.3g})"
        )
    return replace(cfg, tau=tau, sigma=sigma), norm


def _prepare_data(g, cfg):
    g = np.asarray(g)
    scale = float(np.linalg.norm(g))
    if cfg.normalize_data and scale > 0:
        return g / scale, scale
    return g, 1.0


def _record(state, n, fidelity, ms, delta, sink, records):
    w = state.w
    rec = IterationRecord(n=n, rank=w.rank, fidelity=fidelity, values=tuple(w.values.tolist()),
                          restarts=w.restarts, ms=ms, actions=w.actions, delta=delta)
    records.append(rec)
    if sink is not None:
        sink(rec)


def _run(problem, g, cfg, sink, update_dual, step_norm):
    """The proximal loop of both entries, from the zero start.

    ``update_dual(state, g, images)`` returns the new dual vector from the
    forward images of the current and previous primal iterate, which are
    real for a quadratic map.  ``step_norm`` is handed to the result.

    Until the first non-empty iterate every threshold argument is
    -tau A^*(y), y a multiple of the first dual vector, so the last engine
    call there that returned an empty result with a certificate decides the
    next iterations by ``_rescaled_empty``, for a map with an adjoint bound.
    The bound is for the base metrics, which the reweighting of an empty
    iterate keeps.
    """
    g_work, scale = _prepare_data(g, cfg)
    if g_work.shape != (problem.data_dim,):
        raise ConfigError(f"data vector must have length {problem.data_dim}")
    quadratic = isinstance(problem, QuadraticMap)
    if quadratic:
        base1 = base2 = problem.h
        empty = HermitianFactored.empty(base1.dim)
    else:
        base1, base2 = problem.h1, problem.h2
        empty = FactoredTensor.empty(base1.dim, base2.dim)

    rng = np.random.default_rng(cfg.seed)
    state = SolverState(
        w=empty, w_prev=empty, y=np.zeros(problem.data_dim), metric1=base1, metric2=base2
    )
    img_dtype = float if quadratic else complex
    img_curr = np.zeros(problem.data_dim, dtype=img_dtype)
    img_prev = np.zeros(problem.data_dim, dtype=img_dtype)
    records = []
    converged = False
    g_norm = max(_norm(g_work), 1e-300)
    adjoint_bound = problem.adjoint_bound()
    # the empty start's (y, result) that decides its later iterations
    shortcut, reference = adjoint_bound is not None, None

    for n in range(cfg.max_iter):
        t0 = time.perf_counter()
        y_prev = state.y
        state.y = update_dual(state, g_work, (img_curr, img_prev))
        if not np.isfinite(state.y).all():
            raise NumericalError(f"dual vector became non-finite at iteration {n}")
        if state.w.rank or state.w_prev.rank:
            delta = threshold_delta(cfg, _norm(img_curr - img_prev), g_norm)
        else:
            delta = threshold_delta(cfg, _norm(state.y - y_prev), _norm(state.y))
        w_new = None
        if shortcut and reference is not None:
            w_new = _rescaled_empty(reference, state, cfg, delta, adjoint_bound)
        if w_new is None:
            w_new = primal_step(state, cfg, problem, rng=rng, delta=delta)
            if shortcut and w_new.certificate is not None and state.y.any():
                reference = (state.y, w_new)
        shortcut = shortcut and not w_new.rank
        state.w_prev = state.w
        state.w = w_new
        state.n = n + 1
        state.norm_carry = max(state.norm_carry, w_new.norm_estimate)
        img_prev = img_curr
        img_curr = (lifted_apply_quadratic if quadratic else lifted_apply)(problem, w_new)
        if not np.isfinite(w_new.values).all():
            raise NumericalError(f"primal values became non-finite at iteration {n}")
        fidelity = _norm(img_curr - g_work)
        if cfg.reweight.enabled and state.n % cfg.reweight.period == 0:
            state.metric1, state.metric2 = reweight_step(state, cfg, base1, base2)
        ms = (time.perf_counter() - t0) * 1e3
        _record(state, state.n, fidelity, ms, delta, sink, records)
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
        step_norm=step_norm,
    )


def run_primal_dual(problem, g, cfg, sink=None):
    """Full primal-dual loop from the zero start.

    Returns the factored solution rescaled back to the original data scale,
    the final dual vector, and the per-iteration log.  ``sink`` receives each
    IterationRecord as it is produced.
    """
    cfg, norm = _resolve_steps(problem, cfg)
    update = lambda state, g, images: dual_step(state, cfg, g, images)
    return _run(problem, g, cfg, sink, update, norm)


def run_forward_backward(problem, g, cfg, sink=None):
    """Forward-backward splitting for the Tikhonov functional.

    One thresholded gradient step per iteration; the dual slot carries the
    current data residual.
    """
    if cfg.fidelity.kind != "tikhonov":
        raise ConfigError("forward-backward splitting requires the tikhonov fidelity")
    cfg, norm = _resolve_steps(problem, cfg, forward_backward=True)
    return _run(problem, g, cfg, sink, lambda state, g, images: images[0] - g, norm)
