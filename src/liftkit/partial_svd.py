"""Partial singular value decompositions of implicitly given tensors.

Two engines work purely through left/right operator actions in arbitrary
metrics: subspace iteration with Ritz acceleration, and Golub-Kahan
bidiagonalization with augmented restarts.  Both return leading singular
triples together with per-triple residual estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import orthonormalize, project_out

BREAKDOWN_REL = 1e-13


class ActionOracle:
    """Matrix-free access to a tensor w through its metric actions.

    ``right(e)`` evaluates w H1 e (into the left space), ``left(f)``
    evaluates w^* H2 f (into the right space).  Calls are counted so engine
    cost can be benchmarked.
    """

    def __init__(self, right, left, dims, metrics, norm_estimate=None):
        self._right = right
        self._left = left
        self.dims = (int(dims[0]), int(dims[1]))  # (n1, n2)
        self.metrics = metrics  # (metric on H1, metric on H2)
        self.norm_estimate = norm_estimate
        self.right_calls = 0
        self.left_calls = 0

    def right(self, e):
        self.right_calls += 1
        return self._right(e)

    def left(self, f):
        self.left_calls += 1
        return self._left(f)

    @property
    def calls(self):
        return self.right_calls + self.left_calls

    @classmethod
    def hermitian(cls, action, dim, metric, norm_estimate=None):
        """Oracle for a symmetric tensor: left and right actions coincide."""
        return cls(action, action, (dim, dim), (metric, metric), norm_estimate)

    @classmethod
    def from_tensor(cls, w, metrics):
        """Oracle backed by an existing factored tensor."""
        m1, m2 = metrics
        sigma0 = float(w.values[0]) if w.rank else 0.0
        return cls(
            lambda e: w.right_action(m1, e),
            lambda f: w.left_action(m2, f),
            (w.right.shape[0], w.left.shape[0]),
            metrics,
            norm_estimate=sigma0,
        )

    @classmethod
    def from_hermitian(cls, w, metric):
        lam0 = float(np.max(np.abs(w.values))) if w.rank else 0.0
        return cls.hermitian(
            lambda e: w.action(metric, e), w.dim, metric, norm_estimate=lam0
        )


@dataclass(eq=False)
class BidiagonalSystem:
    """Projected small system: an upper bidiagonal block, optionally preceded
    by retained values with a coupling column (arrow shape after a restart)."""

    diag: np.ndarray
    superdiag: np.ndarray
    aug_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    aug_coupling: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.superdiag = np.asarray(self.superdiag, dtype=float)
        self.aug_values = np.asarray(self.aug_values, dtype=float)
        self.aug_coupling = np.asarray(self.aug_coupling, dtype=complex)
        for arr in (self.diag, self.superdiag, self.aug_values):
            if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
                raise ValueError("bidiagonal entries must be finite and nonnegative")
        if self.aug_coupling.size and not np.all(np.isfinite(self.aug_coupling)):
            raise ValueError("coupling entries must be finite")
        if self.aug_values.shape != self.aug_coupling.shape:
            raise ValueError("coupling row must match retained values")

    @property
    def size(self):
        return self.aug_values.size + self.diag.size

    def to_dense(self):
        return _arrow_matrix(self.aug_values, self.aug_coupling, self.diag, self.superdiag)


def _arrow_matrix(aug_values, coupling, diag, superdiag):
    """Dense projected system: retained values with their coupling column,
    followed by the upper bidiagonal block."""
    la, kk = len(aug_values), len(aug_values) + len(diag)
    mat = np.zeros((kk, kk), dtype=np.result_type(coupling, float))
    idx = np.arange(kk)
    mat[idx, idx] = np.concatenate([aug_values, diag])
    if la and len(diag):
        mat[:la, la] = coupling
    mat[idx[la:-1], idx[la:-1] + 1] = superdiag
    return mat


@dataclass(eq=False)
class PartialSVD:
    """Leading singular triples with residual estimates and engine stats."""

    right_vectors: np.ndarray  # (n1, r)
    left_vectors: np.ndarray   # (n2, r)
    values: np.ndarray         # (r,)
    residuals: np.ndarray      # (r,)
    converged: bool
    exact: bool = False
    sweeps: int = 0
    restarts: int = 0
    norm_estimate: float = 0.0
    sweep_history: list | None = None

    @property
    def count(self):
        return self.values.shape[0]


def _random_unit(rng, n, metric):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / metric.norm(v)


def _empty_psvd(n1, n2, values=None, converged=True, exact=True):
    r = 0 if values is None else len(values)
    return PartialSVD(
        right_vectors=np.zeros((n1, r), dtype=complex),
        left_vectors=np.zeros((n2, r), dtype=complex),
        values=np.zeros(r) if values is None else np.asarray(values, dtype=float),
        residuals=np.zeros(r),
        converged=converged,
        exact=exact,
    )


def _certified_cut(values, residuals, level, tol):
    """Index of the first Ritz value certified below ``level``, or None.

    Triple j is certified below when its interval clears the level,
    ``values[j] + residuals[j] < level - tol``, or when it is converged
    (``residuals[j] <= tol``) and ``values[j] < level - tol``.  Every triple
    before the cut must be converged; the one at the cut need not be, since
    it is dropped.  Values within tol of the level count as above it, so the
    rank does not flap.
    """
    for j, (theta, r) in enumerate(zip(values, residuals)):
        if theta + r < level - tol or (r <= tol and theta < level - tol):
            return j
        if r > tol:
            return None
    return None


def subspace_iterate(oracle, ell, delta, max_sweeps=300, rng=None, start=None, stop_below=None):
    """Orthogonal iteration with Ritz acceleration for the leading triples.

    Alternates left and right operator actions over an ell-dimensional
    subspace pair, reorthonormalizing in the respective metrics, and rotates
    by the SVD of the small cross matrix.  Converged means the residual
    ``|w^* H2 v_m - sigma_m u_m|_{H1}`` is below delta times the running
    norm estimate for every requested triple; with ``stop_below`` set, a
    triple certified below that level (``_certified_cut``) also stops the
    iteration.
    """
    if ell < 1 or delta <= 0:
        raise ValueError("need ell >= 1 and delta > 0")
    n1, n2 = oracle.dims
    m1, m2 = oracle.metrics
    ell = min(ell, n1, n2)
    rng = rng if rng is not None else np.random.default_rng(0)

    cols = [np.asarray(c, dtype=complex) for c in (start or [])][:ell]
    while len(cols) < ell:
        cols.append(rng.standard_normal(n2) + 1j * rng.standard_normal(n2))
    v_cols = orthonormalize(cols, m2)
    while len(v_cols) < ell:
        v_cols = orthonormalize(
            v_cols + [rng.standard_normal(n2) + 1j * rng.standard_normal(n2)], m2
        )

    norm_est = float(oracle.norm_estimate or 0.0)
    history = []
    u_mat = None
    v_mat = None
    values = None

    for sweep in range(1, max_sweeps + 1):
        images = [oracle.left(v) for v in v_cols]

        if values is not None:
            residuals = np.array(
                [m1.norm(images[m] - values[m] * u_mat[:, m]) for m in range(len(values))]
            )
            tol = delta * max(norm_est, 1e-300)
            done = np.all(residuals <= tol) or (
                stop_below is not None
                and _certified_cut(values, residuals, stop_below, tol) is not None
            )
            if done:
                return PartialSVD(
                    right_vectors=u_mat,
                    left_vectors=v_mat,
                    values=values,
                    residuals=residuals,
                    converged=True,
                    sweeps=sweep - 1,
                    norm_estimate=norm_est,
                    sweep_history=history,
                )

        e_cols = orthonormalize(images, m1)
        if not e_cols:
            # zero operator on the probed subspace
            out = _empty_psvd(n1, n2, values=np.zeros(ell))
            out.right_vectors = np.stack(
                orthonormalize(
                    [rng.standard_normal(n1) + 1j * rng.standard_normal(n1) for _ in range(ell)],
                    m1,
                ),
                axis=1,
            )
            out.left_vectors = np.stack(v_cols, axis=1)
            out.sweeps = sweep
            out.sweep_history = history
            return out

        raw = [oracle.right(e) for e in e_cols]
        f_cols = orthonormalize(raw, m2)
        if not f_cols:
            out = _empty_psvd(n1, n2, values=np.zeros(len(e_cols)))
            out.right_vectors = np.stack(e_cols, axis=1)
            out.left_vectors = np.stack(v_cols[: len(e_cols)], axis=1)
            out.sweeps = sweep
            out.sweep_history = history
            return out

        hf = [m2.apply(f) for f in f_cols]
        cross = np.asarray(hf).conj() @ np.asarray(raw).T
        y_small, sig, zh_small = np.linalg.svd(cross)
        r = sig.shape[0]
        e_mat = np.stack(e_cols, axis=1)
        f_mat = np.stack(f_cols, axis=1)
        u_mat = e_mat @ zh_small.conj().T[:, :r]
        v_mat = f_mat @ y_small[:, :r]
        values = sig
        v_cols = [v_mat[:, j] for j in range(r)]
        norm_est = max(norm_est, float(sig[0]) if r else 0.0)
        history.append(sig.copy())

    if values is not None:
        # per-triple residuals so callers can still use the converged prefix
        residuals = np.array(
            [m1.norm(oracle.left(v_mat[:, m]) - values[m] * u_mat[:, m]) for m in range(len(values))]
        )
    else:
        residuals = np.zeros(0)
    return PartialSVD(
        right_vectors=u_mat if u_mat is not None else np.zeros((n1, 0), dtype=complex),
        left_vectors=v_mat if v_mat is not None else np.zeros((n2, 0), dtype=complex),
        values=values if values is not None else np.zeros(0),
        residuals=residuals,
        converged=False,
        sweeps=max_sweeps,
        norm_estimate=norm_est,
        sweep_history=history,
    )


@dataclass(eq=False)
class LanczosFactorization:
    """Result of a bidiagonalization run: bases, projected system, and the
    retained continuation vector for augmented restarts."""

    system: BidiagonalSystem
    right_basis: np.ndarray  # (n1, c)
    left_basis: np.ndarray   # (n2, c)
    p_last: np.ndarray
    gamma_last: float
    exact: bool


class _GrowingFactorization:
    """Mutable Golub-Kahan state with full reorthogonalization.

    The bases and their metric images are rows of arrays preallocated for
    ``cap`` columns, so the projections read them without copying.
    """

    def __init__(self, oracle, rng, cap):
        self.oracle = oracle
        self.m1, self.m2 = oracle.metrics
        self.rng = rng
        n1, n2 = oracle.dims
        self.E = np.empty((cap, n1), dtype=complex)
        self.HE = np.empty((cap, n1), dtype=complex)
        self.F = np.empty((cap, n2), dtype=complex)
        self.HF = np.empty((cap, n2), dtype=complex)
        self.ne = self.nf = 0
        self.betas, self.gammas = [], []
        self.aug_values = np.zeros(0)
        self.aug_coupling = np.zeros(0, dtype=complex)
        self.exact = False
        self.scale = float(oracle.norm_estimate or 0.0)

    def tol(self):
        return BREAKDOWN_REL * max(self.scale, 1e-300)

    def seed(self, u_mat, v_mat, values):
        r = len(values)
        self.E[:r] = u_mat.T
        self.F[:r] = v_mat.T
        for j in range(r):
            self.HE[j] = self.m1.apply(self.E[j])
            self.HF[j] = self.m2.apply(self.F[j])
        self.ne = self.nf = r
        self.aug_values = np.asarray(values, dtype=float).copy()
        self.aug_coupling = np.zeros(r, dtype=complex)
        self.scale = max(self.scale, float(values[0]) if r else 0.0)

    def add_e(self, vec):
        vec, _ = project_out(vec.astype(complex), self.E[: self.ne], self.HE[: self.ne])
        nrm = self.m1.norm(vec)
        if nrm <= self.tol():
            return False
        self.E[self.ne] = vec / nrm
        self.HE[self.ne] = self.m1.apply(self.E[self.ne])
        self.ne += 1
        return True

    def add_f_from_image(self, q, collect=None):
        """Append the normalized image q; its projection coefficients go into ``collect``."""
        basis, applied = self.F[: self.nf], self.HF[: self.nf]
        q, coeff = project_out(q.astype(complex), basis, applied)
        if collect is not None:
            collect += coeff
        beta = self.m2.norm(q)
        if beta <= self.tol():
            # stalled left direction: continue in a fresh random direction
            f, _ = project_out(_random_unit(self.rng, q.shape[0], self.m2), basis, applied)
            nrm = self.m2.norm(f)
            if nrm == 0.0:
                return 0.0, None
            f = f / nrm
            beta = 0.0
        else:
            f = q / beta
        self.F[self.nf] = f
        self.HF[self.nf] = self.m2.apply(f)
        self.nf += 1
        return beta, f

    def advance(self, p, gamma, k, stop=None):
        """Append recursion columns, starting from the continuation p / gamma.

        k caps the pass: it ends at k columns, when the Krylov space is
        exhausted, or after any column for which ``stop(self, gamma)`` holds,
        gamma being the norm of that column's continuation.  Returns the next
        continuation pair (p, gamma).  The first column links to no earlier
        one; its image's coefficients against a seeded left basis form the
        coupling row of the restarted system."""
        n1 = self.oracle.dims[0]
        while self.ne < k:
            if gamma <= self.tol() or not self.add_e(p / gamma):
                self.exact = True
                return np.zeros(n1, dtype=complex), 0.0
            e = self.E[self.ne - 1]
            q = self.oracle.right(e)
            if self.betas:
                q = q - gamma * self.F[self.nf - 1]
            beta, f = self.add_f_from_image(q, None if self.betas else self.aug_coupling)
            if f is None:
                self.ne -= 1
                self.exact = True
                return np.zeros(n1, dtype=complex), 0.0
            if self.betas:
                self.gammas.append(gamma)
            self.betas.append(beta)
            self.scale = max(self.scale, beta)
            p = self.oracle.left(f) - beta * e
            gamma = self.m1.norm(p)
            self.scale = max(self.scale, gamma)
            if stop is not None and self.ne < k and stop(self, gamma):
                break
        return p, gamma

    def factorization(self, p, gamma):
        sys = BidiagonalSystem(
            diag=np.asarray(self.betas, dtype=float),
            superdiag=np.asarray(self.gammas, dtype=float),
            aug_values=self.aug_values,
            aug_coupling=self.aug_coupling,
        )
        return LanczosFactorization(
            system=sys,
            right_basis=self.E[: self.ne].T,
            left_basis=self.F[: self.nf].T,
            p_last=p,
            gamma_last=0.0 if self.exact else float(gamma),
            exact=self.exact,
        )


def lanczos_bidiagonalize(oracle, start_direction, k, stop=None):
    """Golub-Kahan bidiagonalization in the oracle's metrics.

    Runs at most k recursion steps with full reorthogonalization,
    terminating early when the Krylov subspace becomes invariant (the
    singular values are then exact) or when ``stop`` holds after a step (see
    ``_GrowingFactorization.advance``).  The continuation vector and its
    norm are returned for restarts.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m1 = oracle.metrics[0]
    start = np.asarray(start_direction, dtype=complex)
    nrm = m1.norm(start)
    if nrm == 0.0:
        raise ValueError("start direction must be nonzero")
    k = min(k, oracle.dims[0], oracle.dims[1])
    state = _GrowingFactorization(oracle, np.random.default_rng(0), k)
    p, gamma = state.advance(start / nrm, 1.0, k, stop)
    return state.factorization(p, gamma)


def ritz_factorize(system, right_basis, left_basis, gamma_last=0.0):
    """Dense SVD of the projected system with basis rotation.

    Residual estimates are the classical last-row couplings scaled by the
    continuation norm; they are exact for the returned triples.
    """
    kk = system.size
    n1 = right_basis.shape[0]
    n2 = left_basis.shape[0]
    if kk == 0:
        return _empty_psvd(n1, n2)
    y_small, sig, zh_small = np.linalg.svd(system.to_dense())
    u_mat = right_basis @ zh_small.conj().T
    v_mat = left_basis @ y_small
    residuals = float(gamma_last) * np.abs(y_small[-1, :])
    return PartialSVD(
        right_vectors=u_mat,
        left_vectors=v_mat,
        values=sig,
        residuals=residuals,
        converged=False,
        norm_estimate=float(sig[0]) if sig.size else 0.0,
    )


def augmented_restart(
    oracle, ell, k, delta, max_restarts=200, rng=None, start=None, stop_below=None
):
    """Restarted bidiagonalization seeded with the leading Ritz vectors.

    k caps the length of a pass: after each column the projected system is
    checked, and the pass ends at the first column where the ell leading
    Ritz triples are converged (last-row residual estimate at most delta
    times the running norm estimate) or, with ``stop_below`` set, a triple
    is certified below that level (``_certified_cut``).  A pass from a
    random vector holds at least ell + 1 columns first, so its Krylov space
    can reach the leading values.  Only a pass that reaches k columns
    uncertified is restarted: it keeps the ell leading triples plus the
    retained continuation vector, records the coupling row to the seeded
    left basis and extends by the same rule.  A Krylov space that is
    exhausted before it is certified continues from a random direction
    instead, since values outside an invariant space never enter it.  All
    Ritz triples of the final pass are returned (callers needing only
    converged triples should consult ``residuals``); ``exact`` means they
    are the whole spectrum.
    """
    if ell < 1 or delta <= 0:
        raise ValueError("need ell >= 1 and delta > 0")
    n1, n2 = oracle.dims
    m1 = oracle.metrics[0]
    rng = rng if rng is not None else np.random.default_rng(0)
    mindim = min(n1, n2)
    ell = min(ell, mindim)
    k = min(max(k, ell + 1), mindim)
    if k <= ell:
        k = ell  # tiny spaces: a single full pass is the whole decomposition

    norm_est = float(oracle.norm_estimate or 0.0)
    floor = ell + 1 if start is None else 0

    def certified(values, residuals):
        tol = delta * max(norm_est, values[0], 1e-300)
        if values.size >= ell and np.all(residuals[:ell] <= tol):
            return True
        return (
            stop_below is not None
            and _certified_cut(values, residuals, stop_below, tol) is not None
        )

    def stop(state, gamma):
        if state.ne < floor:
            return False
        # the coupling's phases are unitary row and column scalings: they
        # change neither the values nor the moduli of the last row
        small = _arrow_matrix(
            state.aug_values, np.abs(state.aug_coupling), state.betas, state.gammas
        )
        y_small, sig, _ = np.linalg.svd(small)
        return certified(sig, gamma * np.abs(y_small[-1, :]))

    if start is None:
        start = _random_unit(rng, n1, m1)
    fac = lanczos_bidiagonalize(oracle, start, k, stop)
    psvd = ritz_factorize(fac.system, fac.right_basis, fac.left_basis, fac.gamma_last)
    norm_est = max(norm_est, psvd.norm_estimate)

    restarts = 0
    while True:
        done = psvd.count == 0 or certified(psvd.values, psvd.residuals)
        if done or restarts >= max_restarts:
            psvd.converged = done
            psvd.exact = fac.exact and psvd.count >= mindim
            psvd.restarts = restarts
            psvd.norm_estimate = norm_est
            return psvd

        restarts += 1
        want = min(ell, psvd.count)
        cap = max(k, want + 1)
        state = _GrowingFactorization(oracle, rng, cap)
        state.scale = norm_est
        state.seed(
            psvd.right_vectors[:, :want], psvd.left_vectors[:, :want], psvd.values[:want]
        )
        floor = 0
        p = fac.p_last
        if fac.exact:
            # an invariant Krylov space holds no further values; look outside
            # the kept triples from a random direction
            p = _random_unit(rng, n1, m1)
            floor = ell + 1
        # the continuation always adds a column, even when k == ell; an
        # exhausted one leaves the seeded triples as an exact factorization
        p, gamma = state.advance(p, m1.norm(p), cap, stop)
        fac = state.factorization(p, gamma)
        psvd = ritz_factorize(fac.system, fac.right_basis, fac.left_basis, fac.gamma_last)
        norm_est = max(norm_est, psvd.norm_estimate)


def estimate_operator_norm(oracle, iters, rng=None, start=None):
    """Power-iteration estimate of the leading singular value.

    The returned value is a Rayleigh-quotient bound and never exceeds the
    true norm (up to rounding); it grows monotonically with the iterate.
    """
    if iters < 1:
        raise ValueError("iters must be positive")
    n1 = oracle.dims[0]
    m1, m2 = oracle.metrics
    rng = rng if rng is not None else np.random.default_rng(0)
    e = np.asarray(start, dtype=complex) if start is not None else _random_unit(rng, n1, m1)
    best = 0.0
    for _ in range(iters):
        nrm = m1.norm(e)
        if nrm == 0.0:
            break
        e = e / nrm
        image = oracle.right(e)
        est = m2.norm(image)
        best = max(best, est)
        if est == 0.0:
            break
        e = oracle.left(image)
    return best
