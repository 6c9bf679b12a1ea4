"""Partial singular value decompositions of implicitly given tensors.

Two engines work purely through operator actions in arbitrary metrics:
subspace iteration with Ritz acceleration, and a Krylov engine with
augmented (thick) restarts.  Both return leading triples together with
per-triple residual estimates, or, for an oracle the caller declares
Hermitian, signed eigenpairs, largest first, at one action per column; both
stop by one rule, ``_stopped``.  The Krylov engine runs its first pass, each
thick restart and each re-entry after an exhausted Krylov space through one
loop over one pass state: Golub-Kahan bidiagonalization
(``LanczosFactorization``, two actions per column) for a general oracle, or
Hermitian Lanczos for a Hermitian one.  Both fill one real projected matrix,
decomposed at most once per column count: a pass that ends on a checked
column hands the stop check's decomposition to the Ritz step.  Every random
draw of an engine comes from the ``rng`` its caller passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric import orthonormalize, project_carried, project_out

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
        self.aug_coupling = np.asarray(
            self.aug_coupling, dtype=np.result_type(self.aug_coupling, float)
        )
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
        """The retained values with their coupling column, followed by the
        upper bidiagonal block."""
        la, kk = self.aug_values.size, self.size
        mat = np.zeros((kk, kk), dtype=np.result_type(self.aug_coupling, float))
        idx = np.arange(kk)
        mat[idx, idx] = np.concatenate([self.aug_values, self.diag])
        if la and self.diag.size:
            mat[:la, la] = self.aug_coupling
        mat[idx[la:-1], idx[la:-1] + 1] = self.superdiag
        return mat

    def decompose(self):
        """Left vectors, singular values (descending) and right vectors as rows."""
        return np.linalg.svd(self.to_dense())


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
    images: tuple | None = None  # (H1 right_vectors, H2 left_vectors), when known
    tol: float = 0.0  # the tolerance of the engine's stopping verdict
    cut: int | None = None  # the verdict's certified cut (``_certified_cut``)

    @property
    def count(self):
        return self.values.shape[0]


def _random_unit(rng, n, metric):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / metric.norm(v)


def _empty_psvd(n1, n2, **stats):
    return PartialSVD(
        right_vectors=np.zeros((n1, 0), dtype=complex),
        left_vectors=np.zeros((n2, 0), dtype=complex),
        values=np.zeros(0),
        residuals=np.zeros(0),
        converged=True,
        exact=True,
        **stats,
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


def verdict_tol(delta, norm_est, leading):
    """The engines' absolute tolerance: ``delta`` times the larger of the
    norm estimate and the leading Ritz value, kept positive."""
    return delta * max(norm_est, leading, 1e-300)


def _stopped(values, residuals, ell, delta, norm_est, stop_below, empty_after=0):
    """The engines' one stopping rule and its tolerance, for Ritz values
    sorted descending.

    At ``tol = verdict_tol(delta, norm_est, values[0])``, the ell leading triples
    are converged (their residuals are at most tol), or, with ``stop_below``
    set, a triple is certified below that level (``_certified_cut``).  A cut
    at index 0, which leaves nothing above the level, counts only once there
    are more than ``empty_after`` values.  Returns the verdict, tol and the
    cut (None without ``stop_below``), which the engines hand on as their
    result's ``tol`` and ``cut``.
    """
    tol = verdict_tol(delta, norm_est, values[0] if values.size else 0.0)
    cut = None if stop_below is None else _certified_cut(values, residuals, stop_below, tol)
    if values.size >= ell and (residuals[:ell] <= tol).all():
        return True, tol, cut
    return cut is not None and (cut > 0 or values.size > empty_after), tol, cut


def subspace_iterate(
    oracle, ell, delta, max_sweeps=300, rng=None, start=None, stop_below=None, hermitian=False
):
    """Orthogonal iteration with Ritz acceleration for the leading triples.

    Alternates left and right operator actions over an ell-dimensional
    subspace pair, reorthonormalizing in the respective metrics, and rotates
    by the SVD of the small cross matrix.  For an oracle the caller declares
    Hermitian, a sweep is one-sided Rayleigh-Ritz: the images are both bases,
    ``eigh`` gives signed eigenvalues, largest first, and the rotated actions
    are the next images, so a sweep after the first costs one action per
    column.  It stops by ``_stopped`` with every triple of the subspace
    required, the residual of triple m being ``|w^* H2 v_m - sigma_m
    u_m|_{H1}``, or after ``max_sweeps`` sweeps, once the residuals of the
    last one are known.  An operator that maps the subspace to zero returns
    no triples.
    """
    if ell < 1 or delta <= 0 or max_sweeps < 1:
        raise ValueError("need ell >= 1, delta > 0 and max_sweeps >= 1")
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
    values = images = None

    for sweep in range(max_sweeps + 1):
        if images is None:
            images = [oracle.left(v) for v in v_cols]

        if values is not None:
            residuals = np.array(
                [m1.norm(images[m] - values[m] * u_mat[:, m]) for m in range(len(values))]
            )
            done, tol, cut = _stopped(values, residuals, values.size, delta, norm_est, stop_below)
            if done or sweep == max_sweeps:
                return PartialSVD(
                    right_vectors=u_mat,
                    left_vectors=v_mat,
                    values=values,
                    residuals=residuals,
                    converged=done,
                    sweeps=sweep,
                    norm_estimate=norm_est,
                    sweep_history=history,
                    tol=tol,
                    cut=cut,
                )

        e_cols, he_cols = orthonormalize(images, m1, images=True)
        raw = [oracle.right(e) for e in e_cols]
        f_cols, hf = (e_cols, he_cols) if hermitian else orthonormalize(raw, m2, images=True)
        if not f_cols:
            return _empty_psvd(n1, n2, sweeps=sweep + 1, sweep_history=history)

        raw_mat = np.asarray(raw).T
        cross = np.asarray(hf).conj() @ raw_mat
        e_mat = np.stack(e_cols, axis=1)
        if hermitian:
            lam, rot = np.linalg.eigh(0.5 * (cross + cross.conj().T))
            values, rot = lam[::-1], rot[:, ::-1]
            u_mat = v_mat = e_mat @ rot
            images = list((raw_mat @ rot).T)
        else:
            y_small, values, zh_small = np.linalg.svd(cross)
            r = values.shape[0]
            u_mat = e_mat @ zh_small.conj().T[:, :r]
            v_mat = np.stack(f_cols, axis=1) @ y_small[:, :r]
            v_cols = list(v_mat.T)
            images = None
        norm_est = max(norm_est, float(np.max(np.abs(values), initial=0.0)))
        history.append(values.copy())


class _KrylovPass:
    """What both pass states share: the right basis, the projected matrix,
    seeding and the loop that appends columns.

    A pass starts empty, or seeded with Ritz triples (a thick restart), and
    ``advance`` appends columns; each state supplies ``_column``, which
    fills the newest column of the projected matrix ``T``, ``_continuation``
    and ``_decompose``.  ``T`` is real and preallocated for ``cap`` columns:
    the retained values on its diagonal with their coupling column, then a
    bidiagonal (Golub-Kahan) or the upper triangle of a tridiagonal
    (Hermitian) block.  The right basis and its metric images are rows of
    arrays preallocated likewise, so the projections read them without
    copying.  ``p_last`` / ``hp_last`` / ``gamma_last`` are the continuation
    vector, its metric image and its norm, which the next pass starts from;
    the norm is zero once the Krylov space is exhausted or the right basis
    spans the whole space, and ``exact`` is then set.  ``advance`` hands
    each new column's metric image to ``add_e`` with it, so a column applies
    the metric once, for its continuation's norm and image.
    """

    def __init__(self, oracle, rng, cap, scale):
        self.oracle = oracle
        self.m1 = oracle.metrics[0]
        self.rng = rng
        n1 = oracle.dims[0]
        self.E = np.empty((cap, n1), dtype=complex)
        self.HE = np.empty((cap, n1), dtype=complex)
        self.ne = 0
        self.T = np.zeros((cap, cap))
        self.first = 0
        self.seeded = (self.E, self.HE)
        self.decomposed = (-1, None)
        self.exact = False
        # the breakdown tolerance is BREAKDOWN_REL times this running scale
        self.scale = max(scale, 1e-300)
        self.p_last = self.hp_last = None
        self.gamma_last = 0.0

    @property
    def size(self):
        return self.ne

    @property
    def right_basis(self):
        return self.E[: self.ne].T

    @property
    def basis_images(self):
        """The metric images of the right and left bases, as columns."""
        return self.HE[: self.ne].T, self.left_images

    def decompose(self):
        """The projected matrix's left vectors, values (descending) and right
        vectors as rows, None where they are the left ones.  Computed once
        per column count, so the Ritz step reuses the stop check's."""
        if self.decomposed[0] != self.ne:
            self.decomposed = (self.ne, self._decompose(self.T[: self.ne, : self.ne]))
        return self.decomposed[1]

    def estimates(self, gamma):
        """Ritz values and residual estimates of the columns so far, gamma
        being the norm of the last column's continuation."""
        y_small, values, _ = self.decompose()
        return values, gamma * np.abs(y_small[-1, :])

    def seed(self, u_mat, v_mat, values, images):
        """Start from Ritz triples; ``images`` are their vectors' metric
        images, (H1 u_mat, H2 v_mat), rotated from the last pass's."""
        r = len(values)
        self.E[:r] = u_mat.T
        self.HE[:r] = images[0].T
        self.ne = self.first = r
        self.T[np.arange(r), np.arange(r)] = values
        self.scale = max(self.scale, float(np.max(np.abs(values))) if r else 0.0)

    def _couple(self, coeff):
        """Enter the first column's coefficients against the seeded basis as
        its coupling column.  Their phases are a unitary scaling of the
        seeded rows; they are moved into those rows, which keeps T real."""
        j = self.first
        phase = np.exp(1j * np.angle(coeff[:j]))
        for rows in self.seeded:
            rows[:j] *= phase[:, None]
        self.T[:j, j] = np.abs(coeff[:j])

    def add_e(self, vec, image):
        """Append the unit vec, projected off the basis and normalized, with
        its metric image carried through the projection
        (``project_carried``); False when nothing is left of it."""
        ne = self.ne
        vec, hvec, nrm, _ = project_carried(vec, image, self.E[:ne], self.HE[:ne], self.m1)
        if nrm <= BREAKDOWN_REL * self.scale:
            return False
        np.divide(vec, nrm, out=self.E[ne])
        np.divide(hvec, nrm, out=self.HE[ne])
        self.ne = ne + 1
        return True

    def advance(self, p, gamma, hp, k, stop=None):
        """Append columns, starting from the continuation p / gamma, whose
        metric image is hp / gamma.

        k caps the pass: it ends at k columns, when the Krylov space is
        exhausted, once the right basis spans the whole space (the projected
        system then holds exactly, so no action is spent on a
        continuation), or after any column for which ``stop(self, gamma)``
        holds, gamma being the norm of that column's continuation, which is
        kept as ``p_last`` / ``hp_last`` / ``gamma_last``."""
        dim = self.E.shape[1]
        while self.ne < k:
            if gamma <= BREAKDOWN_REL * self.scale:
                self.exact = True
                return
            if not self.add_e(p / gamma, hp / gamma) or not self._column(gamma) or self.ne == dim:
                self.exact = True
                return
            p = self._continuation()
            hp, gamma = self.m1.apply_and_norm(p)
            self.scale = max(self.scale, gamma)
            if stop is not None and self.ne < k and stop(self, gamma):
                break
        self.p_last, self.hp_last, self.gamma_last = p, hp, gamma


class LanczosFactorization(_KrylovPass):
    """Golub-Kahan factorization in the oracle's metrics, with full
    reorthogonalization; the state of one pass of the recursion.

    ``system`` is the projected arrow-bidiagonal system read from ``T``,
    ``right_basis`` and ``left_basis`` its bases; the left basis lives in
    preallocated rows like the right one.  A stalled left direction
    continues from a random one drawn from ``rng``.
    """

    def __init__(self, oracle, rng, cap, scale):
        super().__init__(oracle, rng, cap, scale)
        self.m2 = oracle.metrics[1]
        n2 = oracle.dims[1]
        self.F = np.empty((cap, n2), dtype=complex)
        self.HF = np.empty((cap, n2), dtype=complex)
        self.nf = 0
        self.seeded += (self.F, self.HF)

    @property
    def system(self):
        r, n, diag = self.first, self.ne, self.T.diagonal()
        return BidiagonalSystem(diag[r:n], self.T.diagonal(1)[r : n - 1], diag[:r], self.T[:r, r])

    @property
    def left_basis(self):
        return self.F[: self.nf].T

    @property
    def left_images(self):
        return self.HF[: self.nf].T

    @staticmethod
    def _decompose(mat):
        return np.linalg.svd(mat)

    def seed(self, u_mat, v_mat, values, images):
        super().seed(u_mat, v_mat, values, images)
        r = len(values)
        self.F[:r] = v_mat.T
        self.HF[:r] = images[1].T
        self.nf = r

    def add_f_from_image(self, q):
        """Append the normalized image q, or a random direction when q
        stalls.  Returns q's norm (0 for a random direction) and its
        projection coefficients, or None when no left direction remains."""
        basis, applied = self.F[: self.nf], self.HF[: self.nf]
        q, hq, beta, coeff = project_carried(q, None, basis, applied, self.m2)
        if beta <= BREAKDOWN_REL * self.scale:
            # stalled left direction: continue in a fresh random direction
            random = _random_unit(self.rng, q.shape[0], self.m2)
            f, hf, nrm, _ = project_carried(random, None, basis, applied, self.m2)
            if nrm == 0.0:
                return None
            f, hf = f / nrm, hf / nrm
            beta = 0.0
        else:
            f, hf = q / beta, hq / beta
        self.F[self.nf] = f
        self.HF[self.nf] = hf
        self.nf += 1
        return beta, coeff

    def _column(self, gamma):
        """The left half-step of the newest right column; False when no left
        direction remains.  The first column links to no earlier one; its
        image's coefficients against a seeded left basis form the coupling
        column."""
        j = self.ne - 1
        q = self.oracle.right(self.E[j])
        if j > self.first:
            self.T[j - 1, j] = gamma
            q = q - gamma * self.F[j - 1]
        added = self.add_f_from_image(q)
        if added is None:
            self.ne -= 1
            return False
        beta, coeff = added
        if j and j == self.first:
            self._couple(coeff)
        self.T[j, j] = beta
        self.scale = max(self.scale, beta)
        return True

    def _continuation(self):
        j = self.ne - 1
        return self.oracle.left(self.F[j]) - self.T[j, j] * self.E[j]


class _HermitianLanczos(_KrylovPass):
    """Hermitian Lanczos in the oracle's first metric, with full
    reorthogonalization; the pass state for an oracle whose right action
    e -> w H1 e is self-adjoint in H1 (w Hermitian).

    Each column costs one right action.  ``T`` holds the upper triangle of
    a real symmetric matrix: tridiagonal, preceded after a thick restart by
    the retained Ritz values and their coupling column.  The left basis is
    the right one, and so are its vectors in ``decompose``.
    """

    def __init__(self, oracle, rng, cap, scale):
        super().__init__(oracle, rng, cap, scale)
        self.q = None

    left_basis = _KrylovPass.right_basis

    @property
    def left_images(self):
        return self.HE[: self.ne].T

    @staticmethod
    def _decompose(mat):
        lam, y = np.linalg.eigh(mat, UPLO="U")
        return y[:, ::-1], lam[::-1], None

    def _column(self, gamma):
        """The newest column's entries of ``T``.  The first column's
        coefficients against a seeded basis form the coupling column; every
        other column follows the three-term recurrence, and ``add_e``
        reorthogonalizes each new column (CGS2)."""
        j = self.ne - 1
        q = self.oracle.right(self.E[j])
        if j and j == self.first:
            q, coeff = project_out(q, self.E[: self.ne], self.HE[: self.ne])
            alpha = coeff[j]
            self._couple(coeff)
        else:
            if j:
                self.T[j - 1, j] = gamma
                q = q - gamma * self.E[j - 1]
            alpha = np.vdot(self.HE[j], q)
            q = q - alpha * self.E[j]
        self.T[j, j] = alpha = alpha.real
        self.scale = max(self.scale, abs(alpha))
        self.q = q
        return True

    def _continuation(self):
        return self.q


def _fresh_start(start, metric):
    """Continuation (p, gamma, H p) of a pass from the direction ``start``:
    a vector, or a pair of a vector and its metric image."""
    if isinstance(start, tuple):
        vec, hvec = start
        nrm = math.sqrt(max(np.vdot(vec, hvec).real, 0.0))
    else:
        vec = np.asarray(start, dtype=complex)
        hvec, nrm = metric.apply_and_norm(vec)
    if nrm == 0.0:
        raise ValueError("start direction must be nonzero")
    return vec / nrm, 1.0, hvec / nrm


def lanczos_bidiagonalize(oracle, start_direction, k):
    """One Golub-Kahan pass in the oracle's metrics from ``start_direction``.

    Runs at most k recursion steps with full reorthogonalization,
    terminating early when the Krylov subspace becomes invariant or the
    right basis spans the whole space (the singular values are then exact).
    Returns the ``LanczosFactorization``, whose continuation vector and norm
    a restart would start from.
    """
    if k < 1:
        raise ValueError("k must be positive")
    k = min(k, oracle.dims[0], oracle.dims[1])
    fac = LanczosFactorization(
        oracle, np.random.default_rng(0), k, float(oracle.norm_estimate or 0.0)
    )
    fac.advance(*_fresh_start(start_direction, oracle.metrics[0]), k)
    return fac


def ritz_factorize(system, right_basis, left_basis, gamma_last=0.0, images=None):
    """Dense decomposition of the projected system with basis rotation.

    ``system`` is a ``BidiagonalSystem`` or a pass state, whose decomposition
    the pass's last stop check may already hold.  A bidiagonal system gives
    singular triples; a Hermitian pass's tridiagonal system gives eigenpairs,
    signed values descending, whose right vectors are the left ones and are
    formed once.  Residual estimates are the classical last-row couplings
    scaled by the continuation norm; they are exact for the returned
    triples.  The norm estimate is the largest value modulus.  ``images``,
    the bases' metric images, are rotated like the bases into the result's
    ``images``, so no metric is applied to the Ritz vectors.
    """
    kk = system.size
    n1 = right_basis.shape[0]
    n2 = left_basis.shape[0]
    if kk == 0:
        return _empty_psvd(n1, n2)
    y_small, values, zh_small = system.decompose()

    def rotated(right, left):
        left = left @ y_small
        return (left if zh_small is None else right @ zh_small.conj().T), left

    u_mat, v_mat = rotated(right_basis, left_basis)
    if images is not None:
        images = rotated(*images)
    return PartialSVD(
        right_vectors=u_mat,
        left_vectors=v_mat,
        values=values,
        residuals=gamma_last * np.abs(y_small[-1]),
        converged=False,
        # values descend, so the largest modulus is at one end
        norm_estimate=float(max(values[0], -values[-1])),
        images=images,
    )


def augmented_restart(
    oracle, ell, k, delta, max_restarts=200, rng=None, start=None, stop_below=None,
    hermitian=False,
):
    """Restarted Krylov engine seeded with the leading Ritz vectors.

    For a general oracle a pass is a Golub-Kahan bidiagonalization and the
    triples are singular triples.  ``hermitian`` declares the right action
    self-adjoint in the first metric (w Hermitian); a pass is then Hermitian
    Lanczos, one action per column, and the triples are eigenpairs with
    signed values, largest first.  One loop runs every pass: the first, from
    ``start`` or a random vector; each thick restart, which keeps the ell
    leading Ritz triples, records the coupling column to the seeded basis and
    goes on from the continuation vector; and the re-entry after an
    exhausted Krylov space, which keeps the triples likewise but goes on
    from a random direction, since values outside an invariant space never
    enter it.  k caps the columns of a pass: after each column the projected
    system is checked, and the pass ends at the first column where
    ``_stopped`` holds (the ell leading triples converged, or a triple
    certified below ``stop_below``).  A pass from a random vector holds at
    least ell + 1 columns first, so its Krylov space can reach the leading
    values; a cut at index 0, which keeps nothing, waits for as many columns
    from any start, since a warm start may lie in directions below the
    level.  Only a pass that ends uncertified is followed by another.
    Every random draw comes from ``rng``.  All Ritz triples of the final pass
    are returned (callers needing only converged triples should consult
    ``residuals``); ``exact`` means they are the whole spectrum, as they are
    once a pass's basis spans the whole space.  Callers pass ell and k as
    set; they are clamped to the oracle's size here.
    """
    if ell < 1 or delta <= 0:
        raise ValueError("need ell >= 1 and delta > 0")
    n1, n2 = oracle.dims
    m1 = oracle.metrics[0]
    rng = rng if rng is not None else np.random.default_rng(0)
    mindim = min(n1, n2)
    ell = min(ell, mindim)
    k = min(max(k, ell + 1), mindim)
    state = _HermitianLanczos if hermitian else LanczosFactorization

    norm_est = float(oracle.norm_estimate or 0.0)

    def certified(values, residuals):
        # a start may lie in directions below the level, so a cut that
        # keeps nothing waits for ell + 1 columns, as a random start does
        return _stopped(values, residuals, ell, delta, norm_est, stop_below, empty_after=ell)

    def stop(fac, gamma):
        return fac.ne >= floor and certified(*fac.estimates(gamma))[0]

    # one Ritz value cannot stop a pass with ell >= 2: that needs ell
    # converged values, a cut after the first, or more than ell values
    least = min(ell, 2)
    floor = ell + 1 if start is None else least
    begin = _fresh_start(start if start is not None else _random_unit(rng, n1, m1), m1)
    cap, kept, restarts = k, None, 0
    while True:
        fac = state(oracle, rng, cap, norm_est)
        if kept is not None:
            fac.seed(*kept)
        fac.advance(*begin, cap, stop)
        psvd = ritz_factorize(
            fac, fac.right_basis, fac.left_basis, fac.gamma_last, fac.basis_images
        )
        norm_est = max(norm_est, psvd.norm_estimate)
        done, psvd.tol, psvd.cut = certified(psvd.values, psvd.residuals)
        done = done or psvd.count == 0
        if done or restarts >= max_restarts:
            psvd.converged = done
            psvd.exact = fac.exact and psvd.count >= mindim
            psvd.restarts = restarts
            psvd.norm_estimate = norm_est
            return psvd

        restarts += 1
        want = min(ell, psvd.count)
        kept = (
            psvd.right_vectors[:, :want],
            psvd.left_vectors[:, :want],
            psvd.values[:want],
            tuple(images[:, :want] for images in psvd.images),
        )
        # the continuation always adds a column, even when k == ell; an
        # exhausted one leaves the seeded triples as an exact factorization
        cap = max(k, want + 1)
        if fac.exact:
            floor = ell + 1
            begin = _fresh_start(_random_unit(rng, n1, m1), m1)
        else:
            floor = least
            begin = fac.p_last, fac.gamma_last, fac.hp_last


def estimate_operator_norm(oracle, iters, rng=None):
    """Power-iteration estimate of the leading singular value: the
    one-column ``subspace_iterate`` run for at most ``iters`` sweeps.

    The returned value is a Rayleigh-quotient bound and never exceeds the
    true norm (up to rounding); it grows monotonically with the iterate.
    """
    psvd = subspace_iterate(oracle, 1, 1e-15, max_sweeps=iters, rng=rng)
    return float(psvd.values[0]) if psvd.count else 0.0
