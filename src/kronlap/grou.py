"""Greedy rank-one update solver with an alternating-least-squares inner step.

Each outer iteration fits one Kronecker rank-one correction to the current
residual and subtracts it; the accumulated corrections approximate the
solution of A x = b. Operators are applied matrix-free, so the structured
(Laplacian-like) path never materializes an N x N matrix; its ALS step builds
each mode's least-squares problem from the factor vectors and applies the
operator only once per term, to the accepted correction.
"""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kron_core import (
    DimSplit,
    LaplacianLike,
    _as_dims,
    _as_matrix,
    _as_square_matrix,
    _as_vector,
    _check_dense_cap,
    _linalg,
    _lu_factor,
    _require_finite,
    _require_nonsingular,
    _require_square,
    lap_matvec,
)

RESIDUAL_BELOW_EPS = "residual_below_eps"
STAGNATION = "stagnation"
RANK_MAX_REACHED = "rank_max_reached"


@dataclass(eq=False)
class RankOneVector:
    """Length-N vector stored as d Kronecker factor vectors y1 (x) ... (x) yd.

    Stored in normalized form: factors 1..d-1 have unit Euclidean norm and all
    magnitude rides on factor 0. The zero vector is stored with factor 0 = 0.
    Each norm is taken on the factor scaled by a power of two, and their
    product is kept apart from its power of two, so factors far from unit
    size neither underflow to zero nor overflow unless the vector does.
    ``rank_deficient`` and ``sweeps`` describe the ALS fit that produced the
    vector, if any.
    """

    dims: DimSplit
    factors: tuple[np.ndarray, ...]
    rank_deficient: bool = field(default=False, compare=False)
    sweeps: int = field(default=0, compare=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
        self.dims = dims
        factors = [np.array(f, dtype=float).reshape(-1) for f in self.factors]
        if len(factors) != dims.d:
            raise ValueError(f"expected {dims.d} factor vectors, got {len(factors)}")
        tops = []
        for f, n_i in zip(factors, dims.modes):
            if f.shape != (n_i,):
                raise ValueError(f"factor of length {n_i} expected, got {f.shape}")
            tops.append(_require_finite(f, "factor"))
        if not all(tops):  # a zero factor
            factors = [np.zeros(dims.modes[0])]
            factors += [_unit_first(n) for n in dims.modes[1:]]
        else:
            scale, shift = 1.0, 0  # the product of the norms is scale * 2^shift
            for j in range(1, dims.d):
                e = -math.frexp(tops[j])[1]
                g = np.ldexp(factors[j], e)
                m = np.linalg.norm(g)
                factors[j] = g / m
                scale *= m
                shift -= e
            factors[0] = np.ldexp(factors[0] * scale, shift)
        self.factors = tuple(factors)

    @classmethod
    def zeros(cls, dims) -> "RankOneVector":
        dims = _as_dims(dims)
        return cls(dims, tuple(np.zeros(n) for n in dims.modes))

    def to_vector(self) -> np.ndarray:
        return reduce(np.multiply.outer, self.factors).reshape(-1)


def _unit_first(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[0] = 1.0
    return e


class LinearOperator:
    """Square linear map on R^N, either a dense matrix or a structured form.

    An operator holding a Laplacian-like form applies it through mode-wise
    contractions and never builds an N x N matrix; otherwise it holds a dense
    matrix.
    """

    def __init__(self, dims: DimSplit, matrix=None, laplacian=None):
        self.dims = _as_dims(dims)
        self._matrix = matrix
        self._laplacian = laplacian

    @classmethod
    def from_dense(cls, a, dims) -> "LinearOperator":
        a, dims = _as_square_matrix(a, dims)
        _require_finite(a, "matrix")
        return cls(dims, matrix=a)

    @classmethod
    def from_laplacian(cls, lap: LaplacianLike) -> "LinearOperator":
        return cls(lap.dims, laplacian=lap)

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def laplacian(self) -> LaplacianLike | None:
        return self._laplacian

    def apply(self, x) -> np.ndarray:
        if self._laplacian is None:
            return self._matrix @ x
        return lap_matvec(self._laplacian, x)


@dataclass(eq=False)
class GrouReport:
    """Solve outcome: estimate, per-iteration residual norms, and stop reason.

    ``rank_deficient_terms`` counts the accepted terms whose ALS fit met a
    mode matrix of numerical rank below n_k, by one rule on both operator
    kinds (see :func:`als_rank_one`). ``als_sweeps`` holds the ALS sweeps of
    each accepted term, in order.
    """

    x: np.ndarray
    residual_history: list[float]
    terms_used: int
    stop_reason: str
    rank_deficient_terms: int = 0
    als_sweeps: list[int] = field(default_factory=list)


def _mode_weights(factors, images, k: int):
    """The vectors w0 and s of the structured mode-k matrix, over the other modes.

    For A = alpha*I + sum_i embed(A_i) the mode-k matrix is
    M_k = w0 (x)_k C_k + s (x)_k I with C_k = alpha*I + A_k, where w0 is the
    outer product of the factors other than k and s is the sum over i != k of
    w0 with factor i replaced by ``images[i]`` = A_i y_i. Both come back
    flattened in mode order, length N / n_k.
    """
    others = [j for j in range(len(factors)) if j != k]
    if not others:
        return np.ones(1), np.zeros(1)
    w, s = factors[others[0]], images[others[0]]
    for j in others[1:]:
        s = np.multiply.outer(s, factors[j]) + np.multiply.outer(w, images[j])
        w = np.multiply.outer(w, factors[j])
    return w.reshape(-1), s.reshape(-1)


_EPS = np.finfo(float).eps


def _lstsq(a, b, n: int):
    """Min-norm least squares by pivoted QR, rank cut at condition 1/(eps*n): (x, deficient)."""
    n_k = a.shape[1]
    cond = _EPS * n
    dgelsy = _linalg().lapack.dgelsy
    x, _, rank = dgelsy(a, b[:, None], np.zeros(n_k, np.int32), cond, 4 * n_k + 1)[1:4]
    return x[:n_k, 0], bool(rank < n_k)


def _structured_step(c, eye, w, s, r_k, with_objective: bool):
    """Minimize ||r_k - (C y) w^T - y s^T||_F over y, the structured mode step.

    ``r_k`` is the residual with mode k moved first, shape (n_k, N / n_k), and
    ``eye`` the n_k x n_k identity. The mode matrix is ([w s] (x) I)[C; I].
    With the thin QR [w s] = QR, Q (x) I has orthonormal columns, so the
    least-squares problem on (R (x) I)[C; I] = [R00 C + R01 I; R11 I] (one
    block row when N / n_k = 1) against r_k Q has the same solutions and
    singular values. Returns (y, objective, rank_deficient); the objective is
    None unless ``with_objective``.
    """
    n_k = c.shape[0]
    lapack = _linalg().lapack
    ws = np.array([w, s])
    qr, tau = lapack.dgeqrf(ws.T)[:2]
    q = lapack.dorgqr(qr[:, :tau.size], tau)[0]
    r = qr[:tau.size]
    r[1:, 0] = 0.0  # the Householder vector, below R's diagonal
    small = (r[:, :1, None] * c + r[:, 1:, None] * eye).reshape(-1, n_k)
    sol, deficient = _lstsq(small, (r_k @ q).T.reshape(-1), w.size * n_k)
    if not with_objective:
        return sol, None, deficient
    objective = float(np.linalg.norm(r_k - np.column_stack([c @ sol, sol]) @ ws))
    return sol, objective, deficient


def _dense_step(a, w, r, dims: DimSplit, k: int, with_objective: bool):
    """Least-squares mode step for a dense operator: M_k = A (w0 (x)_k I)."""
    n_k = dims.modes[k]
    w = w.reshape(dims.left_size(k), 1, dims.right_size(k), 1)
    m = a @ (w * np.eye(n_k)[None, :, None, :]).reshape(dims.n, n_k)
    sol, deficient = _lstsq(m, r, dims.n)
    if not with_objective:
        return sol, None, deficient
    return sol, float(np.linalg.norm(r - m @ sol)), deficient


def als_rank_one(
    op: LinearOperator, r, iter_max: int = 15, seed: int = 0, *, rel_tol: float = 0.0
) -> RankOneVector:
    """Fit a rank-one Kronecker vector y minimizing ||r - A y||_2.

    Cycles through the modes; each step solves that mode's exact linear
    least-squares problem with the other factors fixed. Stops after
    ``iter_max`` full passes (sweeps) or when a sweep improves the objective
    by at most ``rel_tol`` times the previous sweep's objective, a relative
    change of fit that reads the same at every scale of r. The default 0
    stops only when a sweep does not improve it; :func:`grou` passes
    ``_ALS_REL_TOL``. The sweeps run are recorded in the result's ``sweeps``.

    A structured operator never applies A inside the fit: its mode matrix has
    the two-term form w0 (x)_k C_k + s (x)_k I (see :func:`_mode_weights`), so
    a mode step costs O(d*N + n_k^3): a thin QR of [w0 s] reduces it to a
    2n_k x n_k matrix with the same singular values. A dense operator builds
    its mode matrix as A (w0 (x)_k I). Both steps take the minimum-norm
    solution by pivoted QR with the rank cutoff eps * N, and a lower rank
    flags ``rank_deficient``. The objective is computed from the residual
    itself, once per pass after its last mode step, where the stop reads it;
    ||r||^2 - ||r_k Q||^2 would cancel below the stopping rule.
    The fit runs on 2^e * r with max |2^e * r| in [1/2, 1) and its factor 0
    is scaled back by 2^-e, exactly, so 2^k * r gets 2^k times the fit of r.
    A non-finite residual raises ValueError.
    """
    if iter_max < 1:
        raise ValueError("iter_max must be at least 1")
    if not rel_tol >= 0:
        raise ValueError("rel_tol must be non-negative")
    dims = op.dims
    r = _as_vector(r, dims.n, "residual")
    top = _require_finite(r, "residual")
    if top == 0.0:
        return RankOneVector.zeros(dims)
    e = -math.frexp(top)[1]
    r = np.ldexp(r, e)
    rng = np.random.default_rng(seed)
    factors = [v / np.linalg.norm(v) for v in (rng.standard_normal(n) for n in dims.modes)]
    lap = op.laplacian
    if lap is not None:
        t = r.reshape(dims.modes)
        r_modes = [np.moveaxis(t, k, 0).reshape(n_k, -1) for k, n_k in enumerate(dims.modes)]
        eyes = [np.eye(n_k) for n_k in dims.modes]
        c_modes = [lap.alpha * eye + f for eye, f in zip(eyes, lap.factors)]
        images = [f @ y for f, y in zip(lap.factors, factors)]
    rank_deficient = False
    objective = None
    for sweeps in range(1, iter_max + 1):
        previous = objective
        for k in range(dims.d):
            last = k == dims.d - 1  # the stop below reads only the sweep's last objective
            if lap is None:
                w = reduce(np.multiply.outer, factors[:k] + factors[k + 1:], np.ones(()))
                sol, objective, deficient = _dense_step(op._matrix, w, r, dims, k, last)
            else:
                w, s = _mode_weights(factors, images, k)
                sol, objective, deficient = _structured_step(
                    c_modes[k], eyes[k], w, s, r_modes[k], last
                )
                images[k] = lap.factors[k] @ sol
            rank_deficient |= deficient
            factors[k] = sol
            if not sol.any():  # y = 0, so factor 0 needs no scaling back
                return RankOneVector(
                    dims, tuple(factors), rank_deficient=rank_deficient, sweeps=sweeps
                )
        if previous is not None and previous - objective <= rel_tol * previous:
            break
    y = RankOneVector(dims, tuple(factors), rank_deficient=rank_deficient, sweeps=sweeps)
    y.factors = (np.ldexp(y.factors[0], -e), *y.factors[1:])
    return y


# GROU's inner stop: a term's ALS ends once a sweep lowers the objective by at
# most this fraction of the previous sweep's objective. The largest value that
# keeps Poisson solves up to n = 16 within 1e-5 of fast diagonalization with a
# margin; see docs/als_inner_stop.md.
_ALS_REL_TOL = 1e-4


def _term_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def grou(
    op: LinearOperator,
    b,
    eps: float = 1e-6,
    tol: float = 2.22e-6,
    rank_max: int = 3000,
    als_iter_max: int = 15,
    seed: int = 0,
) -> GrouReport:
    """Greedy rank-one update solve of A x = b.

    Repeatedly fits a rank-one correction to the residual by ALS and subtracts
    it. Each fit runs at most ``als_iter_max`` sweeps and ends earlier once a
    sweep lowers its objective by at most ``_ALS_REL_TOL`` (1e-4) times the
    previous sweep's, not by the absolute default rule of
    :func:`als_rank_one`, which lets almost every fit run to the cap; the
    sweeps of each accepted term are reported in ``als_sweeps``. Stops when
    the residual norm falls below ``eps``, when consecutive residual norms
    differ by less than ``tol`` (stagnation), or after ``rank_max`` accepted
    terms. Non-convergence is reported through ``stop_reason``, never raised.
    """
    if not (eps > 0 and tol > 0):  # NaN too
        raise ValueError("eps and tol must be positive")
    if rank_max < 1:
        raise ValueError("rank_max must be at least 1")
    b = _as_vector(b, op.n, "right-hand side")
    _require_finite(b, "right-hand side")
    x = np.zeros_like(b)
    r = b.copy()
    history = [float(np.linalg.norm(r))]
    if history[0] < eps:
        return GrouReport(x, history, 0, RESIDUAL_BELOW_EPS)
    stop = RANK_MAX_REACHED
    deficient_terms = 0
    sweeps = []
    for i in range(rank_max):
        y = als_rank_one(
            op, r, iter_max=als_iter_max, seed=_term_seed(seed, i), rel_tol=_ALS_REL_TOL
        )
        yv = y.to_vector()
        if not yv.any():
            stop = STAGNATION
            break
        r_new = r - op.apply(yv)
        norm_new = float(np.linalg.norm(r_new))
        if norm_new > history[-1]:
            # can only happen at rounding level; refuse the term rather than
            # let the history tick upward
            stop = STAGNATION
            break
        x = x + yv
        r = r_new
        history.append(norm_new)
        deficient_terms += y.rank_deficient
        sweeps.append(y.sweeps)
        if norm_new < eps:
            stop = RESIDUAL_BELOW_EPS
            break
        if abs(norm_new - history[-2]) < tol:
            stop = STAGNATION
            break
    return GrouReport(x, history, len(sweeps), stop, deficient_terms, sweeps)


def _band_cholesky(a, kd: int):
    """Band Cholesky of a symmetric definite ``a``: (factor, sign), or None.

    Upper band storage puts A[j - kd : j + 1, j] in column j of a (kd + 1) x N
    array. By symmetry that column is row j's segment A[j, j - kd : j + 1], so
    the storage is copied from rows, contiguous in a C-ordered ``a``, and the
    copy is compared with the upper row segments through strided views of
    ``a`` and of the storage, with no further copy.
    When the diagonal is negative, -A is factored and ``sign`` is -1. Returns
    None when the band is not exactly symmetric, the diagonal is not of one
    strict sign, or ``dpbtrf`` finds sign * A not definite. Raises ValueError
    when the copied band holds a non-finite entry.
    """
    n = a.shape[0]
    s_row, s_col = a.strides
    ab = np.zeros((kd + 1, n), order="F")
    cols = ab.T  # cols[j] is storage column j, contiguous
    for j in range(kd):  # column j < kd holds only the j + 1 entries A[0 : j + 1, j]
        cols[j, kd - j:] = a[j, : j + 1]
    tail = (n - kd, kd + 1)  # on the band path kd < n
    cols[kd:] = as_strided(a[kd:], shape=tail, strides=(s_row + s_col, s_col))
    _require_finite(ab, "matrix")
    # Row i's upper segment A[i, i : i + kd + 1] against column i's lower one,
    # which the storage holds along an anti-diagonal: A[i + t, i] sits in
    # column i + t, row kd - t. Rows past N - kd lie in the trailing block.
    upper = as_strided(a, shape=tail, strides=(s_row + s_col, s_col))
    lower = as_strided(ab[kd:], shape=tail, strides=((kd + 1) * ab.itemsize, kd * ab.itemsize))
    trail = a[n - kd:, n - kd:]
    if not (np.array_equal(upper, lower) and np.array_equal(trail, trail.T)):
        return None
    diag = ab[kd]
    if diag.min() > 0.0:
        sign = 1.0
    elif diag.max() < 0.0:
        sign = -1.0
        np.negative(ab, out=ab)
    else:
        return None
    factor, info = _linalg().lapack.dpbtrf(ab, overwrite_ab=True)
    if info > 0:
        return None
    return factor, sign


def _band_lu(a, kl: int, ku: int):
    """Pivoted LU of ``a`` in LAPACK band storage: (factor, pivots).

    Row kl + ku of the (2kl + ku + 1) x N storage holds the diagonal; the kl
    rows above the copied band take the fill that row interchanges create.
    Raises ValueError when the copied band holds a non-finite entry.
    """
    n = a.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    for d in range(-kl, ku + 1):
        ab[kl + ku - d, max(d, 0): n + min(d, 0)] = np.diagonal(a, d)
    _require_finite(ab[kl:], "matrix")
    lu, piv, _ = _linalg().lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
    return lu, piv


def direct_solve(a, b) -> np.ndarray:
    """Solve A x = b by a direct factorization (the reference path).

    Three paths, chosen from A itself:

    - Band Cholesky (``dpbtrf``/``dpbtrs``) when A's band fits (below), its
      lower and upper bandwidths are equal, the band is exactly symmetric and
      the diagonal has one strict sign, and ``dpbtrf`` finds A (or -A)
      definite. It needs no pivoting (Higham, Accuracy and Stability, Thm
      10.3); its pivots are l_ii^2, the pivots of the unpivoted LU.
    - Band LU with partial pivoting (``dgbtrf``/``dgbtrs``) otherwise, when
      the band that holds A's nonzeros, widened by the fill that pivoting can
      create (2kl + ku + 1 diagonals), is no wider than N. Its pivots are the
      |u_ii| of the pivoted LU.
    - Dense LU with partial pivoting (``lu_factor``) on the whole matrix when
      the band is wider. It picks the same pivot rows as band LU, so both
      compute the same factors up to rounding.

    ``a`` is never written. A non-finite entry raises ValueError on every
    path: the bandwidth counts NaN and inf as nonzero, so the band paths check
    only their copied band.

    Raises SingularMatrixError, on every path, when the smallest pivot is zero
    or at most the configured ``pivot_tol`` times the largest; the test is
    relative, so it does not depend on the scale of A.
    """
    a = _as_matrix(a, "matrix")
    _require_square(a)
    n = a.shape[0]
    _check_dense_cap(n, "direct solve")
    b = _as_vector(b, n, "right-hand side")
    _require_finite(b, "right-hand side")
    linalg = _linalg()
    kl, ku = linalg.bandwidth(a)
    # band storage then takes no more memory than lu_factor's copy of a; at
    # that width dgbtrf took 0.64-0.71x the time of lu_factor (N = 1024-4096)
    if 2 * kl + ku + 1 > n:
        _require_finite(a, "matrix")
        return linalg.lu_solve(_lu_factor(a, "matrix"), b, check_finite=False)
    cholesky = _band_cholesky(a, kl) if kl == ku else None
    if cholesky is not None:
        factor, sign = cholesky
        _require_nonsingular(factor[kl] ** 2, "matrix")
        return linalg.lapack.dpbtrs(factor, sign * b)[0]
    lu, piv = _band_lu(a, kl, ku)
    _require_nonsingular(lu[kl + ku], "matrix")
    return linalg.lapack.dgbtrs(lu, kl, ku, b, piv)[0]
