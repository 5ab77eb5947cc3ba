"""Greedy rank-one update solver with an alternating-least-squares inner step.

Each outer iteration fits one Kronecker rank-one correction to the current
residual and subtracts it; the accumulated corrections approximate the
solution of A x = b. Operators are applied matrix-free, so the structured
(Laplacian-like) path never materializes an N x N matrix; its ALS step builds
each mode's least-squares problem from the factor vectors and applies the
operator only once per term, to the accepted correction.
"""

import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .config import get_config
from .errors import SingularMatrixError
from .kron_core import (
    DimSplit,
    LaplacianLike,
    _as_dims,
    _as_matrix,
    _as_square_matrix,
    _check_dense_cap,
    _require_finite,
    _require_square,
    lap_matvec,
)

RESIDUAL_BELOW_EPS = "residual_below_eps"
STAGNATION = "stagnation"
RANK_MAX_REACHED = "rank_max_reached"

# Reciprocal condition (1-norm estimate) below which a structured mode step
# leaves the Cholesky solve of its normal equations for least squares. The
# Gram matrix squares the mode matrix's condition, so this means about 1e4 there.
_GRAM_RCOND_MIN = 1e-8


@dataclass(eq=False)
class RankOneVector:
    """Length-N vector stored as d Kronecker factor vectors y1 (x) ... (x) yd.

    Stored in normalized form: factors 1..d-1 have unit Euclidean norm and all
    magnitude rides on factor 0. The zero vector is stored with factor 0 = 0.
    """

    dims: DimSplit
    factors: tuple[np.ndarray, ...]
    rank_deficient: bool = field(default=False, compare=False)

    def __post_init__(self):
        dims = _as_dims(self.dims)
        self.dims = dims
        factors = [np.array(f, dtype=float).reshape(-1) for f in self.factors]
        if len(factors) != dims.d:
            raise ValueError(f"expected {dims.d} factor vectors, got {len(factors)}")
        for f, n_i in zip(factors, dims.modes):
            if f.shape != (n_i,):
                raise ValueError(f"factor of length {n_i} expected, got {f.shape}")
            _require_finite(f, "factor")
        scale = 1.0
        degenerate = np.linalg.norm(factors[0]) == 0.0
        for j in range(1, dims.d):
            m = np.linalg.norm(factors[j])
            if m == 0.0:
                degenerate = True
                break
            factors[j] = factors[j] / m
            scale *= m
        if degenerate:
            factors = [np.zeros(dims.modes[0])]
            factors += [_unit_first(n) for n in dims.modes[1:]]
        else:
            factors[0] = factors[0] * scale
        self.factors = tuple(factors)

    @classmethod
    def zeros(cls, dims) -> "RankOneVector":
        dims = _as_dims(dims)
        return cls(dims, tuple(np.zeros(n) for n in dims.modes))

    def to_vector(self) -> np.ndarray:
        return reduce(np.kron, self.factors)


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
    rank-deficient mode matrix (see :func:`als_rank_one`).
    """

    x: np.ndarray
    residual_history: list[float]
    terms_used: int
    stop_reason: str
    rank_deficient_terms: int = 0


def _random_unit_factors(dims: DimSplit, rng) -> list[np.ndarray]:
    out = []
    for n in dims.modes:
        v = rng.standard_normal(n)
        m = np.linalg.norm(v)
        while m == 0.0:  # essentially impossible, but keep the invariant airtight
            v = rng.standard_normal(n)
            m = np.linalg.norm(v)
        out.append(v / m)
    return out


def _mode_weights(factors, images, k: int):
    """The vectors w0 and s of the structured mode-k matrix, over the other modes.

    For A = alpha*I + sum_i embed(A_i) the mode-k matrix is
    M_k = w0 (x)_k C_k + s (x)_k I with C_k = alpha*I + A_k, where w0 is the
    outer product of the factors other than k and s is the sum over i != k of
    w0 with factor i replaced by ``images[i]`` = A_i y_i. Both come back
    flattened in mode order, length N / n_k.
    """
    w = np.ones(())
    s = np.zeros(())
    for j, (y, z) in enumerate(zip(factors, images)):
        if j != k:
            s = np.multiply.outer(s, y) + np.multiply.outer(w, z)
            w = np.multiply.outer(w, y)
    return w.reshape(-1), s.reshape(-1)


def _structured_step(c, w, s, r_k):
    """Minimize ||r_k - (C y) w^T - y s^T||_F over y, the structured mode step.

    ``r_k`` is the residual with mode k moved first, shape (n_k, N / n_k).
    Solves the n_k x n_k normal equations by Cholesky, or falls back to
    least squares on the explicit two-term mode matrix when the Gram matrix
    is not safely positive definite. Returns (y, objective, rank_deficient).
    """
    n_k = c.shape[0]
    ws = np.stack([w, s])
    inner = ws @ ws.T
    proj = r_k @ ws.T
    gram = inner[0, 0] * (c.T @ c) + inner[0, 1] * (c + c.T) + inner[1, 1] * np.eye(n_k)
    chol, info = dpotrf(gram)
    anorm = np.abs(gram).sum(axis=0).max()
    if info == 0 and dpocon(chol, anorm)[0] > _GRAM_RCOND_MIN:
        sol = dpotrs(chol, c.T @ proj[:, 0] + proj[:, 1])[0]
        deficient = False
    else:
        eye = np.eye(n_k)
        m = (c[:, None, :] * w[None, :, None] + eye[:, None, :] * s[None, :, None]).reshape(-1, n_k)
        sol, _, rank, _ = np.linalg.lstsq(m, r_k.reshape(-1), rcond=None)
        deficient = bool(rank < n_k)
    objective = float(np.linalg.norm(r_k - np.column_stack([c @ sol, sol]) @ ws))
    return sol, objective, deficient


def _dense_step(a, w, r, dims: DimSplit, k: int):
    """Least-squares mode step for a dense operator: M_k = A (w0 (x)_k I)."""
    n_k = dims.modes[k]
    w = w.reshape(dims.left_size(k), 1, dims.right_size(k), 1)
    m = a @ (w * np.eye(n_k)[None, :, None, :]).reshape(dims.n, n_k)
    sol, _, rank, _ = np.linalg.lstsq(m, r, rcond=None)
    return sol, float(np.linalg.norm(r - m @ sol)), bool(rank < n_k)


def als_rank_one(op: LinearOperator, r, iter_max: int = 15, seed: int = 0) -> RankOneVector:
    """Fit a rank-one Kronecker vector y minimizing ||r - A y||_2.

    Cycles through the modes; each step solves that mode's exact linear
    least-squares problem with the other factors fixed. Stops after
    ``iter_max`` full passes or when a pass improves the objective by less
    than 1e-14 * ||r||.

    A structured operator never applies A inside the fit: its mode matrix has
    the two-term form w0 (x)_k C_k + s (x)_k I (see :func:`_mode_weights`), so
    a mode step costs O(d*N + n_k^3). The n_k x n_k normal equations are
    solved by Cholesky; when the factorization fails or the Gram matrix's
    estimated reciprocal condition number is at most 1e-8, the step falls
    back to ``lstsq`` on the explicit N x n_k two-term matrix. A dense
    operator builds its mode matrix with one product A (w0 (x)_k I) and
    always uses ``lstsq``. ``lstsq`` returns the minimum-norm solution; when
    it finds a mode matrix of lower rank than n_k the result is flagged
    ``rank_deficient``. The objective is computed from the residual itself,
    not from the normal equations, which would cancel below the stopping rule.
    """
    if iter_max < 1:
        raise ValueError("iter_max must be at least 1")
    dims = op.dims
    r = np.asarray(r, dtype=float)
    if r.shape != (dims.n,):
        raise ValueError(f"residual of length {dims.n} expected, got shape {r.shape}")
    r_norm = float(np.linalg.norm(r))
    if r_norm == 0.0:
        return RankOneVector.zeros(dims)
    rng = np.random.default_rng(seed)
    factors = _random_unit_factors(dims, rng)
    lap = op.laplacian
    if lap is not None:
        t = r.reshape(dims.modes)
        r_modes = [np.moveaxis(t, k, 0).reshape(n_k, -1) for k, n_k in enumerate(dims.modes)]
        c_modes = [lap.alpha * np.eye(n_k) + f for n_k, f in zip(dims.modes, lap.factors)]
        images = [f @ y for f, y in zip(lap.factors, factors)]
    rank_deficient = False
    objective = None
    for _ in range(iter_max):
        previous = objective
        went_zero = False
        for k in range(dims.d):
            if lap is None:
                w = reduce(np.multiply.outer, factors[:k] + factors[k + 1:], np.ones(()))
                sol, objective, deficient = _dense_step(op._matrix, w, r, dims, k)
            else:
                w, s = _mode_weights(factors, images, k)
                sol, objective, deficient = _structured_step(c_modes[k], w, s, r_modes[k])
                images[k] = lap.factors[k] @ sol
            rank_deficient |= deficient
            factors[k] = sol
            if not np.any(sol):
                went_zero = True
                break
        if went_zero:
            break
        if previous is not None and previous - objective < 1e-14 * r_norm:
            break
    return RankOneVector(dims, tuple(factors), rank_deficient=rank_deficient)


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

    Repeatedly fits the best rank-one correction to the residual and subtracts
    it. Stops when the residual norm falls below ``eps``, when consecutive
    residual norms differ by less than ``tol`` (stagnation), or after
    ``rank_max`` accepted terms. Non-convergence is reported through
    ``stop_reason``, never raised.
    """
    if eps <= 0 or tol <= 0:
        raise ValueError("eps and tol must be positive")
    if rank_max < 1:
        raise ValueError("rank_max must be at least 1")
    b = np.asarray(b, dtype=float)
    if b.shape != (op.n,):
        raise ValueError(f"right-hand side of length {op.n} expected, got shape {b.shape}")
    _require_finite(b, "right-hand side")
    x = np.zeros_like(b)
    r = b.copy()
    history = [float(np.linalg.norm(r))]
    if history[0] < eps:
        return GrouReport(x, history, 0, RESIDUAL_BELOW_EPS)
    stop = RANK_MAX_REACHED
    terms = 0
    deficient_terms = 0
    for i in range(rank_max):
        y = als_rank_one(op, r, iter_max=als_iter_max, seed=_term_seed(seed, i))
        yv = y.to_vector()
        if not np.any(yv):
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
        terms += 1
        deficient_terms += y.rank_deficient
        if norm_new < eps:
            stop = RESIDUAL_BELOW_EPS
            break
        if abs(norm_new - history[-2]) < tol:
            stop = STAGNATION
            break
    return GrouReport(x, history, terms, stop, deficient_terms)


def direct_solve(a, b) -> np.ndarray:
    """Solve A x = b by pivoted LU elimination (the dense reference path).

    Raises SingularMatrixError when the smallest pivot falls below the
    configured relative tolerance.
    """
    a = _as_matrix(a, "matrix")
    _require_square(a)
    _require_finite(a, "matrix")
    _check_dense_cap(a.shape[0], "direct solve")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"right-hand side of length {a.shape[0]} expected, got shape {b.shape}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    diag = np.abs(np.diag(lu))
    pivot_min = float(diag.min()) if diag.size else 0.0
    pivot_max = float(diag.max()) if diag.size else 0.0
    if pivot_min <= get_config().pivot_tol * max(pivot_max, 1.0):
        raise SingularMatrixError(
            f"matrix is singular to tolerance (min pivot {pivot_min:.3e})",
            pivot=pivot_min,
        )
    return scipy.linalg.lu_solve((lu, piv), b)
