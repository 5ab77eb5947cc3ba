"""Greedy rank-one update solver with an alternating-least-squares inner step.

Each outer iteration fits one Kronecker rank-one correction to the current
residual and subtracts it; the accumulated corrections approximate the
solution of A x = b. Operators are applied matrix-free, so the structured
(Laplacian-like) path never materializes an N x N matrix; its ALS step builds
each mode's least-squares problem from the factor vectors.

The structured form has two kinds, picked by ``LinearOperator.from_laplacian``.
``_EigenbasisOperator`` (every factor exactly symmetric) is A = V D V^T with
V = (x)_i V_i orthogonal and D diagonal. :func:`grou` and :func:`als_rank_one`
change basis once, at their edges, and fit, apply and subtract with D in the
basis (``_DiagonalOperator``): D o (x)_i y^_i costs O(N), and the mode matrix
has orthogonal columns, so its least-squares solution is a ratio of two O(N)
contractions. ``_LaplacianOperator`` reduces the mode matrix to 2n_k x n_k by
a thin QR and solves that by pivoted QR (``dgelsy``), as ``_DenseOperator``
solves its N x n_k mode matrix; these apply A once per term, to the accepted
correction. One rank rule holds on every step: a column whose singular value
is at most eps * N times the largest is cut, ``dgelsy`` judging by its
condition estimate and the diagonal step by the exact singular values; the
fit is then rank deficient.
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
    _linalg,
    _lu_factor,
    _mode_product,
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
                m = _norm(g)
                factors[j] = g / m
                scale *= m
                shift -= e
            factors[0] = np.ldexp(factors[0] * scale, shift)
        self.factors = tuple(factors)

    def to_vector(self) -> np.ndarray:
        return reduce(np.multiply.outer, self.factors).reshape(-1)


def _unit_first(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[0] = 1.0
    return e


class LinearOperator:
    """Square linear map on R^N, built by :meth:`from_dense` or :meth:`from_laplacian`.

    Three kinds, one class each: ``_DenseOperator``, and for the structured
    form ``_EigenbasisOperator`` (symmetric factors) or ``_LaplacianOperator``.
    Each defines ``apply``, and no caller asks which kind it holds: :func:`grou`
    and :func:`als_rank_one` fit on ``_fitted()``, the B of A = V B V^T with V
    orthogonal, which is the eigenbasis kind's diagonal and any other kind
    itself (V = I). ``_to_basis``, ``_from_basis`` and ``_factors_from_basis``
    map x to V^T x, x to V x and factors y^_i to V_i y^_i.

    B defines the mode step: ``_mode_step(r, factors)`` returns ``step(k)``,
    which fits factor k with the others fixed and returns (y_k, objective,
    rank_deficient). The objective ||r - B (x)_i y_i|| is returned after the
    last mode, k = d - 1, and is None before it. The caller runs k = 0..d-1
    in order and stores each y_k in ``factors``, which the QR steps read as
    it changes and the diagonal step once, at the start. The steps fit
    2^``_fit_exponent`` * B.
    ``laplacian`` is the structured form, None on the dense kind.
    """

    laplacian: LaplacianLike | None = None
    _fit_exponent = 0

    @staticmethod
    def from_dense(a, dims) -> "LinearOperator":
        return _DenseOperator(a, dims)

    @staticmethod
    def from_laplacian(lap: LaplacianLike) -> "LinearOperator":
        if all(np.array_equal(f, f.T) for f in lap.factors):
            return _EigenbasisOperator(lap)
        return _LaplacianOperator(lap)

    @property
    def n(self) -> int:
        return self.dims.n

    def _fitted(self) -> "LinearOperator":
        return self

    def _to_basis(self, x) -> np.ndarray:
        return x

    def _from_basis(self, x) -> np.ndarray:
        return x

    def _factors_from_basis(self, factors):
        return factors


@dataclass(eq=False)
class GrouReport:
    """Solve outcome: estimate, per-iteration residual norms, and stop reason.

    ``rank_deficient_terms`` counts the accepted terms whose ALS fit met a
    mode matrix of numerical rank below n_k, by one rule on every mode step:
    a column with singular value at most eps * N times the largest is cut,
    as estimated by ``dgelsy`` on the QR steps and exactly on the eigenbasis
    step (see :func:`als_rank_one`). ``als_sweeps`` holds the ALS sweeps of
    each accepted term, in order. On the eigenbasis kind ``residual_history``
    holds the norms of the residual in the basis, V^T (b - A x_k); V is
    orthogonal, so they equal ||b - A x_k|| up to rounding.
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


def _structured_step(c, w, s, r_k, with_objective: bool):
    """Minimize ||r_k - (C y) w^T - y s^T||_F over y, the structured mode step.

    ``r_k`` is the residual with mode k moved first, shape (n_k, N / n_k). The
    mode matrix is ([w s] (x) I)[C; I]. With the thin QR [w s] = QR, Q (x) I
    has orthonormal columns, so the least-squares problem on
    (R (x) I)[C; I] = [R00 C + R01 I; R11 I] (one block row when N / n_k = 1)
    against r_k Q has the same solutions and singular values. Returns
    (y, objective, rank_deficient); the objective is None unless
    ``with_objective``.
    """
    n_k = c.shape[0]
    lapack = _linalg().lapack
    ws = np.array([w, s])
    qr, tau = lapack.dgeqrf(ws.T)[:2]
    q = lapack.dorgqr(qr[:, :tau.size], tau)[0]
    r = qr[:tau.size]
    r[1:, 0] = 0.0  # the Householder vector, below R's diagonal
    small = (r[:, :1, None] * c + r[:, 1:, None] * np.eye(n_k)).reshape(-1, n_k)
    sol, deficient = _lstsq(small, (r_k @ q).T.reshape(-1), w.size * n_k)
    if not with_objective:
        return sol, None, deficient
    objective = float(np.linalg.norm(r_k - np.column_stack([c @ sol, sol]) @ ws))
    return sol, objective, deficient


class _DenseOperator(LinearOperator):
    """A dense matrix A; its ALS mode matrix A (w0 (x)_k I) is built, N x n_k."""

    def __init__(self, a, dims):
        self._a, self.dims = _as_square_matrix(a, dims)
        _require_finite(self._a, "matrix")

    def apply(self, x) -> np.ndarray:
        return self._a @ _as_vector(x, self.n)

    def _mode_step(self, r, factors):
        dims = self.dims

        def step(k: int):
            n_k = dims.modes[k]
            w = reduce(np.multiply.outer, factors[:k] + factors[k + 1:], np.ones(()))
            w = w.reshape(dims.left_size(k), 1, dims.right_size(k), 1)
            m = self._a @ (w * np.eye(n_k)[None, :, None, :]).reshape(dims.n, n_k)
            sol, deficient = _lstsq(m, r, dims.n)
            objective = _norm(r - m @ sol) if k == dims.d - 1 else None
            return sol, objective, deficient

        return step


def _matricize(x, modes, k: int):
    """Mode-k unfolding of ``x`` shaped ``modes``: mode k first, then the others in order."""
    return np.moveaxis(x.reshape(modes), k, 0).reshape(modes[k], -1)


class _LaplacianOperator(LinearOperator):
    """A Laplacian-like form, applied by mode-wise contractions with no N x N matrix.

    Its ALS step never applies A. The mode-k matrix has the two-term form
    w0 (x)_k C_k + s (x)_k I (see :func:`_mode_weights`), so a step costs
    O(d*N + n_k^3): a thin QR of [w0 s] reduces it to a 2n_k x n_k matrix
    with the same singular values (see :func:`_structured_step`). It keeps
    the d matrices C_k = alpha*I + A_k. ``from_laplacian`` returns this kind
    when a factor is not exactly symmetric; built directly, it takes any form.
    """

    def __init__(self, lap: LaplacianLike):
        self.laplacian, self.dims = lap, lap.dims
        self._c_modes = [lap.alpha * np.eye(n_k) + f for n_k, f in zip(lap.dims.modes, lap.factors)]

    def apply(self, x) -> np.ndarray:
        return lap_matvec(self.laplacian, x)

    def _mode_step(self, r, factors):
        lap, modes = self.laplacian, self.dims.modes
        r_modes = [_matricize(r, modes, k) for k in range(len(modes))]
        images = [f @ y for f, y in zip(lap.factors, factors)]  # A_k y_k, kept current

        def step(k: int):
            w, s = _mode_weights(factors, images, k)
            out = _structured_step(self._c_modes[k], w, s, r_modes[k], k == len(modes) - 1)
            images[k] = lap.factors[k] @ out[0]
            return out

        return step


def _norm(v) -> float:
    """||v||_2 of a contiguous 1-D ``v``, bit-equal to np.linalg.norm and cheaper.

    A strided ``v`` would take BLAS's strided dot, which sums in another order.
    """
    return math.sqrt(v @ v)


def _kron_modes(mats, x, modes) -> np.ndarray:
    """(x)_i mats[i] applied to ``x``, one mode product per mode."""
    t = x.reshape(modes)
    for k, m in enumerate(mats):
        t = _mode_product(m, t, k)
    return t.reshape(-1)


class _DiagonalOperator(LinearOperator):
    """The diagonal D of a member with symmetric factors, A = V D V^T, in V's basis.

    It is what :func:`grou` and :func:`als_rank_one` fit on for the eigenbasis
    kind: ``apply`` is D o x, O(N), and the mode step is closed form (see
    :meth:`_mode_step`). D is kept scaled by 2^``_fit_exponent`` so that
    max |D| is in [1/2, 1), with its square: two arrays of length N, C-ordered
    over the modes. It holds the bases V_i only to rotate the ALS start.
    """

    def __init__(self, spectrum, dims, bases):
        self.dims, self._bases = dims, bases
        self._fit_exponent = -math.frexp(float(np.abs(spectrum).max()))[1]
        self._spectrum = np.ldexp(spectrum, self._fit_exponent)
        self._squares = self._spectrum * self._spectrum

    def apply(self, x) -> np.ndarray:
        out = self._spectrum * _as_vector(x, self.n)
        return np.ldexp(out, -self._fit_exponent, out=out)

    def _mode_step(self, r, factors):
        """The mode step of the fit r ~ D o (x)_i y_i, with r and the y_i in the basis.

        Shape D as (L, n_k, R) around mode k, and let u and v be the outer
        products of the factors before and after k. Mode k's matrix has the
        column D[l, p, m] u_l v_m over (l, m) in row block p, so its columns
        are orthogonal, sigma_p^2 = sum_lm D[l, p, m]^2 u_l^2 v_m^2 are its
        singular values and y_k,p = sum_lm r[l, p, m] D[l, p, m] u_l v_m /
        sigma_p^2. Each sum is a matrix product with u, then one with v, on
        reshaped views, so a leading or trailing mode takes one product and a
        middle mode two, and no unfolding is copied. A column with
        sigma_p <= eps * N * max sigma is cut (y_k,p = 0, rank deficient), the
        rank rule ``dgelsy`` applies to its estimates; when min sigma passes,
        no mask is built. After the last mode the objective
        ||r - D o (x)_i y_i|| is taken from the residual itself, with
        (x)_i y_i the outer product of that step's u and y_k. The start
        factors are rotated once, y_i -> V_i^T y_i, into a list of the step's
        own, so the fit starts where the QR kind's starts in the original
        basis and the caller's list is never rotated.
        """
        spectrum, squares = self._spectrum, self._squares
        g = r * spectrum
        hats = [v.T @ y for v, y in zip(self._bases, factors)]
        cutoff, last = _EPS * self.dims.n, self.dims.d - 1

        def step(k: int):
            # the products run on C-ordered views: one over the modes before k,
            # with u, and one over the modes after it, with v
            numer, squares_k = g, squares
            if k:
                u = reduce(np.multiply.outer, hats[:k]).reshape(-1)
                numer = u @ g.reshape(u.size, -1)
                squares_k = (u * u) @ squares.reshape(u.size, -1)
            if k < last:
                v = reduce(np.multiply.outer, hats[k + 1:]).reshape(-1)
                numer = numer.reshape(-1, v.size) @ v
                squares_k = squares_k.reshape(-1, v.size) @ (v * v)
            # min and max of n_k values cost less as a list than as two reductions;
            # a NaN, which they may pass over, makes the sum NaN
            squares_p = squares_k.tolist()
            if math.isnan(sum(squares_p)):
                squares_p = [math.nan]
            top = math.sqrt(max(squares_p))
            deficient = not math.sqrt(min(squares_p)) > cutoff * top
            if deficient:  # a cut column, or all of them: y_k,p = 0 there
                squares_k = np.where(np.sqrt(squares_k) > cutoff * top, squares_k, np.inf)
            hats[k] = numer / squares_k
            if k < last:
                return hats[k], None, deficient
            fit = np.multiply.outer(u, hats[k]).reshape(-1) if k else hats[k].copy()
            fit *= spectrum
            return hats[k], _norm(np.subtract(r, fit, out=fit)), deficient

        return step


class _EigenbasisOperator(LinearOperator):
    """A Laplacian-like form with exactly symmetric factors, fitted in their eigenbasis.

    Each factor is diagonalized, A_i = V_i diag(mu_i) V_i^T, so A = V diag(D) V^T
    with V = (x)_i V_i orthogonal and D = alpha + (+)_i mu_i, the fast
    diagonalization of Lynch, Rice & Thomas (Numer. Math. 6, 1964). The kind
    keeps the d bases V_i and D as a ``_DiagonalOperator`` (two arrays of
    length N), which ``_fitted`` returns: :func:`grou` and :func:`als_rank_one`
    fit on it, and map x to V^T x and back by d mode products, once per solve
    or fit. ``apply`` is A, by mode-wise contractions. ``from_laplacian``
    returns this kind when every factor is exactly symmetric.
    """

    def __init__(self, lap: LaplacianLike):
        self.laplacian, self.dims = lap, lap.dims
        # divide and conquer: the basis change is exact only for orthogonal V_i, and
        # the default MRRR driver's V_i drift up to ~300 eps from orthogonal at n = 32
        eigh = _linalg().eigh
        pairs = [eigh(f, driver="evd", check_finite=False) for f in lap.factors]
        self._bases = [v for _, v in pairs]
        spectrum = reduce(np.add.outer, [mu for mu, _ in pairs], lap.alpha).reshape(-1)
        self._diagonal = _DiagonalOperator(spectrum, lap.dims, self._bases)

    apply = _LaplacianOperator.apply

    def _fitted(self) -> _DiagonalOperator:
        return self._diagonal

    def _to_basis(self, x) -> np.ndarray:
        return _kron_modes([v.T for v in self._bases], x, self.dims.modes)

    def _from_basis(self, x) -> np.ndarray:
        return _kron_modes(self._bases, x, self.dims.modes)

    def _factors_from_basis(self, factors):
        return [v @ y for v, y in zip(self._bases, factors)]


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
    A zero factor ends no sweep early: every later mode step then returns
    zero flagged ``rank_deficient``, the objective stays ||r||, and the next
    sweep's stop test ends the fit with the zero vector. A zero r takes the
    same path: its first step fits zero, and the fit ends after 2 sweeps,
    flagged ``rank_deficient`` when d > 1.

    The fit runs on ``op._fitted()``, B in A = V B V^T: for the eigenbasis
    kind its diagonal, for the others A itself. r goes into the basis once and
    the factors come out once, y_i = V_i y^_i. Each kind of B supplies its own
    mode step (see its class): the structured kinds never apply A inside the
    fit. Every step takes the minimum-norm solution with the rank cutoff
    eps * N, by pivoted QR on the dense kind and on nonsymmetric structured
    factors, and in closed form on the diagonal of symmetric ones; a lower
    rank flags ``rank_deficient``.
    The objective is computed from the residual itself, once per pass after
    its last mode step, where the stop reads it; ||r||^2 - ||r_k Q||^2, or
    ||r||^2 minus the squared fit, would cancel below the stopping rule.
    The fit runs on 2^e * r with max |2^e * r| in [1/2, 1), and the diagonal
    step on 2^``_fit_exponent`` * D with max |2^``_fit_exponent`` * D| in
    [1/2, 1); factor 0 is scaled back by both powers of two at once, exactly.
    So 2^k * r gets exactly 2^k times the fit of r, and 2^k * A gets 2^-k
    times it up to rounding, with no overflow or underflow in between.
    A non-finite residual raises ValueError.
    """
    if iter_max < 1:
        raise ValueError("iter_max must be at least 1")
    if not rel_tol >= 0:
        raise ValueError("rel_tol must be non-negative")
    dims = op.dims
    r = _as_vector(r, dims.n, "residual")
    e = -math.frexp(_require_finite(r, "residual"))[1]
    fitted = op._fitted()
    r = op._to_basis(np.ldexp(r, e))
    rng = np.random.default_rng(seed)
    factors = [v / _norm(v) for v in (rng.standard_normal(n) for n in dims.modes)]
    step = fitted._mode_step(r, factors)  # a QR step reads factors as they are updated below
    rank_deficient = False
    objective = None
    for sweeps in range(1, iter_max + 1):
        previous = objective
        for k in range(dims.d):  # the last mode's step returns the sweep's objective
            factors[k], objective, deficient = step(k)
            rank_deficient |= deficient
        if previous is not None and previous - objective <= rel_tol * previous:
            break
    factors = op._factors_from_basis(factors)
    y = RankOneVector(dims, tuple(factors), rank_deficient=rank_deficient, sweeps=sweeps)
    y.factors = (np.ldexp(y.factors[0], fitted._fit_exponent - e), *y.factors[1:])
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
    previous sweep's; the sweeps of each accepted term are reported in
    ``als_sweeps``. A fitted term is kept only when it lowers the residual
    norm; a zero fit, one that leaves the norm as it was or raises it, or a
    non-finite norm is refused, and the solve stops on stagnation. It also
    stops when the residual norm falls below ``eps``, when consecutive
    residual norms differ by less than ``tol`` (stagnation too), or after
    ``rank_max`` accepted terms. Non-convergence is reported through
    ``stop_reason``, never raised.

    The terms are fitted, applied and subtracted with ``op._fitted()``: on the
    eigenbasis kind b goes into the basis once, each term costs O(N) on top of
    its ALS, with no call of ``op.apply``, and x comes back once, so the
    residual norms are taken in the basis (see :class:`GrouReport`).
    """
    if not (eps > 0 and tol > 0):  # NaN too
        raise ValueError("eps and tol must be positive")
    if rank_max < 1:
        raise ValueError("rank_max must be at least 1")
    if als_iter_max < 1:
        raise ValueError("als_iter_max must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    b = _as_vector(b, op.n, "right-hand side")
    _require_finite(b, "right-hand side")
    fitted = op._fitted()
    x = np.zeros_like(b)
    r = op._to_basis(b)
    history = [float(np.linalg.norm(r))]
    if history[0] < eps:
        return GrouReport(x, history, 0, RESIDUAL_BELOW_EPS)
    stop = RANK_MAX_REACHED
    deficient_terms = 0
    sweeps = []
    for i in range(rank_max):
        y = als_rank_one(
            fitted, r, iter_max=als_iter_max, seed=_term_seed(seed, i), rel_tol=_ALS_REL_TOL
        )
        yv = y.to_vector()
        r_new = r - fitted.apply(yv)
        norm_new = _norm(r_new)
        if not norm_new < history[-1]:
            # a zero fit, one that leaves ||r|| as it was or raises it (the ALS
            # never does worse than y = 0, so a rise is a rounding error), or NaN
            stop = STAGNATION
            break
        x += yv
        r = r_new
        history.append(norm_new)
        deficient_terms += y.rank_deficient
        sweeps.append(y.sweeps)
        if norm_new < eps:
            stop = RESIDUAL_BELOW_EPS
            break
        if history[-2] - norm_new < tol:
            stop = STAGNATION
            break
    return GrouReport(op._from_basis(x), history, len(sweeps), stop, deficient_terms, sweeps)


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


def direct_solve(a, b) -> np.ndarray:
    """Solve A x = b by a direct factorization (the reference path).

    Two paths, chosen from A itself:

    - Band Cholesky (``dpbtrf``/``dpbtrs``) when A's lower and upper
      bandwidths are equal (kd) with 3kd + 1 <= N, the band is exactly
      symmetric and the diagonal has one strict sign, and ``dpbtrf`` finds A
      (or -A) definite. It needs no pivoting (Higham, Accuracy and Stability,
      Thm 10.3); its pivots are l_ii^2, the pivots of the unpivoted LU.
    - Dense LU with partial pivoting (``lu_factor``) on the whole matrix for
      every other A. Its pivots are the |u_ii| of the LU factor.

    ``a`` is never written. A non-finite entry raises ValueError on both
    paths: the bandwidth counts NaN and inf as nonzero, so the band path
    checks only its copied band.

    Raises SingularMatrixError, on both paths, when the smallest pivot is zero
    or at most ``kron_core._PIVOT_TOL`` times the largest; the test is
    relative, so it does not depend on the scale of A.
    """
    a = _as_matrix(a, "matrix")
    _require_square(a)
    n = a.shape[0]
    b = _as_vector(b, n, "right-hand side")
    _require_finite(b, "right-hand side")
    linalg = _linalg()
    kl, ku = linalg.bandwidth(a)
    if kl == ku and 3 * kl + 1 <= n:
        cholesky = _band_cholesky(a, kl)
        if cholesky is not None:
            factor, sign = cholesky
            _require_nonsingular(factor[kl] ** 2, "matrix")
            return linalg.lapack.dpbtrs(factor, sign * b)[0]
    _require_finite(a, "matrix")
    return linalg.lu_solve(_lu_factor(a, "matrix"), b, check_finite=False)
