"""Kronecker-product primitives and the structured Laplacian-like representation.

The mode convention is fixed once here and shared by every module: a vector of
length N = n1*...*nd reshapes row-major to an (n1, ..., nd) array, so mode 0 is
the slowest-varying axis and `np.kron(A, B)` applies A on mode 0 and B on mode 1.
Mode indices are 0-based throughout.
"""

import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import SingularMatrixError, SizeLimitError


@cache
def _linalg():
    """``scipy.linalg``, imported on first use.

    Only the LAPACK callers (the ALS steps, ``direct_solve``,
    ``FactorGroupElement`` and ``lap_exp``) need it, so ``import kronlap`` and
    the projection do not pay its start-up cost. The cached call is cheap
    enough for the ALS inner loop; a function-local import is not.
    """
    import scipy.linalg

    return scipy.linalg


def _as_matrix(a, name="matrix") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    return m

def _as_vector(x, n: int, name="vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} of length {n} expected, got shape {v.shape}")
    return v

def _require_square(m, name="matrix"):
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")

def _require_finite(m, name="matrix") -> float:
    # min and max propagate NaN, so this is exact and, unlike isfinite, builds
    # no boolean copy of m; returns max |m|, 0 for an empty m
    lo, hi = (float(m.min()), float(m.max())) if m.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} contains non-finite entries")
    return max(-lo, hi)

_PIVOT_TOL = 1e-12  # relative pivot threshold for singularity detection

def _require_nonsingular(pivots, what: str):
    """Raise SingularMatrixError when min |u_ii| <= _PIVOT_TOL * max |u_ii|.

    ``pivots`` is the diagonal of an LU factor U. The test is relative, so it
    does not depend on the scale of the matrix; an exact zero pivot and an
    empty U always count as singular.
    """
    piv = np.abs(pivots)
    pivot_min = float(piv.min()) if piv.size else 0.0
    pivot_max = float(piv.max()) if piv.size else 0.0
    if pivot_min == 0.0 or pivot_min <= _PIVOT_TOL * pivot_max:
        raise SingularMatrixError(
            f"{what} is singular to tolerance (min pivot {pivot_min:.3e})",
            pivot=pivot_min,
        )

def _lu_factor(a, what: str):
    """Pivoted dense LU ``(lu, piv)`` of a finite square ``a``; U's pivots checked as above."""
    linalg = _linalg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        lu, piv = linalg.lu_factor(a, check_finite=False)
    _require_nonsingular(np.diag(lu), what)
    return lu, piv


@dataclass(frozen=True)
class DimSplit:
    """Mode sizes (n1, ..., nd) of a tensorized ambient space of size N = n1*...*nd.

    Modes of size 1 are rejected when d >= 2: they make the per-mode traceless
    complement trivial and the direct-sum decomposition degenerate.
    """

    modes: tuple[int, ...]

    def __post_init__(self):
        modes = tuple(int(n) for n in self.modes)
        object.__setattr__(self, "modes", modes)
        if len(modes) < 1:
            raise ValueError("at least one mode is required")
        if any(n < 1 for n in modes):
            raise ValueError(f"mode sizes must be positive, got {modes}")
        if len(modes) >= 2 and any(n < 2 for n in modes):
            raise ValueError(f"modes of size 1 are degenerate when d >= 2, got {modes}")

    @property
    def d(self) -> int:
        return len(self.modes)

    @property
    def n(self) -> int:
        return math.prod(self.modes)

    def left_size(self, i: int) -> int:
        return math.prod(self.modes[:i])

    def right_size(self, i: int) -> int:
        return math.prod(self.modes[i + 1:])

    def check_mode(self, i: int):
        if not 0 <= i < self.d:
            raise IndexError(f"mode index {i} out of range for {self.d} modes")


def _as_dims(dims) -> DimSplit:
    return dims if isinstance(dims, DimSplit) else DimSplit(tuple(dims))


def _as_square_matrix(a, dims) -> tuple[np.ndarray, DimSplit]:
    """Validate a 2-D matrix of side N = prod(dims); return it with its DimSplit."""
    dims = _as_dims(dims)
    m = _as_matrix(a, "matrix")
    if m.shape != (dims.n, dims.n):
        raise ValueError(
            f"matrix is {m.shape[0]}x{m.shape[1]} but dims "
            f"{','.join(map(str, dims.modes))} require size {dims.n}x{dims.n}"
        )
    return m, dims


def _as_factors(dims: DimSplit, factors) -> tuple[np.ndarray, ...]:
    """Float copies of one finite n_i x n_i factor per mode of ``dims``."""
    factors = tuple(np.array(f, dtype=float) for f in factors)
    if len(factors) != dims.d:
        raise ValueError(f"expected {dims.d} factors, got {len(factors)}")
    for i, (f, n_i) in enumerate(zip(factors, dims.modes)):
        if f.shape != (n_i, n_i):
            raise ValueError(f"factor {i} must be {n_i}x{n_i}, got {f.shape}")
        _require_finite(f, f"factor {i}")
    return factors


def _check_dense_cap(n: int):
    """Raise SizeLimitError when an n x n dense array about to be built exceeds the cap.

    Checked only before building from something smaller, never on a caller's array. The cap
    is 4096, or the positive integer in ``KRONLAP_DENSE_CAP``, read on each call.
    """
    text = os.environ.get("KRONLAP_DENSE_CAP", "4096")
    try:
        if (cap := int(text)) < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"KRONLAP_DENSE_CAP must be a positive integer, got {text!r}") from None
    if n > cap:
        raise SizeLimitError(f"dense materialization of size {n} exceeds the configured cap {cap}")


def _mode_blocks(m: np.ndarray, dims: DimSplit, i: int) -> np.ndarray:
    """Writable (L, n_i, R, n_i) view of the N x N array ``m``.

    Entry [l, p, r, q] is m[(l, p, r), (l, q, r)] in (left, mode i, right)
    multi-indices: the entries where every mode except ``i`` agrees, which are
    exactly those an identity-padded mode-``i`` factor can be nonzero on. The
    view is built from ``m.strides``, so any memory layout works without a copy.
    """
    n_i, right = dims.modes[i], dims.right_size(i)
    s_row, s_col = m.strides
    return as_strided(
        m,
        shape=(dims.left_size(i), n_i, right, n_i),
        strides=(n_i * right * (s_row + s_col), right * s_row, s_row + s_col, right * s_col),
    )


# embed, partial_trace and lap_project.mode_projection are not exported: only the tests'
# oracles and perfbench/tracing.py, which patches them in their modules, read them.
# ROADMAP item 15 moves them into tests/oracles.py.
def embed(i: int, x, dims) -> np.ndarray:
    """Pad a single-mode square matrix with identities on every other mode.

    Returns the N x N matrix id (x) ... (x) x (x) ... (x) id with ``x`` in
    slot ``i`` (0-based): a zero fill plus N * n_i writes, no multiplications.
    """
    dims = _as_dims(dims)
    dims.check_mode(i)
    x = _as_matrix(x, "factor")
    n_i = dims.modes[i]
    if x.shape != (n_i, n_i):
        raise ValueError(f"factor for mode {i} must be {n_i}x{n_i}, got {x.shape}")
    _check_dense_cap(dims.n)
    out = np.zeros((dims.n, dims.n))
    _mode_blocks(out, dims, i)[...] = x[:, None, :]
    return out


def partial_trace(a, dims, i: int) -> np.ndarray:
    """Contract an N x N matrix over every mode except ``i``.

    This is the adjoint of :func:`embed` under the Frobenius inner product
    <X, Y> = tr(X^T Y): tr(embed(i, X, dims)^T A) == tr(X^T partial_trace(A, dims, i)),
    and it preserves the total trace.
    """
    a, dims = _as_square_matrix(a, dims)
    dims.check_mode(i)
    return _mode_blocks(a, dims, i).sum(axis=(0, 2))


@dataclass(frozen=True, eq=False)
class LaplacianLike:
    """The operator alpha*id_N + sum_i embed(i, factors[i]), in canonical form.

    Any finite square factors are accepted. The constructor moves tr(F_i)/n_i
    of each factor into ``alpha`` (on its own copy), so the stored factors are
    traceless and the identity component of every mode lives in ``alpha``.
    This makes the representation unique: two values describe the same
    operator exactly when their fields match, up to rounding.
    """

    dims: DimSplit
    alpha: float
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        factors = _as_factors(dims, self.factors)
        for f, n_i in zip(factors, dims.modes):
            shift = float(np.trace(f)) / n_i
            alpha += shift
            f -= shift * np.eye(n_i)
            f.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_factors(cls, dims, factors, alpha: float = 0.0) -> "LaplacianLike":
        """Build from arbitrary square factors; the constructor canonicalizes them."""
        return cls(dims, alpha, tuple(factors))

    @classmethod
    def zeros(cls, dims, alpha: float = 0.0) -> "LaplacianLike":
        dims = _as_dims(dims)
        return cls(dims, alpha, tuple(np.zeros((n, n)) for n in dims.modes))

    @property
    def n(self) -> int:
        return self.dims.n


def lap_to_dense(lap: LaplacianLike) -> np.ndarray:
    """Materialize the represented N x N matrix (subject to the dense cap).

    Costs one N^2 zero fill, N diagonal writes of alpha and N * n_i in-place
    additions per mode.
    """
    n = lap.dims.n
    _check_dense_cap(n)
    out = np.zeros((n, n))
    out.flat[:: n + 1] = lap.alpha
    for i, f in enumerate(lap.factors):
        blocks = _mode_blocks(out, lap.dims, i)
        blocks += f[:, None, :]
    return out


def lap_matvec(lap: LaplacianLike, x) -> np.ndarray:
    """Apply the structured operator to a vector without materializing it.

    One tensor contraction per mode: O(N * sum_i n_i) work, no N x N storage.
    """
    t = _as_vector(x, lap.dims.n).reshape(lap.dims.modes)
    out = lap.alpha * t
    for i, f in enumerate(lap.factors):
        out = out + np.moveaxis(np.tensordot(f, t, axes=(1, i)), 0, i)
    return out.reshape(-1)


def lie_bracket(l1: LaplacianLike, l2: LaplacianLike) -> LaplacianLike:
    """Commutator of two structured operators, computed mode-wise.

    Identity parts commute with everything and cross-mode terms cancel, so the
    bracket has alpha = 0 and per-mode factors [A_i, B_i] = A_i B_i - B_i A_i.
    These are traceless in exact arithmetic, so the alpha the constructor
    collects from them is rounding noise.
    """
    if l1.dims != l2.dims:
        raise ValueError(f"dims mismatch: {l1.dims.modes} vs {l2.dims.modes}")
    return LaplacianLike(l1.dims, 0.0, tuple(a @ b - b @ a for a, b in zip(l1.factors, l2.factors)))


@dataclass(frozen=True, eq=False)
class FactorGroupElement:
    """Invertible pure Kronecker product kron_i factors[i]."""

    dims: DimSplit
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        factors = _as_factors(dims, self.factors)
        for i, f in enumerate(factors):
            _lu_factor(f, f"factor {i}")
            f.flags.writeable = False
        object.__setattr__(self, "factors", factors)

    def to_dense(self) -> np.ndarray:
        _check_dense_cap(self.dims.n)
        return reduce(np.kron, self.factors)


def lap_exp(lap: LaplacianLike) -> FactorGroupElement:
    """Exponential of a structured operator, as a pure Kronecker product.

    All the summands commute, so exp(alpha*id + sum_i embed(A_i)) factors as
    e^alpha * kron_i exp(A_i); the scalar e^alpha is folded into factor 0.
    """
    facs = [_linalg().expm(np.asarray(f)) for f in lap.factors]
    facs[0] = math.exp(lap.alpha) * facs[0]
    return FactorGroupElement(lap.dims, tuple(facs))

