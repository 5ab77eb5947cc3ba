"""Orthogonal projection of square matrices onto the Laplacian-like subspace.

One engine computes it: take alpha = tr(A)/N off the diagonal, then, mode by
mode, fit the traceless factor X_i (:func:`mode_projection`) to the running
residual R and subtract embed(i, X_i) from R. The identity part and the
per-mode traceless subspaces are mutually orthogonal, so fitting one of them
leaves every other one's fit unchanged: a single pass of this sweep is
already the closed-form projection, and further sweeps only polish
floating-point error. :func:`project_laplacian` is that single pass;
:func:`project_delta_sweeps` repeats it until the residual, or from the
second sweep on the sweep's change to the projection, is at most
tol * ||A||_F.

The sweeps only ever change R on the support of the embeds, the N * sum_i n_i
entries where some embed(i, .) can be nonzero. The engine keeps just those
entries, gathered from A once, and reads every other entry of A once, in
chunks of rows, for ||A||_F and the residual's fixed off-support part. Its
working memory is O(N * sum_i n_i), not the N^2 of a copy of A (for d >= 2).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import get_config
from .kron_core import (
    LaplacianLike,
    _as_matrix,
    _as_square_matrix,
    _check_dense_cap,
    _mode_blocks,
    _require_square,
    embed,  # noqa: F401  unused here, but perfbench/tracing.py patches this name
    lap_to_dense,  # noqa: F401  as for embed
    partial_trace,
)

METHOD_CLOSED = "closed_form"
METHOD_ITERATIVE = "iterative"


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    """Projection result plus how far the input sits from the subspace."""

    projection: LaplacianLike
    residual_fro: float
    relative_residual: float
    sweeps_used: int
    method: str


def identity_component(a) -> float:
    """Coefficient of id_N in the orthogonal decomposition: tr(A)/N."""
    a = _as_matrix(a, "matrix")
    _require_square(a)
    return float(np.trace(a)) / a.shape[0]


def _traceless_fit(pt, n_i: int, n: int) -> np.ndarray:
    """(n_i/N) * pt less its own trace part, for pt a mode-``n_i`` partial trace."""
    x = (n_i / n) * pt
    x -= (np.trace(x) / n_i) * np.eye(n_i)
    return x


def mode_projection(a, dims, i: int) -> np.ndarray:
    """Traceless mode-``i`` factor of the orthogonal projection.

    X_i = (n_i/N) * partial_trace(A, dims, i) minus its own trace part, which
    is (tr(A)/N) * id. It is the unique traceless minimizer of
    ||A' - embed(i, X)||_F for the trace-free part A' of A, and also the
    update of one mode step of the projection sweeps.
    """
    a, dims = _as_square_matrix(a, dims)
    dims.check_mode(i)
    return _traceless_fit(partial_trace(a, dims, i), dims.modes[i], dims.n)


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """Writable (L, n_i, R) view of the diagonal entries [l, p, r, p] of C-ordered blocks.

    Entry [l, p, r] is A's diagonal entry at the flat index of (l, p, r).
    """
    s = blocks.strides
    return as_strided(blocks, blocks.shape[:3], (s[0], s[1] + s[3], s[2]))


def _square_sums(a: np.ndarray, dims) -> tuple[float, float]:
    """(||A||_F^2, the sum of a^2 off the support of every embed(i, .)), in one pass over A.

    About 16 rows at a time are copied into one reused buffer; its squares
    are summed, its support entries zeroed and its squares summed again, so
    neither result is a difference of two large sums. With s_i =
    right_size(i) and j the slowest mode with s_j <= 16, a chunk starts at a
    multiple of s_j and stays inside one run of n_j * s_j rows. Mode i's
    support in a chunk starting at row k0 is then one strided view: entry
    [m, p, t, q] is at chunk row r = (m * n_i + p) * s_i + t, whose mode-i
    digit is p0 + p, and at column k0 + r + (q - p0 - p) * s_i, where that
    digit is q. The support is symmetric, so an F-ordered A is read as its
    C-ordered transpose.
    """
    src = a.T if np.isfortran(a) else a
    n = dims.n
    rights = [dims.right_size(i) for i in range(dims.d)]
    j = next(i for i, s in enumerate(rights) if s <= 16)
    rows = rights[j] * min(dims.modes[j], 16 // rights[j])
    group = rights[j] * dims.modes[j]
    buf = np.empty(rows * n)
    item = buf.itemsize
    total = off = 0.0
    k0 = 0
    while k0 < n:
        k1 = min(k0 + rows, (k0 // group + 1) * group)
        c = k1 - k0
        chunk = buf[: c * n].reshape(c, n)
        np.copyto(chunk, src[k0:k1])
        total += float(np.vdot(chunk, chunk))
        for n_i, s_i in zip(dims.modes, rights):
            t_len = min(c, s_i)
            p_len = min(n_i, c // t_len)
            p0 = k0 // s_i % n_i
            np.ndarray(
                (c // (t_len * p_len), p_len, t_len, n_i),
                buffer=chunk,
                offset=(k0 - p0 * s_i) * item,
                strides=(n_i * s_i * (n + 1) * item, s_i * n * item, (n + 1) * item, s_i * item),
            )[...] = 0.0
        off += float(np.vdot(chunk, chunk))
        k0 = k1
    return total, off


def _sweep(a, dims, iter_max: int, tol: float):
    """The projection engine: (projection, residual_fro, relative_residual, sweeps).

    Works on the support of the embeds only (see the module docstring):
    mode i's (L, n_i, R, n_i) blocks of A, N * n_i values gathered once, in
    which each mode update is subtracted, and one length-N running diagonal,
    where the supports of different modes meet; it is written into a mode's
    blocks before their partial trace and read back after the update. So the
    working memory is O(N * sum_i n_i) and A itself is read in one more pass
    (:func:`_square_sums`). Each sweep's residual is
    sqrt(off-support sum + the squares of the support values): O(N * sum_i n_i),
    not an N^2 norm. Stops after ``iter_max`` sweeps, once the residual is at
    most ``tol * ||A||_F``, or, from the second sweep on, once the sweep's
    change to the projection is at most that too. The change is
    ||sum_i embed(i, u_i)||_F over the sweep's traceless updates u_i; those
    embeds are mutually orthogonal and embed(i, u) repeats each entry of u
    N / n_i times, so it equals sqrt(sum_i (N / n_i) ||u_i||_F^2). On a
    non-member the first sweep is already exact and the second moves the
    factors only by rounding.
    """
    a, dims = _as_square_matrix(a, dims)
    _check_dense_cap(dims.n)
    alpha = identity_component(a)
    diag = np.diagonal(a) - alpha
    blocks = [np.array(_mode_blocks(a, dims, i), order="C") for i in range(dims.d)]
    diagonals = [_block_diagonal(b) for b in blocks]
    total_sq, off_sq = _square_sums(a, dims)
    norm_a = math.sqrt(total_sq)
    xs = [np.zeros((n, n)) for n in dims.modes]
    sweeps = 0
    while True:
        change_sq = 0.0
        for i, n_i in enumerate(dims.modes):
            b, b_diag = blocks[i], diagonals[i]
            b_diag[...] = diag.reshape(b_diag.shape)
            u = _traceless_fit(b.sum(axis=(0, 2)), n_i, dims.n)
            xs[i] += u
            b -= u[:, None, :]
            diag = b_diag.flatten()
            b_diag[...] = 0.0  # the diagonal is counted once, in diag
            change_sq += dims.n // n_i * float(np.vdot(u, u))
        sweeps += 1
        on_sq = float(np.vdot(diag, diag)) + sum(float(np.vdot(b, b)) for b in blocks)
        residual = math.sqrt(off_sq + on_sq)
        if sweeps >= iter_max or residual <= tol * norm_a:
            break
        if sweeps > 1 and math.sqrt(change_sq) <= tol * norm_a:
            break
    rel = residual / norm_a if norm_a > 0.0 else 0.0
    return LaplacianLike(dims, alpha, tuple(xs)), residual, rel, sweeps


def project_laplacian(a, dims) -> ProjectionReport:
    """Closed-form orthogonal projection onto the Laplacian-like subspace.

    This is one pass of the projection sweeps, which is exact (see the module
    docstring); it reports ``sweeps_used = 0``.
    """
    proj, residual, rel, _ = _sweep(a, dims, 1, 0.0)
    return ProjectionReport(proj, residual, rel, 0, METHOD_CLOSED)


def project_delta_sweeps(a, dims, iter_max: int = 10, tol: float = 1e-8) -> ProjectionReport:
    """Orthogonal projection of any square A by repeated per-mode sweeps.

    Returns the full projection, alpha = tr(A)/N included. Within a sweep each
    mode's update is :func:`mode_projection` of the current residual, the
    exact traceless least-squares fit, with earlier modes already at this
    sweep's values. Stops once the residual norm is at most ``tol * ||A||_F``,
    once a sweep after the first changes the projection by at most
    ``tol * ||A||_F`` in Frobenius norm, or after ``iter_max`` sweeps, so the
    sweep count does not depend on the scale of A. A member stops after one
    sweep; a non-member, whose first sweep is already exact, after two.
    """
    if iter_max < 1:
        raise ValueError("iter_max must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return ProjectionReport(*_sweep(a, dims, iter_max, tol), METHOD_ITERATIVE)


class MembershipResult(NamedTuple):
    is_member: bool
    relative_residual: float
    report: ProjectionReport


def laplacian_distance(a, dims, tol: float | None = None) -> MembershipResult:
    """Membership test: project and compare the relative residual to ``tol``."""
    if tol is None:
        tol = get_config().membership_tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = project_laplacian(a, dims)
    return MembershipResult(report.relative_residual <= tol, report.relative_residual, report)
