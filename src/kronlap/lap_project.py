"""Orthogonal projection of square matrices onto the Laplacian-like subspace.

The projection is alpha = tr(A)/N on the identity plus, per mode, the
traceless factor X_i of :func:`mode_projection`. The identity part and the
per-mode traceless subspaces are mutually orthogonal, so one pass that takes
alpha off the diagonal and then, mode by mode, fits X_i to the running
residual and subtracts embed(i, X_i) from it is already exact.

That pass only changes the residual on the support of the embeds, the
N * sum_i n_i entries where some embed(i, .) can be nonzero. The engine keeps
just those entries, gathered from A once, and reads every other entry of A
once, in chunks of rows, for ||A||_F and the residual's fixed off-support
part. Its working memory is O(N * sum_i n_i), not the N^2 of a copy of A
(for d >= 2).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kron_core import (
    LaplacianLike,
    _as_square_matrix,
    _mode_blocks,
    _require_finite,
    embed,  # noqa: F401  unused here, but perfbench/tracing.py patches this name
    lap_to_dense,  # noqa: F401  as for embed
    partial_trace,
)

METHOD_CLOSED = "closed_form"

# ||A||_F^2 inside these bounds keeps every sum of entries or squares finite and
# the squares of rounding-level residuals (about 2^-106 ||A||_F^2) normal
_SAFE_SQ_MIN, _SAFE_SQ_MAX = 2.0**-900, 2.0**900


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    """Projection result plus how far the input sits from the subspace."""

    projection: LaplacianLike
    residual_fro: float
    relative_residual: float
    sweeps_used: int
    method: str


def _traceless_fit(pt, n_i: int, n: int) -> np.ndarray:
    """(n_i/N) * pt less its own trace part, for pt a mode-``n_i`` partial trace."""
    x = (n_i / n) * pt
    x -= (np.trace(x) / n_i) * np.eye(n_i)
    return x


def mode_projection(a, dims, i: int) -> np.ndarray:
    """Traceless mode-``i`` factor of the orthogonal projection.

    X_i = (n_i/N) * partial_trace(A, dims, i) minus its own trace part, which
    is (tr(A)/N) * id. It is the unique traceless minimizer of
    ||A' - embed(i, X)||_F for the trace-free part A' of A, and the fit of
    each mode step of the projection engine.
    """
    a, dims = _as_square_matrix(a, dims)
    dims.check_mode(i)
    return _traceless_fit(partial_trace(a, dims, i), dims.modes[i], dims.n)


def _square_sums(a: np.ndarray, dims, e: int = 0) -> tuple[float, float]:
    """(||B||_F^2, the sum of b^2 off the support of every embed(i, .)), B = 2^e * A, in one pass.

    About 16 rows at a time are copied, times 2^e, into one reused buffer;
    its squares are summed, its support entries zeroed and its squares
    summed again, so neither result is a difference of two large sums. With s_i =
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
        if e:
            np.ldexp(src[k0:k1], e, out=chunk)
        else:
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


def _project(a, dims):
    """The projection engine: (projection, residual_fro, relative_residual).

    One pass on the support of the embeds (see the module docstring): mode
    i's (L, n_i, R, n_i) blocks of A, gathered once, lose the mode's fit, and
    one length-N running diagonal, where the modes' supports meet, is written
    into each mode's blocks before their partial trace and read back after.
    When ||A||_F^2 is not a finite number of safe size, A is checked for
    non-finite entries (ValueError) and the sums, blocks and diagonal are
    redone on 2^e * A with max |2^e * A| in [1/2, 1), then scaled back by
    2^-e, exactly; so 2^k * A gets the relative residual of A at any k.
    """
    a, dims = _as_square_matrix(a, dims)
    total_sq, off_sq = _square_sums(a, dims)
    e = 0
    if not _SAFE_SQ_MIN <= total_sq <= _SAFE_SQ_MAX:
        top = _require_finite(a)
        if top:
            e = -math.frexp(top)[1]
            total_sq, off_sq = _square_sums(a, dims, e)
    diag = np.diagonal(a).copy()
    blocks = [np.array(_mode_blocks(a, dims, i), order="C") for i in range(dims.d)]
    if e:
        for x in (diag, *blocks):
            np.ldexp(x, e, out=x)
    alpha = float(diag.sum()) / dims.n
    diag -= alpha
    xs = []
    for b, n_i in zip(blocks, dims.modes):
        s = b.strides  # b_diag[l, p, r] is b[l, p, r, p], A's diagonal entry at (l, p, r)
        b_diag = as_strided(b, b.shape[:3], (s[0], s[1] + s[3], s[2]))
        b_diag[...] = diag.reshape(b_diag.shape)
        u = _traceless_fit(b.sum(axis=(0, 2)), n_i, dims.n)
        xs.append(np.ldexp(u, -e))
        b -= u[:, None, :]
        diag = b_diag.flatten()
        b_diag[...] = 0.0  # the diagonal is counted once, in diag
    on_sq = float(np.vdot(diag, diag)) + sum(float(np.vdot(b, b)) for b in blocks)
    residual = math.sqrt(off_sq + on_sq)
    rel = residual / math.sqrt(total_sq) if total_sq > 0.0 else 0.0
    return LaplacianLike(dims, math.ldexp(alpha, -e), tuple(xs)), math.ldexp(residual, -e), rel


def project_laplacian(a, dims) -> ProjectionReport:
    """Closed-form orthogonal projection onto the Laplacian-like subspace, alpha included."""
    return ProjectionReport(*_project(a, dims), 0, METHOD_CLOSED)


def project_delta_sweeps(a, dims, iter_max: int = 10, tol: float = 1e-8) -> ProjectionReport:
    """The closed form under the name of the removed sweeps, reporting one sweep.

    Kept only for the ``sweeps_s`` stage of ``perfbench``; ROADMAP item 1
    deletes it together with that stage. ``iter_max`` and ``tol`` are
    validated and otherwise unused.
    """
    if iter_max < 1:
        raise ValueError("iter_max must be at least 1")
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    return ProjectionReport(*_project(a, dims), 1, "iterative")


class MembershipResult(NamedTuple):
    is_member: bool
    relative_residual: float
    report: ProjectionReport


def laplacian_distance(a, dims, tol: float = 1e-8) -> MembershipResult:
    """Membership test: project and compare the relative residual to ``tol``."""
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    report = project_laplacian(a, dims)
    return MembershipResult(report.relative_residual <= tol, report.relative_residual, report)
