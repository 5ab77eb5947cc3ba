"""Orthogonal projection of square matrices onto the Laplacian-like subspace.

Two routes to the same projection: a closed form built from partial traces,
and cyclic per-mode sweeps that minimize the residual one traceless factor at
a time. Because the per-mode traceless subspaces are mutually orthogonal the
sweeps agree with the closed form after a single pass; extra sweeps only
polish floating-point error.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import get_config
from .errors import PreconditionError
from .kron_core import (
    LaplacianLike,
    _as_matrix,
    _as_square_matrix,
    _mode_blocks,
    _require_square,
    embed,  # noqa: F401  unused here, but perfbench/tracing.py patches this name
    lap_to_dense,
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


def mode_projection(a, dims, i: int) -> np.ndarray:
    """Traceless mode-``i`` factor of the orthogonal projection.

    X_i = (n_i/N) * partial_trace(A, dims, i) minus its own trace part, which
    is (tr(A)/N) * id. It is the unique traceless minimizer of
    ||A' - embed(i, X)||_F for the trace-free part A' of A, and also the
    update of one mode step in :func:`project_delta_sweeps`.
    """
    a, dims = _as_square_matrix(a, dims)
    dims.check_mode(i)
    n_i = dims.modes[i]
    x = (n_i / dims.n) * partial_trace(a, dims, i)
    x -= (np.trace(x) / n_i) * np.eye(n_i)
    return x


def project_laplacian(a, dims) -> ProjectionReport:
    """Closed-form orthogonal projection onto the Laplacian-like subspace."""
    a, dims = _as_square_matrix(a, dims)
    alpha = identity_component(a)
    factors = tuple(mode_projection(a, dims, i) for i in range(dims.d))
    proj = LaplacianLike(dims, alpha, factors)
    p = lap_to_dense(proj)
    p -= a
    residual = float(np.linalg.norm(p))
    norm_a = float(np.linalg.norm(a))
    rel = residual / norm_a if norm_a > 0.0 else 0.0
    return ProjectionReport(proj, residual, rel, 0, METHOD_CLOSED)


def project_delta_sweeps(a, dims, iter_max: int = 10, tol: float = 1e-8) -> ProjectionReport:
    """Cyclic per-mode sweeps toward the traceless part of the projection.

    Requires |tr(A)| <= 1e-10 * N * ||A||_F, a bound relative to the scale of
    A: callers with a general matrix must subtract identity_component(A) * id
    first. Within a sweep each mode's update is :func:`mode_projection` of
    the current residual, the exact traceless least-squares fit, with earlier
    modes already at this sweep's values. Stops when the residual norm drops
    below ``tol`` or after ``iter_max`` sweeps.

    Each mode update is subtracted in place on the N * n_i entries that
    embed(i, u) would make nonzero, so the only N^2 pass per sweep is the
    residual norm that the ``tol`` stop reads.
    """
    a, dims = _as_square_matrix(a, dims)
    if iter_max < 1:
        raise ValueError("iter_max must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    trace = float(np.trace(a))
    norm_a = float(np.linalg.norm(a))
    bound = 1e-10 * dims.n * norm_a
    if abs(trace) > bound:
        raise PreconditionError(
            f"trace precondition violated: tr(A) = {trace!r} but at most "
            f"{bound:g} in magnitude is allowed; subtract "
            "identity_component(A) * id first"
        )
    xs = [np.zeros((n, n)) for n in dims.modes]
    resid = a.copy()
    sweeps = 0
    residual = norm_a
    while sweeps < iter_max:
        for i in range(dims.d):
            u = mode_projection(resid, dims, i)
            xs[i] += u
            blocks = _mode_blocks(resid, dims, i)
            blocks -= u[:, None, :]
        sweeps += 1
        residual = float(np.linalg.norm(resid))
        if residual < tol:
            break
    proj = LaplacianLike(dims, 0.0, tuple(xs))
    rel = residual / norm_a if norm_a > 0.0 else 0.0
    return ProjectionReport(proj, residual, rel, sweeps, METHOD_ITERATIVE)


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
