"""Orthogonal projection of square matrices onto the Laplacian-like subspace.

One engine computes it: take alpha = tr(A)/N off a copy of A, then, mode by
mode, fit the traceless factor X_i (:func:`mode_projection`) to the running
residual R and subtract embed(i, X_i) from R in place. The identity part and
the per-mode traceless subspaces are mutually orthogonal, so fitting one of
them leaves every other one's fit unchanged: a single pass of this sweep is
already the closed-form projection, and further sweeps only polish
floating-point error. :func:`project_laplacian` is that single pass;
:func:`project_delta_sweeps` repeats it until the residual, or from the
second sweep on the sweep's change to the projection, is at most
tol * ||A||_F.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def mode_projection(a, dims, i: int) -> np.ndarray:
    """Traceless mode-``i`` factor of the orthogonal projection.

    X_i = (n_i/N) * partial_trace(A, dims, i) minus its own trace part, which
    is (tr(A)/N) * id. It is the unique traceless minimizer of
    ||A' - embed(i, X)||_F for the trace-free part A' of A, and also the
    update of one mode step of the projection sweeps.
    """
    a, dims = _as_square_matrix(a, dims)
    dims.check_mode(i)
    n_i = dims.modes[i]
    x = (n_i / dims.n) * partial_trace(a, dims, i)
    x -= (np.trace(x) / n_i) * np.eye(n_i)
    return x


def _sweep(a, dims, iter_max: int, tol: float):
    """The projection engine: (projection, residual_fro, relative_residual, sweeps).

    Copies A once (an N x N materialization, under the dense cap) and works on
    that copy. Each mode update is subtracted in place on the N * n_i entries
    that embed(i, u) would make nonzero, so the only N^2 pass per sweep is the
    residual norm. Stops after ``iter_max`` sweeps, once the residual is at
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
    norm_a = float(np.linalg.norm(a))
    alpha = identity_component(a)
    resid = a.copy()
    resid.flat[:: dims.n + 1] -= alpha
    xs = [np.zeros((n, n)) for n in dims.modes]
    sweeps = 0
    while True:
        change_sq = 0.0
        for i, n_i in enumerate(dims.modes):
            u = mode_projection(resid, dims, i)
            xs[i] += u
            blocks = _mode_blocks(resid, dims, i)
            blocks -= u[:, None, :]
            change_sq += dims.n // n_i * float(np.vdot(u, u))
        sweeps += 1
        residual = float(np.linalg.norm(resid))
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
