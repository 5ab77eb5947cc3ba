"""Finite-difference Poisson problem on the unit cube and the solver benchmark.

The continuous problem is dxx(phi) + dyy(phi) + dzz(phi) = -f on (0,1)^3 with
phi = 0 on the boundary, for the separable forcing
f = 3 (2 pi)^2 sin(2 pi x - pi) sin(2 pi y - pi) sin(2 pi z - pi), whose exact
solution is the same product of sines without the prefactor. Discretized with
second-order central differences on an n^3 interior grid (h = 1/(n+1)),
the operator is a sum of identity-padded 1-D stencils, so it is exactly
Laplacian-like and the structured solver path applies.

Grid convention (see docs/formats.md): mode 0 is the x axis and varies
slowest; a grid function reshapes row-major to (n, n, n) as [i, j, k] for
(x_i, y_j, z_k).
"""

import csv
import time
from dataclasses import dataclass

import numpy as np

from .grou import GrouReport, LinearOperator, direct_solve, grou
from .kron_core import DimSplit, LaplacianLike, lap_to_dense
from .mmio import atomic_write_text

BENCH_HEADER = ("n", "N", "method", "seconds", "rel_residual", "terms")


def poisson1d_stencil(n: int, h: float) -> np.ndarray:
    """Second-order central-difference matrix for d2/dx2 with zero walls.

    Tridiagonal with -2/h^2 on the diagonal and 1/h^2 on the first
    off-diagonals.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if h <= 0:
        raise ValueError("h must be positive")
    m = np.zeros((n, n))
    np.fill_diagonal(m, -2.0 / h**2)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = 1.0 / h**2
    m[idx + 1, idx] = 1.0 / h**2
    return m


def exact_solution(x, y, z):
    """phi(x, y, z) = sin(2 pi x - pi) sin(2 pi y - pi) sin(2 pi z - pi)."""
    return (
        np.sin(2.0 * np.pi * x - np.pi)
        * np.sin(2.0 * np.pi * y - np.pi)
        * np.sin(2.0 * np.pi * z - np.pi)
    )


def forcing(x, y, z):
    """f = 3 (2 pi)^2 phi: minus the Laplacian of the exact solution."""
    return 3.0 * (2.0 * np.pi) ** 2 * exact_solution(x, y, z)


@dataclass(frozen=True, eq=False)
class PoissonProblem:
    """Discrete system A phi = -f with its grid spacing and exact solution."""

    n: int
    h: float
    operator: LaplacianLike
    rhs: np.ndarray
    exact: np.ndarray


def build_poisson(n: int) -> PoissonProblem:
    """Assemble the n^3 interior-grid problem.

    The structured operator itself is never materialized here; only callers
    that run the dense comparison arm pay the N x N cost (and the dense cap).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    h = 1.0 / (n + 1)
    stencil = poisson1d_stencil(n, h)
    dims = DimSplit((n, n, n))
    operator = LaplacianLike.from_factors(dims, (stencil, stencil, stencil))
    grid = np.arange(1, n + 1) * h
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    rhs = (-forcing(x, y, z)).reshape(-1)
    exact = exact_solution(x, y, z).reshape(-1)
    return PoissonProblem(n, h, operator, rhs, exact)


def _best_of_three(fn):
    """Best-of-3 wall-clock timing on the monotonic clock, warmup excluded."""
    result = fn()  # warmup, untimed
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def bench_poisson(sizes, grou_params: dict | None = None, output_path=None) -> list[dict]:
    """Time the structured greedy solver against pivoted LU on Poisson problems.

    Returns one row per (size, method) and, when ``output_path`` is given,
    writes them as CSV with header n,N,method,seconds,rel_residual,terms.
    """
    params = dict(eps=1e-6, tol=2.22e-6, rank_max=3000, als_iter_max=15, seed=0)
    params.update(grou_params or {})
    rows = []
    for n in sizes:
        problem = build_poisson(int(n))
        b_norm = float(np.linalg.norm(problem.rhs))
        op = LinearOperator.from_laplacian(problem.operator)

        report, seconds = _best_of_three(lambda: grou(op, problem.rhs, **params))
        rel = report.residual_history[-1] / b_norm if b_norm > 0 else 0.0
        rows.append(
            {
                "n": problem.n,
                "N": problem.n**3,
                "method": "grou",
                "seconds": seconds,
                "rel_residual": rel,
                "terms": report.terms_used,
            }
        )

        dense = lap_to_dense(problem.operator)
        x, seconds = _best_of_three(lambda: direct_solve(dense, problem.rhs))
        rel = float(np.linalg.norm(dense @ x - problem.rhs)) / b_norm if b_norm > 0 else 0.0
        rows.append(
            {
                "n": problem.n,
                "N": problem.n**3,
                "method": "direct",
                "seconds": seconds,
                "rel_residual": rel,
                "terms": 0,
            }
        )
    if output_path is not None:
        _write_csv(output_path, rows)
    return rows


def _write_csv(path, rows):
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    try:
        atomic_write_text(path, buf.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write benchmark CSV to {path}: {exc}") from exc
