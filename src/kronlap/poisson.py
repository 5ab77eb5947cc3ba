"""Finite-difference Poisson problem on the unit cube.

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

from dataclasses import dataclass

import numpy as np

from .kron_core import DimSplit, LaplacianLike


def poisson1d_stencil(n: int, h: float) -> np.ndarray:
    """Second-order central-difference matrix for d2/dx2 with zero walls.

    Tridiagonal with -2/h^2 on the diagonal and 1/h^2 on the first
    off-diagonals.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < h < np.inf:  # NaN too
        raise ValueError("h must be positive and finite")
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
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij", sparse=True)
    rhs = (-forcing(x, y, z)).reshape(-1)
    exact = exact_solution(x, y, z).reshape(-1)
    return PoissonProblem(n, h, operator, rhs, exact)
