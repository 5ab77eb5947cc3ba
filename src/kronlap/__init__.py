"""Kronecker-structured (Laplacian-like) matrix decomposition and solvers.

The package decomposes square matrices into their best approximation by sums
of identity-padded single-mode factors, and solves linear systems with a
greedy rank-one update method whose inner step is alternating least squares.
"""

from .errors import (
    KronlapError,
    MatrixMarketError,
    SingularMatrixError,
    SizeLimitError,
)
from .grou import (
    GrouReport,
    LinearOperator,
    RankOneVector,
    RANK_MAX_REACHED,
    RESIDUAL_BELOW_EPS,
    STAGNATION,
    als_rank_one,
    direct_solve,
    grou,
)
from .kron_core import (
    DimSplit,
    FactorGroupElement,
    LaplacianLike,
    embed,
    lap_exp,
    lap_matvec,
    lap_to_dense,
    lie_bracket,
    partial_trace,
)
from .lap_project import (
    MembershipResult,
    ProjectionReport,
    laplacian_distance,
    mode_projection,
    project_laplacian,
)
from .mmio import read_matrix_market, write_matrix_market
from .poisson import (
    PoissonProblem,
    build_poisson,
    exact_solution,
    forcing,
    poisson1d_stencil,
)

__version__ = "0.1.0"

__all__ = [
    "DimSplit",
    "FactorGroupElement",
    "GrouReport",
    "KronlapError",
    "LaplacianLike",
    "LinearOperator",
    "MatrixMarketError",
    "MembershipResult",
    "PoissonProblem",
    "ProjectionReport",
    "RANK_MAX_REACHED",
    "RESIDUAL_BELOW_EPS",
    "RankOneVector",
    "STAGNATION",
    "SingularMatrixError",
    "SizeLimitError",
    "als_rank_one",
    "build_poisson",
    "direct_solve",
    "embed",
    "exact_solution",
    "forcing",
    "grou",
    "lap_exp",
    "lap_matvec",
    "lap_to_dense",
    "laplacian_distance",
    "lie_bracket",
    "mode_projection",
    "partial_trace",
    "poisson1d_stencil",
    "project_laplacian",
    "read_matrix_market",
    "write_matrix_market",
]
