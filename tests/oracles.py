"""Independent brute-force reference implementations used only by the tests.

Most of these deliberately avoid the library's own code paths: the
Frobenius inner product as an entrywise sum, partial traces by explicit
multi-index loops, projections by solving the normal equations over an
explicit basis, the matrix exponential by a truncated power series,
linear solves by scipy's dense pivoted LU with no band storage, the
unpivoted LDL^T by plain elimination, the structured ALS mode matrix as an
explicit Kronecker sum, and a Matrix Market array file as one repr per
value. The exception is `projection_by_embed`, the projection pass written
with the library's full N x N `embed`, kept as a bit-exact reference for the
factors of the library's support-only engine.
"""

import math
import warnings
from functools import reduce
from itertools import product

import numpy as np
import scipy.linalg

from kronlap.kron_core import embed, partial_trace
from kronlap.poisson import exact_solution, forcing


def frobenius_inner(a, b) -> float:
    """Frobenius (trace) inner product sum_ij a[i,j] * b[i,j] = tr(a^T b)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def embed_by_kron_chain(i, x, modes):
    """Identity-padded factor built as a plain left-to-right kron chain."""
    pieces = [np.eye(n) for n in modes]
    pieces[i] = np.asarray(x, float)
    return reduce(np.kron, pieces)


def partial_trace_by_loops(a, modes, i):
    """result[p, q] = sum over shared multi-indices k of A[(k, p, k), (k, q, k)]."""
    a = np.asarray(a, float)
    modes = tuple(modes)
    n_i = modes[i]
    others = [range(n) for j, n in enumerate(modes) if j != i]
    out = np.zeros((n_i, n_i))

    def flat(multi):
        idx = 0
        for n, m in zip(modes, multi):
            idx = idx * n + m
        return idx

    for p in range(n_i):
        for q in range(n_i):
            s = 0.0
            for rest in product(*others):
                row = list(rest[:i]) + [p] + list(rest[i:])
                col = list(rest[:i]) + [q] + list(rest[i:])
                s += a[flat(row), flat(col)]
            out[p, q] = s
    return out


def traceless_basis(n):
    """A basis of the traceless n x n matrices (n^2 - 1 elements)."""
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n))
                e[i, j] = 1.0
                basis.append(e)
    for i in range(n - 1):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        e[i + 1, i + 1] = -1.0
        basis.append(e)
    return basis


def subspace_basis(modes):
    """Explicit basis of the Laplacian-like subspace: identity plus per-mode
    embedded traceless bases."""
    modes = tuple(modes)
    n = math.prod(modes)
    basis = [np.eye(n)]
    for i, n_i in enumerate(modes):
        for e in traceless_basis(n_i):
            basis.append(embed_by_kron_chain(i, e, modes))
    return basis


def project_by_normal_equations(a, modes):
    """Least-squares projection of ``a`` onto the explicit subspace basis."""
    a = np.asarray(a, float)
    basis = subspace_basis(modes)
    m = len(basis)
    gram = np.empty((m, m))
    rhs = np.empty(m)
    for p in range(m):
        rhs[p] = np.sum(basis[p] * a)
        for q in range(p, m):
            gram[p, q] = gram[q, p] = np.sum(basis[p] * basis[q])
    coeff = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    out = np.zeros_like(a)
    for c, b in zip(coeff, basis):
        out += c * b
    return out


def dense_exp(a, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of a truncated power series.

    A desk-scale reference routine, not a production exponential: the series is
    summed until the next term is below ``tol`` relative to the running sum,
    then the result is squared back up.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    b = a / (2.0 ** squarings)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 128):
        term = term @ b / k
        out = out + term
        if np.linalg.norm(term) <= tol * np.linalg.norm(out):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def projection_by_embed(a, modes):
    """The projection pass, subtracting each mode's fit as a full N x N embed.

    Takes alpha = tr(A)/N off the diagonal of a copy first, then fits and
    subtracts one traceless factor per mode. Returns (alpha, factors,
    residual_fro), canonicalized as ``LaplacianLike`` does, with the same
    floating-point operations per entry as the library's engine, so alpha
    and the factors match bit for bit. The library sums the residual's
    squares in another order (off the embeds' support, then on it), so
    ``residual_fro`` agrees to rounding only.
    """
    a = np.asarray(a, float)
    modes = tuple(modes)
    n = math.prod(modes)
    alpha = float(np.trace(a)) / n
    resid = a.copy()
    resid[np.diag_indices(n)] -= alpha
    xs = []
    for i, n_i in enumerate(modes):
        u = (n_i / n) * partial_trace(resid, modes, i)
        u -= (np.trace(u) / n_i) * np.eye(n_i)
        xs.append(u)
        resid -= embed(i, u, modes)
    for x, n_i in zip(xs, modes):
        shift = float(np.trace(x)) / n_i
        alpha += shift
        x -= shift * np.eye(n_i)
    return alpha, xs, float(np.linalg.norm(resid))


def bandwidths_by_nonzeros(a):
    """Lower and upper bandwidth (kl, ku): the largest i - j and j - i over the nonzeros."""
    i, j = np.nonzero(a)
    return int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0))


def lu_by_dense_factor(a, b):
    """Solve by plain ``lu_factor``/``lu_solve``: (x, |diag(U)|, || |L| |U| ||_inf).

    The last value scales the rounding error of any LU with the same pivots.
    """
    a = np.asarray(a, float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singular inputs: x is then meaningless
        lu, piv = scipy.linalg.lu_factor(a)
        x = scipy.linalg.lu_solve((lu, piv), b)
    lower = np.tril(lu, -1) + np.eye(a.shape[0])
    lu_norm = np.linalg.norm(np.abs(lower) @ np.abs(np.triu(lu)), np.inf)
    return x, np.abs(np.diag(lu)), lu_norm


def ldl_by_elimination(a):
    """Unpivoted LDL^T of a symmetric ``a`` by plain elimination: (d, L).

    d holds the pivots of Gaussian elimination with no row interchanges and L
    is unit lower triangular; for a positive definite A, d is the squared
    diagonal of its Cholesky factor. Elimination stops at the first pivot that
    is not positive, where a Cholesky factorization breaks down, so A is
    positive definite exactly when every returned pivot is positive; d and L
    then cover the leading rows only.
    """
    s = np.array(a, float)
    n = s.shape[0]
    lower = np.eye(n)
    d = np.zeros(n)
    for k in range(n):
        d[k] = s[k, k]
        if not d[k] > 0.0:
            return d[: k + 1], lower[: k + 1, : k + 1]
        lower[k + 1:, k] = s[k + 1:, k] / d[k]
        s[k + 1:, k + 1:] -= np.outer(lower[k + 1:, k], s[k, k + 1:])
    return d, lower


def mode_matrix_by_kron(c, w, s):
    """The N x n_k structured mode matrix w (x) C + s (x) I, built explicitly.

    Row (i, j) holds C[i, :] w[j] + e_i s[j], matching the residual's mode-k
    unfolding r_k (n_k x N / n_k) read row by row.
    """
    c = np.asarray(c, float)
    column = lambda v: np.asarray(v, float).reshape(-1, 1)  # noqa: E731
    return np.kron(c, column(w)) + np.kron(np.eye(c.shape[0]), column(s))


def mode_weights_by_scalar_seed(factors, images, k):
    """The structured mode weights (w0, s), each outer product seeded with 0-d ones/zeros."""
    w = np.ones(())
    s = np.zeros(())
    for j, (y, z) in enumerate(zip(factors, images)):
        if j != k:
            s = np.multiply.outer(s, y) + np.multiply.outer(w, z)
            w = np.multiply.outer(w, y)
    return w.reshape(-1), s.reshape(-1)


def rank_one_by_kron(factors):
    """y1 (x) ... (x) yd as a chain of ``np.kron``."""
    return reduce(np.kron, factors)


def poisson_by_fast_diagonalization(n, b):
    """Solve the n^3 Dirichlet Poisson system (h = 1/(n+1)) by fast diagonalization.

    With the 1-D stencil S = Q diag(l) Q^T from ``eigh``, the operator is
    (Q x Q x Q) diag(l_i + l_j + l_k) (Q x Q x Q)^T (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964), so the solve is three mode products each way
    around one division.
    """
    h = 1.0 / (n + 1)
    stencil = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / h**2
    lam, q = np.linalg.eigh(stencil)
    t = np.einsum("ai,bj,ck,abc->ijk", q, q, q, np.asarray(b, float).reshape(n, n, n))
    t /= lam[:, None, None] + lam[None, :, None] + lam[None, None, :]
    return np.einsum("ai,bj,ck,ijk->abc", q, q, q, t).reshape(-1)


def poisson_fields_by_dense_grid(n):
    """The Poisson right-hand side -f and exact solution on three full n x n x n grids."""
    grid = np.arange(1, n + 1) * (1.0 / (n + 1))
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    return (-forcing(x, y, z)).reshape(-1), exact_solution(x, y, z).reshape(-1)


def matrix_market_array_by_repr(m) -> str:
    """The text of ``m`` as a general Matrix Market array file: one repr per value, column-major."""
    rows, cols = m.shape
    values = "".join(f"{v!r}\n" for v in m.T.reshape(-1).tolist())
    return f"%%MatrixMarket matrix array real general\n{rows} {cols}\n" + values
