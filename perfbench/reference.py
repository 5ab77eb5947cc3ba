"""The benchmark's own reference computations, independent of kronlap.

Nothing here imports the package under test: the checks in `workloads.py`
compare the program's outputs against these results.
"""

import math

import numpy as np


def dirichlet_stencil(n: int) -> np.ndarray:
    """1-D second-difference matrix with zero walls on n interior points, h = 1/(n+1)."""
    h = 1.0 / (n + 1)
    return (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / h**2


def poisson_rhs(n: int) -> np.ndarray:
    """-f on the n^3 interior grid for f = 3 (2 pi)^2 sin(2 pi x - pi) sin(2 pi y - pi) sin(2 pi z - pi)."""
    g = np.arange(1, n + 1) / (n + 1)
    s = np.sin(2.0 * np.pi * g - np.pi)
    return (-3.0 * (2.0 * np.pi) ** 2 * np.einsum("i,j,k->ijk", s, s, s)).reshape(-1)


def fast_diag_solve(factors, alpha: float, b) -> np.ndarray:
    """Solve (alpha*I + sum_i embed(F_i)) x = b for symmetric F_i.

    Fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): with
    F_i = Q_i diag(l_i) Q_i^T the operator is (Q_1 x ... x Q_d) D (...)^T,
    where D holds alpha + l_1[j_1] + ... + l_d[j_d], so the solve costs
    O(N * sum_i n_i) after d small eigendecompositions.
    """
    eig = [np.linalg.eigh(np.asarray(f, dtype=float)) for f in factors]
    dims = tuple(len(lam) for lam, _ in eig)
    t = np.asarray(b, dtype=float).reshape(dims)
    for i, (_, q) in enumerate(eig):
        t = np.moveaxis(np.tensordot(q.T, t, axes=(1, i)), 0, i)
    denom = np.full(dims, float(alpha))
    for i, (lam, _) in enumerate(eig):
        shape = [1] * len(dims)
        shape[i] = dims[i]
        denom = denom + lam.reshape(shape)
    t = t / denom
    for i, (_, q) in enumerate(eig):
        t = np.moveaxis(np.tensordot(q, t, axes=(1, i)), 0, i)
    return t.reshape(-1)


def poisson_solve(n: int, b) -> np.ndarray:
    """Reference solution of the n^3 discrete Poisson system A x = b."""
    s = dirichlet_stencil(n)
    return fast_diag_solve((s, s, s), 0.0, b)


def poisson_dense(n: int) -> np.ndarray:
    """The n^3 x n^3 discrete Laplacian as a dense matrix (small n only)."""
    s = dirichlet_stencil(n)
    eye = np.eye(n)
    return np.kron(np.kron(s, eye), eye) + np.kron(np.kron(eye, s), eye) + np.kron(np.kron(eye, eye), s)


def canonical(factors):
    """(alpha, traceless factors) of alpha*I + sum_i embed(F_i)."""
    alpha = 0.0
    out = []
    for f in factors:
        shift = float(np.trace(f)) / f.shape[0]
        alpha += shift
        out.append(f - shift * np.eye(f.shape[0]))
    return alpha, out


def projection(a, dims):
    """Closed-form projection of `a` onto the Laplacian-like subspace.

    Returns (alpha, traceless factors, relative residual). Partial traces are
    taken as diagonals of a six-axis view; the residual uses the orthogonality
    of the identity and the traceless embeds, which is accurate here because
    the reference inputs sit well away from the subspace.
    """
    n_total = a.shape[0]
    alpha = float(np.trace(a)) / n_total
    factors = []
    for i, n in enumerate(dims):
        left, right = math.prod(dims[:i]), math.prod(dims[i + 1:])
        pt = np.einsum("aibajb->ij", a.reshape(left, n, right, left, n, right))
        factors.append((n / n_total) * pt - alpha * np.eye(n))
    p2 = n_total * alpha**2 + sum(n_total / n * float(np.sum(x * x)) for x, n in zip(factors, dims))
    a2 = float(np.vdot(a, a))
    return alpha, factors, math.sqrt(max(a2 - p2, 0.0) / a2)


def read_mm_array(path) -> np.ndarray:
    """Parse a Matrix Market `array real general` file into a 2-D array."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    rows, cols = (int(t) for t in lines[0].split())
    values = np.array(" ".join(lines[1:]).split(), dtype=float)
    if values.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {values.size}")
    return values.reshape(cols, rows).T


def rel_err(x, ref) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))


def max_rel_diff(xs, refs) -> float:
    """Largest entry-wise difference over paired arrays, relative to the largest reference entry."""
    scale = max(float(np.max(np.abs(r))) for r in refs)
    return max(float(np.max(np.abs(np.asarray(x) - r))) for x, r in zip(xs, refs)) / scale
