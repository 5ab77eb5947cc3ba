"""Independent brute-force reference implementations used only by the tests.

Most of these deliberately avoid the library's own code paths: Kronecker
products by the index formula, partial traces by explicit multi-index loops,
projections by solving the normal equations over an explicit basis, and the
matrix exponential by a truncated power series. The exception is
`sweeps_by_embed`, the projection sweeps written with the library's full
N x N `embed`, kept as a bit-exact reference for the in-place sweeps.
"""

import math
from functools import reduce
from itertools import product

import numpy as np

from kronlap import SizeLimitError, embed, get_config, partial_trace


def kron_by_index_formula(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ar, ac = a.shape
    br, bc = b.shape
    out = np.empty((ar * br, ac * bc))
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k, j * bc + l] = a[i, j] * b[k, l]
    return out


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
    then the result is squared back up. Honors the configured dense cap.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = a.shape[0]
    cap = get_config().dense_cap
    if n > cap:
        raise SizeLimitError(f"dense exponential of size {n} exceeds the configured cap {cap}")
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


def sweeps_by_embed(a, modes, iter_max, tol):
    """Per-mode projection sweeps that subtract each update as a full N x N embed.

    Returns (factors, residual_fro, sweeps_used) with the same floating-point
    operations per entry as the library's in-place sweeps, so results match
    bit for bit.
    """
    a = np.asarray(a, float)
    modes = tuple(modes)
    n = math.prod(modes)
    xs = [np.zeros((m, m)) for m in modes]
    resid = a.copy()
    residual = float(np.linalg.norm(a))
    sweeps = 0
    while sweeps < iter_max:
        for i, n_i in enumerate(modes):
            u = (n_i / n) * partial_trace(resid, modes, i)
            u -= (np.trace(u) / n_i) * np.eye(n_i)
            xs[i] += u
            resid -= embed(i, u, modes)
        sweeps += 1
        residual = float(np.linalg.norm(resid))
        if residual < tol:
            break
    for x, n_i in zip(xs, modes):
        x -= (np.trace(x) / n_i) * np.eye(n_i)
    return xs, residual, sweeps
