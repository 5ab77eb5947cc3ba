import numpy as np
import pytest


# Memory layouts of the same N x N values. Code that reads a matrix through
# its strides must give the same answer for each.
LAYOUTS = {
    "c_order": lambda m: m,
    "f_order": np.asfortranarray,
    "transposed": lambda m: np.ascontiguousarray(m.T).T,
    "strided_slice": lambda m: np.repeat(np.repeat(m, 2, axis=0), 3, axis=1)[::2, 1::3],
    "reversed": lambda m: m[::-1, ::-1].copy()[::-1, ::-1],
}


@pytest.fixture
def adjacency6():
    """6x6 graph adjacency matrix that is an exact sum of identity-padded
    factors for dims (2, 3): swap (x) id + id (x) path."""
    return np.array(
        [
            [0, 1, 0, 1, 0, 0],
            [1, 0, 1, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 0],
        ],
        dtype=float,
    )


ADJ6_X1 = np.array([[0.0, 1.0], [1.0, 0.0]])
ADJ6_X2 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


@pytest.fixture
def sparse30():
    """30x30 block-sparse matrix with trace 50 that is exactly Laplacian-like
    for dims (2, 3, 5)."""
    band = np.array([0.0, 2.0, 1.0, 0.0, -2.0])
    s = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            s[i, j] = band[abs(i - j)]
    t1 = s + 3.0 * np.eye(5)
    t2 = s - np.eye(5)
    i5, i15 = np.eye(5), np.eye(15)
    quad = np.block(
        [
            [t1, 2 * i5, -i5],
            [2 * i5, t2, 2 * i5],
            [i5, 2 * i5, t1],
        ]
    )
    return np.block([[quad, i15], [-i15, quad]])


SPARSE30_ALPHA = 5.0 / 3.0
SPARSE30_X1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
SPARSE30_X2 = np.array(
    [
        [4.0 / 3.0, 2.0, -1.0],
        [2.0, -8.0 / 3.0, 2.0],
        [1.0, 2.0, 4.0 / 3.0],
    ]
)
SPARSE30_X3 = np.array(
    [
        [0.0, 2.0, 1.0, 0.0, -2.0],
        [2.0, 0.0, 2.0, 1.0, 0.0],
        [1.0, 2.0, 0.0, 2.0, 1.0],
        [0.0, 1.0, 2.0, 0.0, 2.0],
        [-2.0, 0.0, 1.0, 2.0, 0.0],
    ]
)


def random_laplacian_like(dims, rng, alpha=None):
    """Random member of the subspace, canonical form."""
    from kronlap import LaplacianLike

    factors = [rng.standard_normal((n, n)) for n in dims]
    a = float(rng.standard_normal()) if alpha is None else alpha
    return LaplacianLike.from_factors(dims, factors, alpha=a)
