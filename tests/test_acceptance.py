"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
print; without -s they still appear in captured output on failure.
"""

import os
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from kronlap import (
    LaplacianLike,
    LinearOperator,
    SizeLimitError,
    build_poisson,
    direct_solve,
    grou,
    lap_exp,
    lap_to_dense,
    lie_bracket,
    project_laplacian,
)
from kronlap.kron_core import embed

from conftest import (
    ADJ6_X1,
    ADJ6_X2,
    SPARSE30_ALPHA,
    SPARSE30_X1,
    SPARSE30_X2,
    SPARSE30_X3,
    random_laplacian_like,
)
from oracles import dense_exp, frobenius_inner, project_by_normal_equations


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    within = budget_seconds is None or elapsed < budget_seconds
    status = "PASS" if within else "FAIL"
    print(f"ACCEPTANCE {number}: {status}  {description}  [{elapsed:.2f}s]")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} blew its {budget_seconds}s runtime budget ({elapsed:.2f}s)"
        )


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))


def test_criterion_1_graph_adjacency_exact(adjacency6):
    with criterion(1, "6x6 adjacency decomposition, exact integer factors", 1.0):
        rep = project_laplacian(adjacency6, (2, 3))
        assert rep.projection.alpha == 0.0
        np.testing.assert_array_equal(rep.projection.factors[0], ADJ6_X1)
        np.testing.assert_array_equal(rep.projection.factors[1], ADJ6_X2)
        assert rep.residual_fro <= 1e-12


def test_criterion_2_sparse_30x30_exact(sparse30):
    with criterion(2, "30x30 sparse decomposition, alpha=5/3 and printed factors", 1.0):
        rep = project_laplacian(sparse30, (2, 3, 5))
        assert abs(rep.projection.alpha - SPARSE30_ALPHA) <= 1e-12
        np.testing.assert_allclose(rep.projection.factors[0], SPARSE30_X1, atol=1e-12)
        np.testing.assert_allclose(rep.projection.factors[1], SPARSE30_X2, atol=1e-12)
        np.testing.assert_allclose(rep.projection.factors[2], SPARSE30_X3, atol=1e-12)
        assert rep.residual_fro <= 1e-10


def test_criterion_3_projection_oracle_equivalence():
    with criterion(3, "closed form vs normal-equations oracle, 100 matrices", 30.0):
        dims_pool = [(2, 3), (2, 2, 3), (3, 4), (2, 3, 4)]
        rng = np.random.default_rng(2024)
        for case in range(100):
            modes = dims_pool[case % len(dims_pool)]
            n = int(np.prod(modes))
            a = rng.standard_normal((n, n))
            norm_a = np.linalg.norm(a)

            closed = lap_to_dense(project_laplacian(a, modes).projection)
            oracle = project_by_normal_equations(a, modes)
            assert np.linalg.norm(closed - oracle) <= 1e-10 * norm_a


def test_criterion_4_kronecker_identity_suite():
    with criterion(4, "Kronecker product identities, 50 instances each", 10.0):
        rng = np.random.default_rng(99)
        for _ in range(50):
            a = rng.standard_normal((2, 3))
            a2 = rng.standard_normal((2, 3))
            b = rng.standard_normal((3, 2))
            c = rng.standard_normal((3, 2))
            d = rng.standard_normal((2, 3))
            sq2 = rng.standard_normal((2, 2))
            sq3 = rng.standard_normal((3, 3))
            # associativity
            assert rel_err(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c))) <= 1e-10
            # distributivity over addition
            assert rel_err(np.kron(a + a2, b), np.kron(a, b) + np.kron(a2, b)) <= 1e-10
            # mixed product: (AB) (x) (CD) = (A (x) C)(B (x) D)
            assert rel_err(np.kron(a @ b, c @ d), np.kron(a, c) @ np.kron(b, d)) <= 1e-10
            # transpose
            assert rel_err(np.kron(a, b).T, np.kron(a.T, b.T)) <= 1e-10
            # trace multiplicativity
            assert abs(np.trace(np.kron(sq2, sq3)) - np.trace(sq2) * np.trace(sq3)) <= 1e-10 * max(
                1.0, abs(np.trace(sq2) * np.trace(sq3))
            )
            # inverse of the product
            di = sq2 + 2.0 * np.eye(2)
            ei = sq3 + 3.0 * np.eye(3)
            assert (
                rel_err(np.linalg.inv(np.kron(di, ei)), np.kron(np.linalg.inv(di), np.linalg.inv(ei)))
                <= 1e-10
            )
            # embedded-factor inner product identity
            modes = (2, 3, 2)
            i = int(rng.integers(0, 3))
            n_i = modes[i]
            x = rng.standard_normal((n_i, n_i))
            y = rng.standard_normal((n_i, n_i))
            lhs = frobenius_inner(embed(i, x, modes), embed(i, y, modes))
            rhs = np.trace(x.T @ y) * (12 // n_i)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_criterion_5_lie_structure():
    with criterion(5, "bracket closure vs dense commutator; factored exponential", 10.0):
        rng = np.random.default_rng(7)
        for _ in range(50):
            l1 = random_laplacian_like((2, 3), rng)
            l2 = random_laplacian_like((2, 3), rng)
            d1, d2 = lap_to_dense(l1), lap_to_dense(l2)
            commutator = d1 @ d2 - d2 @ d1
            structured = lap_to_dense(lie_bracket(l1, l2))
            assert np.linalg.norm(structured - commutator) <= 1e-12 * max(
                1.0, np.linalg.norm(commutator)
            )
        for _ in range(20):
            lap = random_laplacian_like((2, 3), rng)
            factored = lap_exp(lap).to_dense()
            series = dense_exp(lap_to_dense(lap), tol=1e-14)
            assert np.linalg.norm(factored - series) <= 1e-8 * max(1.0, np.linalg.norm(series))


@pytest.mark.parametrize("n", [4, 6])
def test_criterion_6_grou_matches_direct(n):
    with criterion(6, f"greedy solver vs dense LU on the n={n} grid", 60.0):
        problem = build_poisson(n)
        op = LinearOperator.from_laplacian(problem.operator)
        report = grou(op, problem.rhs, eps=1e-6, tol=2.22e-6, rank_max=3000, als_iter_max=15)
        x_direct = direct_solve(lap_to_dense(problem.operator), problem.rhs)
        rel = np.max(np.abs(report.x - x_direct)) / np.max(np.abs(x_direct))
        assert rel <= 1e-4
        history = np.array(report.residual_history)
        assert np.all(np.diff(history) <= 0.0)


def test_criterion_7_structured_path_never_materializes():
    with criterion(7, "n=12 structured solve under a dense cap below N"):
        problem = build_poisson(12)  # N = 1728
        with mock.patch.dict(os.environ, {"KRONLAP_DENSE_CAP": "1000"}):
            with pytest.raises(SizeLimitError):
                lap_to_dense(problem.operator)
            op = LinearOperator.from_laplacian(problem.operator)
            report = grou(op, problem.rhs, eps=1e-6, tol=2.22e-6, rank_max=3000,
                          als_iter_max=15)
        rel = report.residual_history[-1] / report.residual_history[0]
        assert rel <= 1e-5


def test_criterion_8_discretization_convergence():
    with criterion(8, "max-node error shrinks ~4x when the grid halves (n 7 -> 15)", 30.0):
        errors = {}
        for n in (7, 15):
            problem = build_poisson(n)
            x = direct_solve(lap_to_dense(problem.operator), problem.rhs)
            errors[n] = float(np.max(np.abs(x - problem.exact)))
        ratio = errors[7] / errors[15]
        assert 3.5 <= ratio <= 4.5
