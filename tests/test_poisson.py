import tracemalloc

import numpy as np
import pytest

from kronlap import (
    LinearOperator,
    build_poisson,
    direct_solve,
    exact_solution,
    forcing,
    grou,
    lap_to_dense,
    laplacian_distance,
    poisson1d_stencil,
)

from oracles import poisson_fields_by_dense_grid


class TestStencil:
    def test_n3_unit_spacing(self):
        expected = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
        np.testing.assert_array_equal(poisson1d_stencil(3, 1.0), expected)

    def test_n1(self):
        np.testing.assert_array_equal(poisson1d_stencil(1, 0.5), np.array([[-8.0]]))

    def test_eigenvalues_closed_form(self):
        n, h = 4, 0.2
        eig = np.sort(np.linalg.eigvalsh(poisson1d_stencil(n, h)))
        k = np.arange(1, n + 1)
        expected = np.sort(-(4.0 / h**2) * np.sin(k * np.pi / (2 * (n + 1))) ** 2)
        np.testing.assert_allclose(eig, expected, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson1d_stencil(0, 1.0)
        with pytest.raises(ValueError):
            poisson1d_stencil(3, 0.0)

    def test_rejects_nan_h(self):
        for h in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="h must be positive"):
                poisson1d_stencil(3, h)


class TestAnalyticFields:
    def test_center_is_zero(self):
        assert exact_solution(0.5, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_point(self):
        assert exact_solution(0.25, 0.25, 0.25) == pytest.approx(-1.0)
        assert forcing(0.25, 0.25, 0.25) == pytest.approx(-12.0 * np.pi**2)

    def test_boundary_vanishes(self):
        assert exact_solution(0.0, 0.3, 0.7) == pytest.approx(0.0, abs=1e-12)
        assert exact_solution(0.2, 1.0, 0.7) == pytest.approx(0.0, abs=1e-12)


class TestBuildPoisson:
    def test_shapes_and_spacing(self):
        p = build_poisson(4)
        assert p.h == pytest.approx(0.2)
        assert p.operator.dims.modes == (4, 4, 4)
        assert p.rhs.shape == (64,)
        assert p.exact.shape == (64,)

    def test_rhs_ordering_matches_grid(self):
        p = build_poisson(3)
        h = p.h
        # mode 0 (x) slowest: flat index (i*n + j)*n + k
        for i, j, k in [(0, 1, 2), (2, 0, 1), (1, 1, 1)]:
            idx = (i * 3 + j) * 3 + k
            x, y, z = (i + 1) * h, (j + 1) * h, (k + 1) * h
            assert p.rhs[idx] == pytest.approx(-forcing(x, y, z))
            assert p.exact[idx] == pytest.approx(exact_solution(x, y, z))

    def test_operator_symmetric_and_negative_definite(self):
        p = build_poisson(4)
        dense = lap_to_dense(p.operator)
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        assert np.max(np.linalg.eigvalsh(dense)) < 0.0

    def test_operator_in_subspace_by_construction(self):
        p = build_poisson(4)
        member, rel, _ = laplacian_distance(lap_to_dense(p.operator), (4, 4, 4))
        assert member and rel <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            build_poisson(1)

    @pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
    def test_fields_bit_equal_to_dense_grids(self, n):
        p = build_poisson(n)
        rhs, exact = poisson_fields_by_dense_grid(n)
        assert p.rhs.tobytes() == rhs.tobytes()
        assert p.exact.tobytes() == exact.tobytes()

    def test_fields_built_without_full_grids(self):
        # rhs and exact are 2 MB each at n = 64; three full grids would add 6 MB
        build_poisson(2)  # warm up outside the traced call
        tracemalloc.start()
        try:
            build_poisson(64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_discrete_solution_converges(self):
        errors = {}
        for n in (3, 7):
            p = build_poisson(n)
            x = direct_solve(lap_to_dense(p.operator), p.rhs)
            errors[n] = np.max(np.abs(x - p.exact))
        assert errors[3] / errors[7] == pytest.approx(4.0, abs=0.6)


class TestGrouOnPoisson:
    def test_matches_direct(self):
        p = build_poisson(4)
        op = LinearOperator.from_laplacian(p.operator)
        rep = grou(op, p.rhs)
        x_direct = direct_solve(lap_to_dense(p.operator), p.rhs)
        rel = np.max(np.abs(rep.x - x_direct)) / np.max(np.abs(x_direct))
        assert rel <= 1e-4
        hist = np.array(rep.residual_history)
        assert np.all(np.diff(hist) <= 0.0)
