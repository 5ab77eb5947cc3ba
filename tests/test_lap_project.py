import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlap import (
    LaplacianLike,
    PreconditionError,
    embed,
    frobenius_inner,
    identity_component,
    lap_to_dense,
    laplacian_distance,
    mode_projection,
    project_delta_sweeps,
    project_laplacian,
)

from conftest import (
    ADJ6_X1,
    ADJ6_X2,
    SPARSE30_ALPHA,
    SPARSE30_X1,
    SPARSE30_X2,
    SPARSE30_X3,
    random_laplacian_like,
)
from oracles import project_by_normal_equations, sweeps_by_embed, traceless_basis


class TestIdentityComponent:
    def test_sparse30(self, sparse30):
        assert np.trace(sparse30) == 50.0
        assert identity_component(sparse30) == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_traceless(self, adjacency6):
        assert identity_component(adjacency6) == 0.0

    def test_identity(self):
        assert identity_component(np.eye(9)) == 1.0

    def test_non_square(self):
        with pytest.raises(ValueError):
            identity_component(np.ones((2, 3)))


class TestModeProjection:
    def test_adjacency_mode0(self, adjacency6):
        np.testing.assert_array_equal(mode_projection(adjacency6, (2, 3), 0), ADJ6_X1)

    def test_adjacency_mode1(self, adjacency6):
        np.testing.assert_array_equal(mode_projection(adjacency6, (2, 3), 1), ADJ6_X2)

    def test_identity_input_gives_zero(self):
        for i in range(2):
            np.testing.assert_allclose(mode_projection(np.eye(6), (2, 3), i), 0.0, atol=1e-15)

    def test_result_is_traceless(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((24, 24))
        for i in range(3):
            x = mode_projection(a, (2, 3, 4), i)
            assert abs(np.trace(x)) <= 1e-12


class TestClosedFormProjection:
    def test_adjacency_exact(self, adjacency6):
        rep = project_laplacian(adjacency6, (2, 3))
        assert rep.projection.alpha == 0.0
        np.testing.assert_array_equal(rep.projection.factors[0], ADJ6_X1)
        np.testing.assert_array_equal(rep.projection.factors[1], ADJ6_X2)
        assert rep.residual_fro <= 1e-12
        assert rep.method == "closed_form"
        assert rep.sweeps_used == 0

    def test_sparse30_exact(self, sparse30):
        rep = project_laplacian(sparse30, (2, 3, 5))
        assert rep.projection.alpha == pytest.approx(SPARSE30_ALPHA, abs=1e-12)
        np.testing.assert_allclose(rep.projection.factors[0], SPARSE30_X1, atol=1e-12)
        np.testing.assert_allclose(rep.projection.factors[1], SPARSE30_X2, atol=1e-12)
        np.testing.assert_allclose(rep.projection.factors[2], SPARSE30_X3, atol=1e-12)
        assert rep.residual_fro <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_normal_equations_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 12))
        rep = project_laplacian(a, (2, 2, 3))
        oracle = project_by_normal_equations(a, (2, 2, 3))
        np.testing.assert_allclose(
            lap_to_dense(rep.projection), oracle, atol=1e-10 * np.linalg.norm(a)
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            project_laplacian(np.eye(6), (4, 2))

    def test_zero_matrix(self):
        rep = project_laplacian(np.zeros((6, 6)), (2, 3))
        assert rep.residual_fro == 0.0
        assert rep.relative_residual == 0.0

    def test_pythagoras(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((24, 24))
        rep = project_laplacian(a, (2, 3, 4))
        p_norm2 = np.linalg.norm(lap_to_dense(rep.projection)) ** 2
        total = rep.residual_fro**2 + p_norm2
        assert total == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-8)

    def test_residual_orthogonal_to_subspace(self):
        rng = np.random.default_rng(7)
        modes = (2, 3, 4)
        a = rng.standard_normal((24, 24))
        rep = project_laplacian(a, modes)
        resid = a - lap_to_dense(rep.projection)
        bound = 1e-10 * np.linalg.norm(a)
        assert abs(frobenius_inner(resid, np.eye(24))) <= bound * np.linalg.norm(np.eye(24))
        for i, n in enumerate(modes):
            x = rng.standard_normal((n, n))
            x -= np.trace(x) / n * np.eye(n)
            e = embed(i, x, modes)
            assert abs(frobenius_inner(resid, e)) <= bound * np.linalg.norm(e)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        s, t = 1.7, -0.3
        combined = project_laplacian(s * a + t * b, (2, 3))
        pa = lap_to_dense(project_laplacian(a, (2, 3)).projection)
        pb = lap_to_dense(project_laplacian(b, (2, 3)).projection)
        np.testing.assert_allclose(
            lap_to_dense(combined.projection), s * pa + t * pb, rtol=1e-10, atol=1e-10
        )

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((24, 24))
        first = project_laplacian(a, (2, 3, 4))
        again = project_laplacian(lap_to_dense(first.projection), (2, 3, 4))
        assert again.residual_fro <= 1e-12
        np.testing.assert_allclose(
            lap_to_dense(again.projection), lap_to_dense(first.projection), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_on_members(self, seed):
        rng = np.random.default_rng(40 + seed)
        lap = random_laplacian_like((2, 3, 4), rng)
        rep = project_laplacian(lap_to_dense(lap), (2, 3, 4))
        assert rep.relative_residual <= 1e-12


class TestSweeps:
    def test_adjacency_one_sweep(self, adjacency6):
        rep = project_delta_sweeps(adjacency6, (2, 3), iter_max=10, tol=1e-12)
        assert rep.sweeps_used == 1
        np.testing.assert_array_equal(rep.projection.factors[0], ADJ6_X1)
        np.testing.assert_array_equal(rep.projection.factors[1], ADJ6_X2)
        assert rep.method == "iterative"

    def test_zero_matrix(self):
        rep = project_delta_sweeps(np.zeros((6, 6)), (2, 3))
        assert rep.sweeps_used == 1
        assert rep.residual_fro == 0.0
        assert rep.relative_residual == 0.0
        for f in rep.projection.factors:
            np.testing.assert_array_equal(f, np.zeros_like(f))

    def test_matches_closed_form_after_sweep_one(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((24, 24))
        a -= np.trace(a) / 24 * np.eye(24)
        closed = project_laplacian(a, (2, 3, 4))
        swept = project_delta_sweeps(a, (2, 3, 4), iter_max=1, tol=1e-300)
        for f, g in zip(swept.projection.factors, closed.projection.factors):
            np.testing.assert_allclose(f, g, atol=1e-10)

    def test_second_sweep_updates_are_noise(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((24, 24))
        a -= np.trace(a) / 24 * np.eye(24)
        one = project_delta_sweeps(a, (2, 3, 4), iter_max=1, tol=1e-300)
        two = project_delta_sweeps(a, (2, 3, 4), iter_max=2, tol=1e-300)
        for f, g in zip(one.projection.factors, two.projection.factors):
            assert np.linalg.norm(f - g) <= 1e-10

    def test_monotone_residual(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((24, 24))
        a -= np.trace(a) / 24 * np.eye(24)
        residuals = [
            project_delta_sweeps(a, (2, 3, 4), iter_max=k, tol=1e-300).residual_fro
            for k in (1, 2, 3)
        ]
        assert residuals[0] >= residuals[1] - 1e-12
        assert residuals[1] >= residuals[2] - 1e-12

    def test_trace_precondition(self):
        with pytest.raises(PreconditionError, match="6.0"):
            project_delta_sweeps(np.eye(6), (2, 3))


class TestSweepsMatchEmbedOracle:
    """The in-place sweeps do the embed-based sweeps' arithmetic, entry for entry."""

    @settings(max_examples=60, deadline=None)
    @given(
        modes=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        iter_max=st.integers(1, 4),
        tol=st.sampled_from([1e-300, 1e-12, 1e-8, 1.0]),
        near_member=st.booleans(),
        fortran=st.booleans(),
    )
    def test_bit_equal(self, modes, seed, iter_max, tol, near_member, fortran):
        rng = np.random.default_rng(seed)
        n = int(np.prod(modes))
        a = rng.standard_normal((n, n))
        if near_member:
            a = lap_to_dense(random_laplacian_like(modes, rng)) + 1e-9 * a
        a -= np.trace(a) / n * np.eye(n)
        given_a = np.asfortranarray(a) if fortran else a
        rep = project_delta_sweeps(given_a, modes, iter_max=iter_max, tol=tol)
        factors, residual, sweeps = sweeps_by_embed(a, modes, iter_max, tol)
        assert rep.sweeps_used == sweeps
        assert rep.residual_fro == residual
        for got, want in zip(rep.projection.factors, factors):
            assert got.tobytes() == want.tobytes()


class TestMembership:
    def test_sparse30_is_member(self, sparse30):
        member, rel, rep = laplacian_distance(sparse30, (2, 3, 5), tol=1e-8)
        assert member
        assert rel <= 1e-10

    def test_all_ones_is_far(self):
        a = np.ones((6, 6))
        member, rel, rep = laplacian_distance(a, (2, 3), tol=1e-8)
        assert not member
        assert rel > 0.1
        oracle = project_by_normal_equations(a, (2, 3))
        assert np.linalg.norm(a - oracle) / np.linalg.norm(a) > 0.1

    def test_identity_is_member(self):
        member, rel, rep = laplacian_distance(np.eye(6), (2, 3), tol=1e-8)
        assert member
        assert rel == 0.0
        assert rep.projection.alpha == 1.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            laplacian_distance(np.eye(6), (2, 3), tol=0.0)
