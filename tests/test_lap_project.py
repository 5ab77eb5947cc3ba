import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronlap
from kronlap import (
    LaplacianLike,
    lap_to_dense,
    laplacian_distance,
    project_laplacian,
)
from kronlap.kron_core import embed
from kronlap.lap_project import mode_projection, project_delta_sweeps

from conftest import (
    ADJ6_X1,
    ADJ6_X2,
    SPARSE30_ALPHA,
    SPARSE30_X1,
    SPARSE30_X2,
    SPARSE30_X3,
    random_laplacian_like,
)
from oracles import frobenius_inner, project_by_normal_equations, projection_by_embed, traceless_basis


def test_package_does_not_export_test_only_helpers():
    for name in ("embed", "partial_trace", "mode_projection"):
        assert name not in kronlap.__all__
        assert not hasattr(kronlap, name)


class TestIdentityComponent:
    """The coefficient of id_N in the projection is tr(A)/N."""

    def test_sparse30(self, sparse30):
        assert np.trace(sparse30) == 50.0
        alpha = project_laplacian(sparse30, (2, 3, 5)).projection.alpha
        assert alpha == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_traceless(self, adjacency6):
        assert project_laplacian(adjacency6, (2, 3)).projection.alpha == pytest.approx(0.0, abs=1e-15)

    def test_identity(self):
        assert project_laplacian(np.eye(9), (3, 3)).projection.alpha == pytest.approx(1.0, abs=1e-15)

    def test_non_square(self):
        with pytest.raises(ValueError):
            project_laplacian(np.ones((2, 3)), (2, 3))


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

    def test_no_dense_cap_on_held_arrays(self, monkeypatch):
        # the cap bounds arrays kronlap builds; a 125 x 125 array the caller holds is projected under cap 64
        a = np.random.default_rng(0).standard_normal((125, 125))
        oracle = project_by_normal_equations(a, (5, 5, 5))
        monkeypatch.setenv("KRONLAP_DENSE_CAP", "64")
        rep = project_laplacian(a, (5, 5, 5))
        member, rel, _ = laplacian_distance(a, (5, 5, 5))
        monkeypatch.delenv("KRONLAP_DENSE_CAP")
        np.testing.assert_allclose(
            lap_to_dense(rep.projection), oracle, atol=1e-10 * np.linalg.norm(a)
        )
        assert not member
        assert rel == pytest.approx(np.linalg.norm(a - oracle) / np.linalg.norm(a), rel=1e-10)


class TestSweeps:
    """``project_delta_sweeps`` returns the closed form for any ``iter_max``."""

    def test_adjacency_one_sweep(self, adjacency6):
        rep = project_delta_sweeps(adjacency6, (2, 3), iter_max=10)
        assert rep.sweeps_used == 1
        np.testing.assert_array_equal(rep.projection.factors[0], ADJ6_X1)
        np.testing.assert_array_equal(rep.projection.factors[1], ADJ6_X2)

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
        swept = project_delta_sweeps(a, (2, 3, 4), iter_max=1)
        for f, g in zip(swept.projection.factors, closed.projection.factors):
            np.testing.assert_allclose(f, g, atol=1e-10)

    def test_second_sweep_updates_are_noise(self):
        # one pass is exact: projecting its residual again finds rounding only,
        # which is why the projection runs a single pass
        rng = np.random.default_rng(13)
        a = rng.standard_normal((24, 24))
        first = project_laplacian(a, (2, 3, 4)).projection
        again = project_laplacian(a - lap_to_dense(first), (2, 3, 4)).projection
        assert abs(again.alpha) <= 1e-14 * np.linalg.norm(a)
        for f in again.factors:
            assert np.linalg.norm(f) <= 1e-14 * np.linalg.norm(a)

    def test_monotone_residual(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((24, 24))
        closed = project_laplacian(a, (2, 3, 4))
        for k in (1, 2, 3):
            rep = project_delta_sweeps(a, (2, 3, 4), iter_max=k)
            assert rep.sweeps_used == 1
            assert rep.residual_fro == closed.residual_fro
            for f, g in zip(rep.projection.factors, closed.projection.factors):
                assert f.tobytes() == g.tobytes()

    def test_identity_input_gives_alpha(self):
        rep = project_delta_sweeps(np.eye(6), (2, 3))
        assert rep.projection.alpha == 1.0
        assert rep.residual_fro == 0.0
        assert rep.sweeps_used == 1
        for f in rep.projection.factors:
            np.testing.assert_array_equal(f, np.zeros_like(f))

    def test_any_trace_gives_alpha_at_any_scale(self):
        rng = np.random.default_rng(15)
        a = 1e8 * rng.standard_normal((64, 64))
        near_identity = 1e-12 * (np.eye(6) + 1e-3 * rng.standard_normal((6, 6)))
        for m, modes in ((a, (4, 4, 4)), (near_identity, (2, 3))):
            n = m.shape[0]
            rep = project_delta_sweeps(m, modes)
            assert rep.sweeps_used >= 1
            rounding = 4 * (n + len(modes)) * np.finfo(float).eps
            assert abs(rep.projection.alpha - np.trace(m) / n) <= rounding * np.linalg.norm(m)


class TestProjectionScaleInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        modes=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        k=st.integers(-1000, 1000),
        seed=st.integers(0, 2**32 - 1),
        near_member=st.booleans(),
    )
    def test_projection_scales_with_input(self, modes, k, seed, near_member):
        # s = 2^k spans the whole exponent range, so ||sA||_F^2 over- or
        # underflows; results are compared in units of s, which is exact
        s = 2.0**k
        n = int(np.prod(modes))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        if near_member:
            a = lap_to_dense(random_laplacian_like(modes, rng)) + 1e-9 * a
        base = project_laplacian(a, modes)
        scaled = project_laplacian(s * a, modes)
        # each projected quantity sums at most N entries of A and then d shifts,
        # so it is within (N + d) * u * ||A||_F of exact; allow 4x that per run
        rounding = 4 * (n + len(modes)) * np.finfo(float).eps
        bound = rounding * np.linalg.norm(a)
        assert abs(scaled.projection.alpha / s - base.projection.alpha) <= bound
        for x, y in zip(scaled.projection.factors, base.projection.factors):
            assert np.linalg.norm(x / s - y) <= bound
        assert abs(scaled.residual_fro / s - base.residual_fro) <= bound
        assert abs(scaled.relative_residual - base.relative_residual) <= rounding
        assert laplacian_distance(s * a, modes).is_member == laplacian_distance(a, modes).is_member

    @pytest.mark.parametrize("k", [-1000, -564, -460, 0, 460, 564, 1000])
    def test_membership_at_extreme_scales(self, k):
        # 2^-564 * A has squares below the smallest subnormal, 2^564 * A squares
        # above the largest float; the test reads both as A
        rng = np.random.default_rng(18)
        a = rng.standard_normal((6, 6))
        member = lap_to_dense(random_laplacian_like((2, 3), rng))
        for m, is_member in ((a, False), (member, True)):
            m = m / np.abs(m).max()  # max |m| = 1, so 2^k * m stays finite for k <= 1000
            base = laplacian_distance(m, (2, 3))
            got = laplacian_distance(2.0**k * m, (2, 3))
            assert (got.is_member, base.is_member) == (is_member, is_member)
            assert np.isfinite(got.report.residual_fro)
            assert abs(got.relative_residual - base.relative_residual) <= 1e-15

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (0, 4)])
    def test_non_finite_entries_raise(self, value, where):
        # (0, 0) is on the diagonal, (0, 1) on mode 1's support, (0, 4) off every support
        a = np.random.default_rng(19).standard_normal((6, 6))
        a[where] = value
        for run in (project_laplacian, laplacian_distance):
            with pytest.raises(ValueError, match="non-finite"):
                run(a, (2, 3))

    @settings(max_examples=40, deadline=None)
    @given(
        modes=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        k=st.integers(-12, 12),
        seed=st.integers(0, 2**32 - 1),
        near_member=st.booleans(),
        fortran=st.booleans(),
    )
    def test_sweeps_scale_with_input(self, modes, k, seed, near_member, fortran):
        s = 10.0 ** k
        n = int(np.prod(modes))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))  # any trace: the sweeps take alpha off themselves
        if near_member:
            a = lap_to_dense(random_laplacian_like(modes, rng)) + 1e-9 * a
        layout = np.asfortranarray if fortran else np.ascontiguousarray
        base = project_delta_sweeps(layout(a), modes)
        scaled = project_delta_sweeps(layout(s * a), modes)
        assert scaled.sweeps_used == base.sweeps_used
        one = project_delta_sweeps(layout(s * a), modes, iter_max=1)
        closed = project_laplacian(s * a, modes)
        rounding = 4 * (n + len(modes)) * np.finfo(float).eps
        bound = rounding * s * np.linalg.norm(a)
        assert abs(one.projection.alpha - closed.projection.alpha) <= bound
        for x, y in zip(one.projection.factors, closed.projection.factors):
            assert np.linalg.norm(x - y) <= bound


class TestSweepsMatchEmbedOracle:
    """The support-only engine does the embed-based pass's arithmetic, entry for entry."""

    @settings(max_examples=60, deadline=None)
    @given(
        modes=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        near_member=st.booleans(),
        fortran=st.booleans(),
    )
    def test_bit_equal(self, modes, seed, near_member, fortran):
        rng = np.random.default_rng(seed)
        n = int(np.prod(modes))
        a = rng.standard_normal((n, n))
        if near_member:
            a = lap_to_dense(random_laplacian_like(modes, rng)) + 1e-9 * a
        given_a = np.asfortranarray(a) if fortran else a
        rep = project_laplacian(given_a, modes)
        alpha, factors, residual = projection_by_embed(a, modes)
        # the residual sums the same N^2 squares in another order
        assert abs(rep.residual_fro - residual) <= n * n * np.finfo(float).eps * residual
        assert rep.projection.alpha == alpha
        for got, want in zip(rep.projection.factors, factors):
            assert got.tobytes() == want.tobytes()


def _laid_out(m, layout, rng):
    """``m`` as a C-ordered, an F-ordered or a non-contiguous array (a slice of a larger one)."""
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "slice":
        n = m.shape[0]
        big = rng.standard_normal((n + 2, 2 * n + 1))
        big[1 : n + 1, 1::2] = m
        return big[1 : n + 1, 1::2]
    return np.ascontiguousarray(m)


class TestSupportEngine:
    """The engine reads A once and keeps only the embeds' support."""

    @settings(max_examples=40, deadline=None)
    @given(
        modes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["C", "F", "slice"]),
    )
    def test_matches_normal_equations_in_any_layout(self, modes, seed, layout):
        rng = np.random.default_rng(seed)
        n = int(np.prod(modes))
        a = rng.standard_normal((n, n))
        given_a = _laid_out(a, layout, rng)
        oracle = project_by_normal_equations(a, modes)
        bound = 1e-10 * np.linalg.norm(a)
        rep = project_laplacian(given_a, modes)
        np.testing.assert_allclose(lap_to_dense(rep.projection), oracle, atol=bound)
        assert abs(rep.residual_fro - np.linalg.norm(a - oracle)) <= bound
        # a member's residual is summed from zeros and rounding, not taken as
        # ||A||^2 - ||P||^2, so it stays near the unit roundoff
        member = _laid_out(lap_to_dense(random_laplacian_like(modes, rng)), layout, rng)
        assert project_laplacian(member, modes).relative_residual <= 1e-12

    @pytest.mark.parametrize("modes", [(33, 3), (2, 17), (17, 2), (3, 2, 5), (2, 64), (5,)])
    @pytest.mark.parametrize("layout", ["C", "F", "slice"])
    def test_residual_where_row_chunks_split_a_mode(self, modes, layout):
        # A is read 16 rows at a time at most; these sizes leave partial runs of a mode
        rng = np.random.default_rng(1)
        n = int(np.prod(modes))
        a = rng.standard_normal((n, n))
        rep = project_laplacian(_laid_out(a, layout, rng), modes)
        norm_a = np.linalg.norm(a)
        want = np.linalg.norm(a - lap_to_dense(rep.projection))
        assert abs(rep.residual_fro - want) <= 1e-12 * norm_a
        assert abs(rep.relative_residual - want / norm_a) <= 1e-12

    @pytest.mark.parametrize("modes", [(4, 4, 4, 4, 4), (32, 32)])
    def test_working_memory_is_a_fraction_of_a(self, modes):
        a = np.random.default_rng(0).standard_normal((1024, 1024))
        tracemalloc.start()
        try:
            project_laplacian(a, modes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * a.nbytes


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

    def test_rejects_nan_tol(self):
        # with a NaN threshold every comparison is false, so a member read as a non-member
        with pytest.raises(ValueError, match="tol must be positive"):
            laplacian_distance(np.eye(6), (2, 3), tol=float("nan"))
