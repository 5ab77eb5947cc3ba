import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlap import (
    DimSplit,
    FactorGroupElement,
    LaplacianLike,
    SingularMatrixError,
    SizeLimitError,
    lap_exp,
    lap_matvec,
    lap_to_dense,
    lie_bracket,
)
from kronlap import kron_core
from kronlap.kron_core import _require_finite, embed, partial_trace

from conftest import ADJ6_X1, ADJ6_X2, LAYOUTS, SPARSE30_ALPHA, SPARSE30_X1, SPARSE30_X2, SPARSE30_X3, random_laplacian_like
from oracles import dense_exp, embed_by_kron_chain, frobenius_inner, partial_trace_by_loops, traceless_basis


class TestDimSplit:
    def test_basic(self):
        d = DimSplit((2, 3, 5))
        assert d.n == 30 and d.d == 3
        assert d.left_size(1) == 2 and d.right_size(1) == 5

    def test_single_mode_allowed(self):
        assert DimSplit((5,)).n == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DimSplit(())

    def test_rejects_unit_modes_when_d_ge_2(self):
        with pytest.raises(ValueError):
            DimSplit((1, 3))
        with pytest.raises(ValueError):
            DimSplit((2, 1, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DimSplit((0,))


class TestEmbed:
    def test_path_factor_is_block_diagonal(self):
        got = embed(1, ADJ6_X2, (2, 3))
        expected = np.zeros((6, 6))
        expected[:3, :3] = ADJ6_X2
        expected[3:, 3:] = ADJ6_X2
        np.testing.assert_array_equal(got, expected)

    def test_zero_factor(self):
        np.testing.assert_array_equal(embed(0, np.zeros((2, 2)), (2, 3)), np.zeros((6, 6)))

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_matches_kron_chain(self, i):
        rng = np.random.default_rng(10 + i)
        modes = (2, 2, 3)
        x = rng.standard_normal((modes[i], modes[i]))
        np.testing.assert_allclose(
            embed(i, x, modes), embed_by_kron_chain(i, x, modes), atol=1e-14
        )

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            embed(2, np.eye(3), (2, 3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            embed(0, np.eye(3), (2, 3))

    def test_dense_cap(self):
        with mock.patch.dict(os.environ, {"KRONLAP_DENSE_CAP": "5"}):
            with pytest.raises(SizeLimitError):
                embed(0, np.eye(2), (2, 3))


class TestFrobenius:
    def test_embedded_factor_identity(self):
        rng = np.random.default_rng(3)
        modes = (2, 3)
        for i in range(2):
            n = modes[i]
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            lhs = frobenius_inner(embed(i, a, modes), embed(i, b, modes))
            scale = 6 // n
            assert lhs == pytest.approx(np.trace(a.T @ b) * scale, abs=1e-12)

    def test_distinct_mode_traceless_orthogonality(self):
        rng = np.random.default_rng(4)
        modes = (2, 3, 4)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                a = rng.standard_normal((modes[i], modes[i]))
                a -= np.trace(a) / modes[i] * np.eye(modes[i])
                b = rng.standard_normal((modes[j], modes[j]))
                b -= np.trace(b) / modes[j] * np.eye(modes[j])
                inner = frobenius_inner(embed(i, a, modes), embed(j, b, modes))
                assert abs(inner) <= 1e-12


class TestPartialTrace:
    def test_adjacency_mode0(self, adjacency6):
        np.testing.assert_array_equal(
            partial_trace(adjacency6, (2, 3), 0), np.array([[0.0, 3.0], [3.0, 0.0]])
        )
        np.testing.assert_array_equal(
            partial_trace(adjacency6, (2, 3), 0),
            partial_trace_by_loops(adjacency6, (2, 3), 0),
        )

    def test_identity(self):
        np.testing.assert_allclose(partial_trace(np.eye(24), (2, 3, 4), 1), 8.0 * np.eye(3))

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_matches_loop_oracle(self, i):
        rng = np.random.default_rng(20 + i)
        modes = (2, 2, 3)
        a = rng.standard_normal((12, 12))
        np.testing.assert_allclose(
            partial_trace(a, modes, i), partial_trace_by_loops(a, modes, i), atol=1e-12
        )

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_adjoint_of_embed(self, i):
        rng = np.random.default_rng(30 + i)
        modes = (2, 2, 3)
        a = rng.standard_normal((12, 12))
        x = rng.standard_normal((modes[i], modes[i]))
        lhs = frobenius_inner(embed(i, x, modes), a)
        rhs = frobenius_inner(x, partial_trace(a, modes, i))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_preserves_trace(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30))
        for i in range(3):
            assert np.trace(partial_trace(a, (2, 3, 5), i)) == pytest.approx(
                np.trace(a), rel=1e-12
            )

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(6), (2, 3), 5)

    def test_non_square(self):
        with pytest.raises(ValueError):
            partial_trace(np.ones((6, 5)), (2, 3), 0)


random_modes = st.lists(st.integers(2, 4), min_size=1, max_size=4)


class TestModeBlockProperties:
    @settings(max_examples=40, deadline=None)
    @given(modes=random_modes, seed=st.integers(0, 2**32 - 1))
    def test_lap_to_dense_matches_kron_chain(self, modes, seed):
        rng = np.random.default_rng(seed)
        lap = LaplacianLike.from_factors(
            modes, [rng.standard_normal((n, n)) for n in modes], alpha=rng.standard_normal()
        )
        want = lap.alpha * np.eye(lap.n)
        for i, f in enumerate(lap.factors):
            want += embed_by_kron_chain(i, f, modes)
        np.testing.assert_array_equal(lap_to_dense(lap), want)

    @settings(max_examples=40, deadline=None)
    @given(
        modes=random_modes,
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )
    def test_partial_trace_matches_loops_on_any_layout(self, modes, data, seed, layout):
        i = data.draw(st.integers(0, len(modes) - 1))
        values = np.random.default_rng(seed).standard_normal((np.prod(modes),) * 2)
        a = LAYOUTS[layout](values)
        np.testing.assert_array_equal(a, values)
        got = partial_trace(a, modes, i)
        want = partial_trace_by_loops(values, modes, i)
        # any summation order of k terms is within (k - 1) * u * sum|terms|
        k = values.shape[0] // modes[i]
        bound = 2 * k * np.finfo(float).eps * partial_trace_by_loops(np.abs(values), modes, i)
        assert np.all(np.abs(got - want) <= bound)


class TestScaleInvariance:
    @settings(max_examples=60, deadline=None)
    @given(modes=random_modes, k=st.integers(-12, 12), seed=st.integers(0, 2**32 - 1))
    def test_from_factors_at_any_scale(self, modes, k, seed):
        s = 10.0 ** k
        rng = np.random.default_rng(seed)
        fs = [rng.standard_normal((n, n)) for n in modes]
        lap = LaplacianLike.from_factors(modes, [s * f for f in fs])
        want = s * sum(embed_by_kron_chain(i, f, modes) for i, f in enumerate(fs))
        # the trace shifts cancel in exact arithmetic; what is left is the rounding
        # of s * F, of each shift and of the d + 1 terms summed per entry
        eps = np.finfo(float).eps
        bound = (2 * len(modes) + 3) * eps * s * sum(np.abs(f).max() for f in fs)
        assert np.abs(lap_to_dense(lap) - want).max() <= bound


class TestLaplacianLike:
    def test_canonicalizes_non_traceless_factor(self):
        lap = LaplacianLike((2, 3), 0.0, (np.eye(2), np.zeros((3, 3))))
        assert lap.alpha == 1.0
        for f in lap.factors:
            assert not np.any(f)

    def test_from_factors_canonicalizes(self):
        rng = np.random.default_rng(0)
        f1 = rng.standard_normal((2, 2))
        f2 = rng.standard_normal((3, 3))
        lap = LaplacianLike.from_factors((2, 3), (f1, f2), alpha=0.5)
        assert lap.alpha == pytest.approx(0.5 + np.trace(f1) / 2 + np.trace(f2) / 3)
        for f in lap.factors:
            assert abs(np.trace(f)) <= 1e-12 * f.shape[0]
        # same dense matrix either way
        dense = 0.5 * np.eye(6) + embed(0, f1, (2, 3)) + embed(1, f2, (2, 3))
        np.testing.assert_allclose(lap_to_dense(lap), dense, atol=1e-12)

    def test_adjacency_reconstruction_exact(self, adjacency6):
        lap = LaplacianLike((2, 3), 0.0, (ADJ6_X1, ADJ6_X2))
        np.testing.assert_array_equal(lap_to_dense(lap), adjacency6)

    def test_identity(self):
        lap = LaplacianLike.zeros((2, 3), alpha=1.0)
        np.testing.assert_array_equal(lap_to_dense(lap), np.eye(6))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            LaplacianLike((2, 3), alpha, (np.zeros((2, 2)), np.zeros((3, 3))))

    def test_dense_cap(self):
        lap = LaplacianLike.zeros((4, 4, 4), alpha=1.0)
        with mock.patch.dict(os.environ, {"KRONLAP_DENSE_CAP": "63"}):
            with pytest.raises(SizeLimitError):
                lap_to_dense(lap)


class TestLapMatvec:
    def test_identity_operator(self):
        lap = LaplacianLike.zeros((2, 3), alpha=1.0)
        x = np.arange(6.0)
        np.testing.assert_array_equal(lap_matvec(lap, x), x)

    def test_sparse30_all_ones(self, sparse30):
        lap = LaplacianLike(
            (2, 3, 5), SPARSE30_ALPHA, (SPARSE30_X1, SPARSE30_X2, SPARSE30_X3)
        )
        ones = np.ones(30)
        np.testing.assert_allclose(lap_matvec(lap, ones), sparse30 @ ones, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        lap = random_laplacian_like((3, 4, 5), rng)
        x = rng.standard_normal(60)
        dense = lap_to_dense(lap)
        got = lap_matvec(lap, x)
        np.testing.assert_allclose(got, dense @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("modes", [(5,), (2, 3), (3, 4, 5), (2, 3, 4, 5)], ids=str)
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_matches_dense_every_order(self, modes, strided):
        rng = np.random.default_rng(len(modes))
        lap = random_laplacian_like(modes, rng)
        x_big = rng.standard_normal(2 * lap.n)
        x = x_big[::2] if strided else x_big[: lap.n]
        np.testing.assert_allclose(
            lap_matvec(lap, x), lap_to_dense(lap) @ x, rtol=1e-12, atol=1e-12
        )

    def test_moderate_size_consistency(self):
        rng = np.random.default_rng(11)
        lap = random_laplacian_like((10, 10, 10), rng)
        x = rng.standard_normal(1000)
        np.testing.assert_allclose(
            lap_matvec(lap, x), lap_to_dense(lap) @ x, rtol=1e-12, atol=1e-10
        )

    def test_length_mismatch(self):
        lap = LaplacianLike.zeros((2, 3))
        with pytest.raises(ValueError):
            lap_matvec(lap, np.ones(5))

    def test_column_vector_rejected(self):
        with pytest.raises(ValueError, match=r"vector of length 6 expected, got shape \(6, 1\)"):
            lap_matvec(LaplacianLike.zeros((2, 3)), np.ones((6, 1)))


class TestLieBracket:
    def test_bracket_with_itself_is_zero(self):
        rng = np.random.default_rng(1)
        lap = random_laplacian_like((2, 3), rng)
        b = lie_bracket(lap, lap)
        assert b.alpha == 0.0
        for f in b.factors:
            np.testing.assert_allclose(f, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_commutator(self, seed):
        rng = np.random.default_rng(100 + seed)
        l1 = random_laplacian_like((2, 3), rng)
        l2 = random_laplacian_like((2, 3), rng)
        a, b = lap_to_dense(l1), lap_to_dense(l2)
        np.testing.assert_allclose(
            lap_to_dense(lie_bracket(l1, l2)), a @ b - b @ a, atol=1e-12
        )

    def test_commuting_diagonal_factors(self):
        d1 = LaplacianLike.from_factors((2, 3), (np.diag([1.0, -1.0]), np.diag([1.0, 0.0, -1.0])))
        d2 = LaplacianLike.from_factors((2, 3), (np.diag([2.0, -2.0]), np.diag([0.0, 1.0, -1.0])))
        b = lie_bracket(d1, d2)
        for f in b.factors:
            np.testing.assert_array_equal(f, np.zeros_like(f))

    def test_antisymmetry_and_jacobi(self):
        rng = np.random.default_rng(2)
        ls = [random_laplacian_like((2, 3), rng) for _ in range(3)]
        ab = lie_bracket(ls[0], ls[1])
        ba = lie_bracket(ls[1], ls[0])
        for f, g in zip(ab.factors, ba.factors):
            np.testing.assert_allclose(f, -g, atol=1e-10)
        j1 = lie_bracket(ls[0], lie_bracket(ls[1], ls[2]))
        j2 = lie_bracket(ls[1], lie_bracket(ls[2], ls[0]))
        j3 = lie_bracket(ls[2], lie_bracket(ls[0], ls[1]))
        total = lap_to_dense(j1) + lap_to_dense(j2) + lap_to_dense(j3)
        np.testing.assert_allclose(total, 0.0, atol=1e-10)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            lie_bracket(LaplacianLike.zeros((2, 3)), LaplacianLike.zeros((3, 2)))


class TestExponential:
    def test_exp_of_zero_is_identity(self):
        e = lap_exp(LaplacianLike.zeros((2, 3)))
        np.testing.assert_allclose(e.to_dense(), np.eye(6), atol=1e-14)

    def test_adjacency_factors_match_series(self, adjacency6):
        lap = LaplacianLike((2, 3), 0.0, (ADJ6_X1, ADJ6_X2))
        e = lap_exp(lap)
        np.testing.assert_allclose(e.to_dense(), dense_exp(adjacency6), atol=1e-10)

    def test_scalar_only(self):
        e = lap_exp(LaplacianLike.zeros((2, 3), alpha=1.0))
        np.testing.assert_allclose(e.to_dense(), np.e * np.eye(6), atol=1e-12)

    def test_dense_exp_zero(self):
        np.testing.assert_array_equal(dense_exp(np.zeros((3, 3))), np.eye(3))

    def test_dense_exp_diagonal(self):
        got = dense_exp(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(got, np.diag([np.e, np.e**2]), rtol=1e-12)

    def test_dense_exp_nilpotent(self):
        got = dense_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(got, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


# both factor forms run one set of factor checks
FACTOR_FORMS = [
    pytest.param(LaplacianLike.from_factors, id="LaplacianLike"),
    pytest.param(FactorGroupElement, id="FactorGroupElement"),
]


class TestFactorChecks:
    @pytest.mark.parametrize("make", FACTOR_FORMS)
    def test_factor_shape_checked(self, make):
        with pytest.raises(ValueError, match=r"^factor 0 must be 2x2, got \(3, 3\)$"):
            make((2, 3), (np.eye(3), np.eye(3)))

    @pytest.mark.parametrize("make", FACTOR_FORMS)
    def test_factor_count_checked(self, make):
        with pytest.raises(ValueError, match="^expected 2 factors, got 3$"):
            make((2, 3), (np.eye(2), np.eye(3), np.eye(3)))

    @pytest.mark.parametrize("make", FACTOR_FORMS)
    def test_rejects_non_finite(self, make):
        f = np.eye(3)
        f[2, 1] = np.nan
        with pytest.raises(ValueError, match="^factor 1 contains non-finite entries$"):
            make((2, 3), (np.eye(2), f))

    @pytest.mark.parametrize("make", FACTOR_FORMS)
    def test_factors_are_read_only_copies(self, make):
        f = np.eye(2)
        g = make((2, 2), (f, np.eye(2))).factors[0]
        assert g is not f and not g.flags.writeable
        f[0, 0] = 5.0
        assert g[0, 0] != 5.0


class TestFactorGroupElement:
    def test_rejects_singular_factor(self):
        with pytest.raises(SingularMatrixError):
            FactorGroupElement((2, 3), (np.zeros((2, 2)), np.eye(3)))

    def test_zero_pivot_tol_still_rejects_exact_zero_pivot(self):
        with mock.patch.object(kron_core, "_PIVOT_TOL", 0.0), pytest.raises(SingularMatrixError, match="factor 1") as err:
            FactorGroupElement((2, 2), (np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])))
        assert err.value.pivot == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-100])
    def test_pivot_test_is_relative_to_scale(self, scale):
        g = FactorGroupElement((2, 2), (scale * np.eye(2), np.eye(2)))
        np.testing.assert_array_equal(g.factors[0], scale * np.eye(2))
        with pytest.raises(SingularMatrixError, match="factor 0"):
            FactorGroupElement((2, 2), (scale * np.diag([1.0, 1e-15]), np.eye(2)))

    def test_kron_inverse_property(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        g = FactorGroupElement((2, 3), (a, b))
        dense = g.to_dense()
        np.testing.assert_allclose(
            np.linalg.inv(dense), np.kron(np.linalg.inv(a), np.linalg.inv(b)), atol=1e-10
        )


class TestRequireFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5)])
    def test_non_finite_rejected(self, bad, shape):
        m = np.zeros(shape)
        m.flat[-1] = bad
        with pytest.raises(ValueError, match="m contains non-finite entries"):
            _require_finite(m, "m")

    def test_finite_and_empty_accepted(self):
        _require_finite(np.array([-1e308, 1e308, 0.0]))
        _require_finite(np.zeros(0))
        _require_finite(np.zeros((0, 3)))

    def test_allocates_no_copy(self):
        m = np.ones((2048, 2048))
        tracemalloc.start()
        try:
            _require_finite(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * m.nbytes
