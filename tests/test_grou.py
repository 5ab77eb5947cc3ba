import importlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kronlap import (
    DimSplit,
    LaplacianLike,
    LinearOperator,
    RankOneVector,
    RESIDUAL_BELOW_EPS,
    STAGNATION,
    SingularMatrixError,
    SizeLimitError,
    als_rank_one,
    build_poisson,
    direct_solve,
    grou,
    lap_to_dense,
)
from kronlap import kron_core

from conftest import LAYOUTS, random_laplacian_like
from oracles import (
    bandwidths_by_nonzeros,
    ldl_by_elimination,
    lu_by_dense_factor,
    mode_matrix_by_kron,
    mode_weights_by_scalar_seed,
    rank_one_by_kron,
)

# the package's `grou` attribute is the solver function, which hides the module
grou_module = importlib.import_module("kronlap.grou")


def identity_op(modes):
    return LinearOperator.from_laplacian(LaplacianLike.zeros(modes, alpha=1.0))


class TestRankOneVector:
    def test_normalization(self):
        v = RankOneVector((2, 3), (np.array([2.0, 0.0]), np.array([0.0, 3.0, 4.0])))
        assert np.linalg.norm(v.factors[1]) == pytest.approx(1.0)
        np.testing.assert_allclose(v.to_vector(), np.kron([2.0, 0.0], [0.0, 3.0, 4.0]))

    def test_zero_representation(self):
        v = RankOneVector((2, 3), (np.array([1.0, 1.0]), np.zeros(3)))
        np.testing.assert_array_equal(v.factors[0], np.zeros(2))
        assert np.linalg.norm(v.factors[1]) == pytest.approx(1.0)
        np.testing.assert_array_equal(v.to_vector(), np.zeros(6))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RankOneVector((2, 3), (np.ones(3), np.ones(3)))
        with pytest.raises(ValueError, match="^expected 2 factor vectors, got 3$"):
            RankOneVector((2, 3), (np.ones(2), np.ones(3), np.ones(1)))

    @pytest.mark.parametrize("k", [-1070, -700, 700, 1000])
    def test_factor_far_from_unit_size_is_kept(self, k):
        # the plain norm of 2^k * ones(3) underflows to 0 or overflows to inf
        v = RankOneVector((2, 3), (np.ones(2), 2.0**k * np.ones(3)))
        np.testing.assert_array_equal(v.factors[1], np.ones(3) / np.sqrt(3.0))
        np.testing.assert_array_equal(v.factors[0], np.sqrt(3.0) * 2.0**k * np.ones(2))

    def test_norms_far_from_unit_size_do_not_overflow_their_product(self):
        # the norms 2^601 of ones(4) * 2^600 multiply to 2^1202, past the float range
        v = RankOneVector((2, 4, 4), (2.0**-900 * np.ones(2), 2.0**600 * np.ones(4), 2.0**600 * np.ones(4)))
        np.testing.assert_array_equal(v.factors[0], np.full(2, 2.0**302))
        np.testing.assert_array_equal(v.to_vector(), np.full(32, 2.0**300))

    @settings(max_examples=100, deadline=None)
    @given(modes=st.lists(st.integers(2, 4), min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1))
    def test_normalization_bit_equal_to_plain_norms(self, modes, seed):
        rng = np.random.default_rng(seed)
        fs = [rng.standard_normal(m) for m in modes]
        norms = [np.linalg.norm(f) for f in fs[1:]]
        v = RankOneVector(tuple(modes), tuple(fs))
        for f, g, m in zip(v.factors[1:], fs[1:], norms):
            assert f.tobytes() == (g / m).tobytes()
        assert v.factors[0].tobytes() == (fs[0] * np.prod(norms)).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        # DimSplit admits a mode of size 1 only when d = 1
        modes=st.lists(st.integers(1, 4), min_size=1, max_size=1)
        | st.lists(st.integers(2, 4), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_to_vector_is_bit_equal_to_kron_chain(self, modes, seed):
        rng = np.random.default_rng(seed)
        v = RankOneVector(tuple(modes), tuple(rng.standard_normal(m) for m in modes))
        assert v.to_vector().tobytes() == rank_one_by_kron(v.factors).tobytes()


class TestLinearOperator:
    def test_from_dense_validates_size(self):
        with pytest.raises(ValueError):
            LinearOperator.from_dense(np.eye(5), (2, 3))

    def test_bad_constructions(self):
        with pytest.raises(ValueError, match="matrix is 7x7 but dims 2,3 require size 6x6"):
            LinearOperator.from_dense(np.ones((7, 7)), (2, 3))

    def test_laplacian_is_the_form_or_none(self):
        lap = LaplacianLike.zeros((2, 3), alpha=1.0)
        assert LinearOperator.from_laplacian(lap).laplacian is lap
        assert LinearOperator.from_dense(np.eye(6), (2, 3)).laplacian is None

    @pytest.mark.parametrize("dense", [False, True])
    def test_instance_apply_is_what_grou_calls(self, dense):
        # a tracer wraps the instance's apply for one solve, then deletes it
        problem = build_poisson(3)
        lap = problem.operator
        op = dense_twin(lap) if dense else LinearOperator.from_laplacian(lap)
        expected = op.apply(problem.rhs)
        calls = []
        plain = op.apply

        def counted(x):
            calls.append(1)
            return plain(x)

        op.apply = counted
        report = grou(op, np.random.default_rng(0).standard_normal(27), rank_max=5)
        assert len(calls) == report.terms_used > 0
        del op.apply
        assert op.apply.__func__ is type(op).apply
        assert op.apply(problem.rhs).tobytes() == expected.tobytes()

    def test_apply_checks_the_vector_on_both_kinds(self):
        lap = LaplacianLike.zeros((2, 3), alpha=1.0)
        for op in (LinearOperator.from_dense(np.eye(6), (2, 3)), LinearOperator.from_laplacian(lap)):
            for x in (np.ones(7), np.ones((6, 1))):
                message = re.escape(f"vector of length 6 expected, got shape {x.shape}")
                with pytest.raises(ValueError, match=f"^{message}$"):
                    op.apply(x)

    def test_kinds_agree(self):
        rng = np.random.default_rng(0)
        lap = random_laplacian_like((2, 3), rng)
        dense_op = LinearOperator.from_dense(lap_to_dense(lap), (2, 3))
        struct_op = LinearOperator.from_laplacian(lap)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(dense_op.apply(x), struct_op.apply(x), atol=1e-12)

    def test_linearity_probe(self):
        rng = np.random.default_rng(1)
        op = LinearOperator.from_dense(rng.standard_normal((6, 6)), (2, 3))
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        a, b = 1.3, -0.7
        np.testing.assert_allclose(
            op.apply(a * x + b * y), a * op.apply(x) + b * op.apply(y), rtol=1e-10, atol=1e-10
        )


class TestAlsRankOne:
    def test_iter_max_validated(self):
        with pytest.raises(ValueError, match="^iter_max must be at least 1$"):
            als_rank_one(identity_op((2, 3)), np.ones(6), iter_max=0)

    def test_recovers_exact_rank_one(self):
        u = np.array([1.0, -2.0])
        v = np.array([0.5, 1.0, 2.0])
        r = np.kron(u, v)
        y = als_rank_one(identity_op((2, 3)), r, iter_max=15, seed=0)
        assert np.linalg.norm(r - y.to_vector()) <= 1e-12

    def test_best_rank_one_matches_svd(self):
        rng = np.random.default_rng(42)
        r = rng.standard_normal(20)
        y = als_rank_one(identity_op((4, 5)), r, iter_max=500, seed=1)
        achieved = np.linalg.norm(r - y.to_vector()) ** 2
        sigma = np.linalg.svd(r.reshape(4, 5), compute_uv=False)
        assert achieved == pytest.approx(np.sum(sigma[1:] ** 2), abs=1e-8)

    def test_zero_residual(self):
        y = als_rank_one(identity_op((2, 3)), np.zeros(6))
        np.testing.assert_array_equal(y.to_vector(), np.zeros(6))

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
    def test_residual_far_from_unit_size(self, scale):
        # the norm of r underflowed (the zero vector came back) or overflowed
        op = LinearOperator.from_laplacian(build_poisson(4).operator)
        r = np.random.default_rng(0).standard_normal(64)
        y = als_rank_one(op, r)
        ys = als_rank_one(op, scale * r)
        assert ys.sweeps == y.sweeps
        np.testing.assert_allclose(ys.to_vector() / scale, y.to_vector(), rtol=1e-12)

    def test_objective_never_worse_than_zero_fit(self):
        rng = np.random.default_rng(3)
        op = LinearOperator.from_dense(rng.standard_normal((12, 12)), (3, 4))
        r = rng.standard_normal(12)
        y = als_rank_one(op, r, iter_max=5, seed=0)
        assert np.linalg.norm(r - op.apply(y.to_vector())) <= np.linalg.norm(r) + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_residual_rejected(self, bad):
        rng = np.random.default_rng(10)
        lap = random_laplacian_like((2, 3), rng, alpha=5.0)
        r = rng.standard_normal(6)
        r[4] = bad
        for op in (LinearOperator.from_laplacian(lap), dense_twin(lap)):
            with pytest.raises(ValueError, match="residual contains non-finite entries"):
                als_rank_one(op, r)

    def test_rank_deficient_flag(self):
        # operator that annihilates everything in mode 1 except e0 direction
        a = np.zeros((6, 6))
        a[0, 0] = 1.0
        op = LinearOperator.from_dense(a, (2, 3))
        y = als_rank_one(op, np.ones(6), iter_max=3, seed=0)
        assert y.rank_deficient


class TestGrou:
    def test_zero_rhs(self):
        rep = grou(identity_op((2, 3)), np.zeros(6))
        assert rep.terms_used == 0
        assert rep.stop_reason == RESIDUAL_BELOW_EPS
        np.testing.assert_array_equal(rep.x, np.zeros(6))
        assert rep.residual_history == [0.0]

    def test_identity_rank_one_rhs_single_term(self):
        b = np.kron([1.0, 2.0], [3.0, -1.0, 0.5])
        rep = grou(identity_op((2, 3)), b)
        assert rep.terms_used == 1
        assert rep.stop_reason == RESIDUAL_BELOW_EPS
        assert rep.residual_history[-1] <= 1e-12
        np.testing.assert_allclose(rep.x, b, atol=1e-12)

    def test_term_that_raises_the_residual_is_refused(self):
        # the fit sees I, the instance apply -I, so the first term doubles the residual
        b = np.kron([1.0, 2.0], [3.0, -1.0, 0.5])
        op = identity_op((2, 3))
        op.apply = lambda v: -v
        rep = grou(op, b)
        assert rep.stop_reason == STAGNATION
        assert rep.terms_used == 0
        np.testing.assert_array_equal(rep.x, np.zeros(6))
        assert rep.residual_history == [float(np.linalg.norm(b))]

    def test_history_monotone_and_consistent(self):
        rng = np.random.default_rng(5)
        lap = random_laplacian_like((3, 4), rng, alpha=8.0)  # well conditioned
        op = LinearOperator.from_laplacian(lap)
        b = rng.standard_normal(12)
        rep = grou(op, b, eps=1e-10, tol=1e-14, rank_max=60)
        hist = np.array(rep.residual_history)
        assert np.all(np.diff(hist) <= 0.0)
        final = np.linalg.norm(b - op.apply(rep.x))
        assert final == pytest.approx(hist[-1], rel=1e-10, abs=1e-12)

    def test_dense_and_structured_paths_agree(self):
        rng = np.random.default_rng(6)
        lap = random_laplacian_like((2, 3), rng, alpha=6.0)
        b = rng.standard_normal(6)
        rep_dense = grou(LinearOperator.from_dense(lap_to_dense(lap), (2, 3)), b, seed=3)
        rep_struct = grou(LinearOperator.from_laplacian(lap), b, seed=3)
        assert len(rep_dense.residual_history) == len(rep_struct.residual_history)
        np.testing.assert_allclose(
            rep_dense.residual_history, rep_struct.residual_history, rtol=0, atol=1e-10
        )

    def test_stagnation_reported_not_raised(self):
        # singular operator: residual along the kernel can never be removed
        a = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        op = LinearOperator.from_dense(a, (2, 3))
        rep = grou(op, np.ones(6), eps=1e-12, tol=1e-9, rank_max=50)
        assert rep.stop_reason == STAGNATION

    def test_validation(self):
        with pytest.raises(ValueError):
            grou(identity_op((2, 3)), np.ones(5))
        with pytest.raises(ValueError):
            grou(identity_op((2, 3)), np.ones(6), eps=0.0)
        with pytest.raises(ValueError, match="^rank_max must be at least 1$"):
            grou(identity_op((2, 3)), np.ones(6), rank_max=0)

    @pytest.mark.parametrize("stop", ["eps", "tol"])
    def test_nan_stop_rejected(self, stop):
        # a NaN eps or tol never fires, so the solve ran on past its stop
        with pytest.raises(ValueError, match="eps and tol must be positive"):
            grou(identity_op((2, 3)), np.ones(6), **{stop: float("nan")})


def dense_twin(lap):
    return LinearOperator.from_dense(lap_to_dense(lap), lap.dims)


def finite_vectors(n):
    # the oracle's 0-d zeros seed turns an image's -0.0 into 0.0 (an equal value
    # with other bits), so no -0.0 is drawn: x + 0.0 maps it to 0.0
    values = st.floats(-1e3, 1e3, allow_subnormal=False).map(lambda x: x + 0.0)
    return st.lists(values, min_size=n, max_size=n).map(np.array)


class TestStructuredModeStep:
    @settings(max_examples=200, deadline=None)
    @given(modes=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data())
    def test_mode_weights_bit_equal_to_scalar_seed(self, modes, data):
        k = data.draw(st.integers(0, len(modes) - 1), label="k")
        factors = [data.draw(finite_vectors(m), label="factor") for m in modes]
        images = [data.draw(finite_vectors(m), label="image") for m in modes]
        w, s = grou_module._mode_weights(factors, images, k)
        w_ref, s_ref = mode_weights_by_scalar_seed(factors, images, k)
        assert w.tobytes() == w_ref.tobytes()
        assert s.tobytes() == s_ref.tobytes()

    @pytest.mark.parametrize("modes", [(7,), (2, 3), (3, 2, 4), (2, 3, 2, 2)])
    def test_matches_dense_path(self, modes):
        rng = np.random.default_rng(len(modes))
        lap = random_laplacian_like(modes, rng, alpha=2.0 * len(modes) + 3.0 + rng.uniform())
        b = rng.standard_normal(lap.n)
        rep_struct = grou(LinearOperator.from_laplacian(lap), b, seed=4)
        rep_dense = grou(dense_twin(lap), b, seed=4)
        assert rep_struct.terms_used == rep_dense.terms_used >= 1
        np.testing.assert_allclose(
            rep_struct.residual_history, rep_dense.residual_history, rtol=0, atol=1e-10
        )

    def test_zero_operator_stagnates(self):
        op = LinearOperator.from_laplacian(LaplacianLike.zeros((2, 3), alpha=0.0))
        rep = grou(op, np.ones(6))
        assert rep.stop_reason == STAGNATION
        assert rep.terms_used == 0
        np.testing.assert_array_equal(rep.x, np.zeros(6))

    def test_ill_conditioned_matches_dense(self):
        # A_1 = 0 makes the mode-0 matrix w0 (x) C_0 with cond(C_0) = 2e10
        lap = LaplacianLike.from_factors(
            (2, 3), [np.diag([1.0, -1.0]), np.zeros((3, 3))], alpha=1.0 + 1e-10
        )
        assert np.linalg.cond(lap_to_dense(lap)) > 1e9
        b = np.kron([1.0, 0.0], np.random.default_rng(0).standard_normal(3))
        rep_struct = grou(LinearOperator.from_laplacian(lap), b, seed=2)
        rep_dense = grou(dense_twin(lap), b, seed=2)
        assert rep_struct.terms_used == rep_dense.terms_used
        np.testing.assert_allclose(
            rep_struct.residual_history, rep_dense.residual_history, rtol=0, atol=1e-10
        )

    def test_singular_operator_counts_rank_deficient_terms(self):
        lap = LaplacianLike.from_factors(
            (2, 3), [np.diag([1.0, -1.0]), np.zeros((3, 3))], alpha=1.0
        )
        b = np.kron([1.0, 0.0], np.random.default_rng(0).standard_normal(3))
        for op in (LinearOperator.from_laplacian(lap), dense_twin(lap)):
            rep = grou(op, b, seed=2)
            assert rep.stop_reason == RESIDUAL_BELOW_EPS
            assert rep.rank_deficient_terms == rep.terms_used == 1
            assert type(rep.rank_deficient_terms) is int

    def test_well_conditioned_solve_is_not_rank_deficient(self):
        rng = np.random.default_rng(8)
        lap = random_laplacian_like((3, 4), rng, alpha=8.0)
        rep = grou(LinearOperator.from_laplacian(lap), rng.standard_normal(12))
        assert rep.terms_used >= 1
        assert rep.rank_deficient_terms == 0

    def test_separable_poisson_one_term(self):
        problem = build_poisson(10)
        rep = grou(LinearOperator.from_laplacian(problem.operator), problem.rhs, rank_max=1)
        assert rep.terms_used == 1
        ref = direct_solve(lap_to_dense(problem.operator), problem.rhs)
        assert np.linalg.norm(rep.x - ref) <= 1e-10 * np.linalg.norm(ref)
        # N = 32768 is above the dense cap, so only the residual is checked
        problem = build_poisson(32)
        with pytest.raises(SizeLimitError):
            lap_to_dense(problem.operator)
        rep = grou(LinearOperator.from_laplacian(problem.operator), problem.rhs, rank_max=1)
        assert rep.terms_used == 1
        assert rep.residual_history[-1] <= 1e-13 * rep.residual_history[0]

    @settings(max_examples=200, deadline=None)
    @given(
        modes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        data=st.data(),
        with_s=st.booleans(),
        singular=st.booleans(),
        shrink=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_matches_lstsq_oracle(self, modes, data, with_s, singular, shrink, seed):
        k = data.draw(st.integers(0, len(modes) - 1), label="k")
        rng = np.random.default_rng(seed)
        n_k, n = modes[k], int(np.prod(modes))
        c = rng.standard_normal((n_k, n_k))
        c[:, 0] *= 10.0**-shrink  # cond(C) past 1e8, still far from the cutoff 1 / (eps N)
        if singular:  # zero columns make w (x) C, with s = 0, exactly rank deficient
            c[:, rng.permutation(n_k)[: rng.integers(1, n_k + 1)]] = 0.0
        factors = [rng.standard_normal(m) for m in modes]
        images = [
            rng.standard_normal((m, m)) @ y if with_s else np.zeros(m)
            for m, y in zip(modes, factors)
        ]
        w, s = grou_module._mode_weights(factors, images, k)
        r_k = rng.standard_normal((n_k, n // n_k))
        sol, objective, deficient = grou_module._structured_step(c, np.eye(n_k), w, s, r_k, True)
        # the objective is optional work: leaving it out changes nothing else
        sol_only, none, deficient_only = grou_module._structured_step(
            c, np.eye(n_k), w, s, r_k, False
        )
        np.testing.assert_array_equal(sol_only, sol)
        assert none is None and deficient_only == deficient

        m = mode_matrix_by_kron(c, w, s)
        ref, _, rank, sigma = np.linalg.lstsq(m, r_k.reshape(-1), rcond=None)
        ref_objective = np.linalg.norm(r_k.reshape(-1) - m @ ref)
        assert deficient == (rank < n_k)
        if singular and not (with_s and len(modes) > 1):
            assert deficient
        # Both routes are backward stable: each solves a problem whose matrix
        # is off by at most d_m = gamma ||[w s]|| ||[C; I]|| and whose
        # right-hand side by d_b = gamma ||r_k||. Over the kept singular values
        # its solution then lies within (d_b + d_m ||x||) / sigma_r +
        # d_m ||res|| / sigma_r^2 of the exact one, to first order (Higham,
        # Accuracy and Stability, Thm 20.1); d_m <= sigma_r / 4 keeps the
        # higher-order terms below that first-order bound.
        gamma = 10 * n * n_k * np.finfo(float).eps
        d_m = gamma * np.linalg.norm([w, s]) * np.linalg.norm(np.vstack([c, np.eye(n_k)]))
        d_b = gamma * np.linalg.norm(r_k)
        x_norm = np.linalg.norm(ref)
        if rank == 0:
            np.testing.assert_array_equal(sol, 0.0)
            bound = 0.0
        else:
            sigma_r = sigma[rank - 1]
            assert d_m <= 0.25 * sigma_r
            bound = 2 * ((d_b + d_m * x_norm) / sigma_r + d_m * ref_objective / sigma_r**2)
            assert np.linalg.norm(sol - ref) <= 2 * bound  # each route within `bound`
        # objective: ||M|| ||sol - ref|| plus the rounding of each residual evaluation
        assert abs(objective - ref_objective) <= sigma[0] * 2 * bound + 2 * (d_b + d_m * x_norm)


class TestDirectSolve:
    def test_identity(self):
        b = np.arange(4.0)
        np.testing.assert_array_equal(direct_solve(np.eye(4), b), b)

    def test_diagonal(self):
        x = direct_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
        b = rng.standard_normal(20)
        x = direct_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_raises_with_pivot(self):
        with pytest.raises(SingularMatrixError) as err:
            direct_solve(np.zeros((3, 3)), np.ones(3))
        assert err.value.pivot is not None
        assert err.value.pivot <= 1e-12

    def test_near_singular_detected(self):
        a = np.eye(3)
        a[2, 2] = 1e-15
        with pytest.raises(SingularMatrixError):
            direct_solve(a, np.ones(3))

    @pytest.mark.parametrize("a", [np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 0.0, 2.0])])
    def test_zero_pivot_tol_still_rejects_exact_zero_pivot(self, a):
        # the 2 x 2 matrix takes the dense path, the diagonal one the band path
        with mock.patch.object(kron_core, "_PIVOT_TOL", 0.0), pytest.raises(SingularMatrixError) as err:
            direct_solve(a, np.ones(a.shape[0]))
        assert err.value.pivot == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-100])
    @pytest.mark.parametrize(
        "a, near",
        [
            (np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])),
            (np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 1e-15])),
        ],
    )
    def test_pivot_test_is_relative_to_scale(self, a, near, scale):
        # dense path for the 2 x 2 pair, band path for the diagonal pair
        b = np.ones(a.shape[0])
        x = direct_solve(scale * a, b)
        np.testing.assert_allclose(scale * x, np.linalg.solve(a, b), rtol=1e-13)
        with pytest.raises(SingularMatrixError):
            direct_solve(scale * near, b)

    @pytest.mark.parametrize("kind", ["cholesky", "band", "dense"])
    def test_no_dense_cap_on_held_arrays(self, kind, monkeypatch):
        # the cap bounds arrays kronlap builds; a 125 x 125 array the caller holds is solved under cap 64
        rng = np.random.default_rng(5)
        a = {
            "cholesky": lap_to_dense(build_poisson(5).operator),
            "band": tridiagonal(rng.uniform(3.0, 4.0, 125)) + 2.0 * np.eye(125, k=1),
            "dense": rng.standard_normal((125, 125)) + 125.0 * np.eye(125),
        }[kind]
        b = rng.standard_normal(125)
        x_ref = lu_by_dense_factor(a, b)[0]
        monkeypatch.setenv("KRONLAP_DENSE_CAP", "64")
        calls = spy_factorizations(monkeypatch)
        x = direct_solve(a, b)
        assert [c[0] for c in calls] == [kind]
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("a, message", [
        (np.ones(6), r"^matrix must be 2-dimensional, got ndim=1$"),
        (np.ones((6, 3)), r"^matrix must be square, got shape \(6, 3\)$"),
    ], ids=["1-D", "non-square"])
    def test_rejects_a_non_square_matrix(self, a, message):
        with pytest.raises(ValueError, match=message):
            direct_solve(a, np.ones(6))

    def test_empty_system_is_singular(self):
        with pytest.raises(SingularMatrixError) as err:
            direct_solve(np.zeros((0, 0)), np.zeros(0))
        assert err.value.pivot == 0.0

    def test_column_vector_rejected(self):
        op = identity_op((2, 3))
        column = np.ones((6, 1))
        with pytest.raises(ValueError, match="right-hand side of length 6"):
            direct_solve(np.eye(6), column)
        with pytest.raises(ValueError, match="right-hand side of length 6"):
            grou(op, column)
        with pytest.raises(ValueError, match="residual of length 6"):
            als_rank_one(op, column)

    @pytest.mark.parametrize("a", [np.eye(8), np.random.default_rng(9).standard_normal((8, 8))])
    def test_non_finite_rhs_rejected(self, a):
        # the identity takes the band path, the full matrix the dense one
        b = np.ones(8)
        b[3] = np.nan
        with pytest.raises(ValueError, match="right-hand side"):
            direct_solve(a, b)


def spy_factorizations(mp):
    """Record each band Cholesky (kd), band LU (kl, ku) or dense LU that direct_solve runs."""
    calls = []
    lapack = scipy.linalg.lapack
    cholesky, band, dense = lapack.dpbtrf, lapack.dgbtrf, scipy.linalg.lu_factor

    def cholesky_spy(ab, **kwargs):
        calls.append(("cholesky", ab.shape[0] - 1))
        return cholesky(ab, **kwargs)

    def band_spy(ab, kl, ku, **kwargs):
        calls.append(("band", kl, ku))
        return band(ab, kl, ku, **kwargs)

    def dense_spy(a, **kwargs):
        calls.append(("dense",))
        return dense(a, **kwargs)

    mp.setattr(lapack, "dpbtrf", cholesky_spy)
    mp.setattr(lapack, "dgbtrf", band_spy)
    mp.setattr(scipy.linalg, "lu_factor", dense_spy)
    return calls


def factorizations_for(values):
    """The factorizations direct_solve runs on ``values``, in order, by its dispatch rule."""
    n = values.shape[0]
    kl, ku = bandwidths_by_nonzeros(values)
    if 2 * kl + ku + 1 > n:
        return [("dense",)]
    diag = np.diag(values)
    if not (np.array_equal(values, values.T) and (diag.min() > 0.0 or diag.max() < 0.0)):
        return [("band", kl, ku)]
    d, _ = ldl_by_elimination(np.sign(diag[0]) * values)
    if d.min() > 0.0:
        return [("cholesky", kl)]
    return [("cholesky", kl), ("band", kl, ku)]


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), with u the unit roundoff taken as eps."""
    eps = np.finfo(float).eps
    return k * eps / (1 - k * eps)


def tridiagonal(diag, off=-1.0):
    n = len(diag)
    return np.diag(np.asarray(diag, float)) + off * (np.eye(n, k=1) + np.eye(n, k=-1))


class TestBandDirectSolve:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )
    def test_matches_dense_lu(self, n, data, seed, layout):
        kl = data.draw(st.integers(0, n - 1), label="kl")
        ku = data.draw(st.integers(0, n - 1), label="ku")
        zero_rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="zero_rows")
        rng = np.random.default_rng(seed)
        i, j = np.indices((n, n))
        values = np.where((i - j <= kl) & (j - i <= ku), rng.standard_normal((n, n)), 0.0)
        values[zero_rows] = 0.0
        a = LAYOUTS[layout](values)
        b = rng.standard_normal(n)
        x_ref, pivots, lu_norm = lu_by_dense_factor(values, b)
        # Higham, Accuracy and Stability, Thm 9.4: LU with these pivots solves
        # (A + dA) x = b with |dA| <= gamma_3n |L||U|
        gamma = 3 * n * np.finfo(float).eps / (1 - 3 * n * np.finfo(float).eps)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_factorizations(mp)
            with mock.patch.object(kron_core, "_PIVOT_TOL", np.inf):  # every solve reports its min pivot
                with pytest.raises(SingularMatrixError) as err:
                    direct_solve(a, b)
            # same pivot rows, so each |u_ii| differs by rounding only
            assert abs(err.value.pivot - pivots.min()) <= 2 * gamma * lu_norm
            if pivots.min() == 0.0 or pivots.min() <= kron_core._PIVOT_TOL * pivots.max():
                with pytest.raises(SingularMatrixError):
                    direct_solve(a, b)
            else:
                x = direct_solve(a, b)
                inv_norm = np.linalg.norm(np.linalg.inv(values), np.inf)
                bound = 2 * gamma * inv_norm * lu_norm * (np.abs(x).max() + np.abs(x_ref).max())
                assert np.abs(x - x_ref).max() <= bound
        # iid entries are symmetric only on a diagonal band, where the
        # Cholesky pivots are |a_ii| and partial pivoting reorders nothing
        assert set(calls) == set(factorizations_for(values))
        np.testing.assert_array_equal(a, values)  # the caller's matrix is never written

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, band", [((0, 12), True), ((39, 0), False)])
    def test_non_finite_far_off_diagonal_raises(self, bad, where, band):
        a = 2.0 * np.eye(40) - np.eye(40, k=1) - np.eye(40, k=-1)
        a[where] = bad
        kl, ku = bandwidths_by_nonzeros(a)  # NaN and inf count as nonzero
        assert (2 * kl + ku + 1 <= 40) == band
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            direct_solve(a, np.ones(40))

    def test_exactly_singular_band_raises(self):
        a = 2.0 * np.eye(20) - np.eye(20, k=1) - np.eye(20, k=-1)
        a[:, 7] = 0.0
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_factorizations(mp)
            with pytest.raises(SingularMatrixError) as err:
                direct_solve(a, np.ones(20))
        assert calls == [("band", 1, 1)]
        assert err.value.pivot == 0.0

    def test_poisson_takes_band_path_and_full_matrix_dense(self, monkeypatch):
        calls = spy_factorizations(monkeypatch)
        problem = build_poisson(8)
        direct_solve(lap_to_dense(problem.operator), problem.rhs)
        assert calls == [("cholesky", 64)]
        calls.clear()
        rng = np.random.default_rng(4)
        direct_solve(rng.standard_normal((40, 40)) + 40.0 * np.eye(40), rng.standard_normal(40))
        assert calls == [("dense",)]


class TestBandCholesky:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        sign=st.sampled_from([1.0, -1.0]),
        dominant=st.booleans(),
        layout=st.sampled_from(sorted(LAYOUTS)),
    )
    def test_symmetric_band_matches_dense_lu(self, n, data, seed, sign, dominant, layout):
        kd = data.draw(st.integers(0, (n - 1) // 3), label="kd")  # 3kd + 1 <= n: a band path
        rng = np.random.default_rng(seed)
        i, j = np.indices((n, n))
        lower = np.where((i > j) & (i - j <= kd), rng.standard_normal((n, n)), 0.0)
        off = lower + lower.T
        diag = rng.uniform(0.5, 1.5, n)
        if dominant:  # strictly diagonally dominant, so definite
            diag += np.abs(off).sum(axis=1)
        values = off + np.diag(sign * diag)
        a = LAYOUTS[layout](values)
        b = rng.standard_normal(n)
        x_ref, lu_pivots, lu_norm = lu_by_dense_factor(values, b)
        d, unit_lower = ldl_by_elimination(sign * values)
        # Higham, Accuracy and Stability, Thm 10.3: the pivots of either route
        # are those of A + dA with |dA| <= gamma_(n+1) |L| |D| |L|^T, and dA
        # moves pivot k by w^T dA w, where w = L^-T e_k
        ldl_abs = np.abs(unit_lower) @ np.diag(np.abs(d)) @ np.abs(unit_lower).T
        w = np.abs(scipy.linalg.solve_triangular(unit_lower, np.eye(d.size), lower=True, unit_diagonal=True))
        pivot_err = 2 * _gamma(n + 1) * np.einsum("ki,ij,kj->k", w, ldl_abs, w)
        assume(np.all(np.abs(d) > pivot_err))  # rounding cannot flip any pivot's sign
        definite = d.min() > 0.0
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_factorizations(mp)
            with mock.patch.object(kron_core, "_PIVOT_TOL", np.inf):  # every solve reports its min pivot
                with pytest.raises(SingularMatrixError) as err:
                    direct_solve(a, b)
            assert calls == factorizations_for(values)
            inv_norm = np.linalg.norm(np.linalg.inv(values), np.inf)
            if definite:
                assert abs(err.value.pivot - d.min()) <= pivot_err.max()
                pivots = d
                # Higham Thm 10.4: the Cholesky solve is exact for A + dA with
                # |dA| <= gamma_(3n+1) |R^T| |R| = gamma_(3n+1) |L| D |L|^T
                own_err = _gamma(3 * n + 1) * np.linalg.norm(ldl_abs, np.inf)
            else:
                # band LU: the same pivot rows as the dense LU (Thm 9.4)
                assert abs(err.value.pivot - lu_pivots.min()) <= 2 * _gamma(3 * n) * lu_norm
                pivots = lu_pivots
                own_err = _gamma(3 * n) * lu_norm
            if pivots.min() <= kron_core._PIVOT_TOL * pivots.max():
                with pytest.raises(SingularMatrixError):
                    direct_solve(a, b)
            else:
                x = direct_solve(a, b)
                ref_err = _gamma(3 * n) * lu_norm
                bound = 2 * inv_norm * (own_err * np.abs(x).max() + ref_err * np.abs(x_ref).max())
                assert np.abs(x - x_ref).max() <= bound
        np.testing.assert_array_equal(a, values)  # the caller's matrix is never written

    def test_mixed_sign_diagonal_takes_band_lu(self, monkeypatch):
        a = tridiagonal([4.0, -4.0] * 10)
        b = np.arange(20.0)
        calls = spy_factorizations(monkeypatch)
        x = direct_solve(a, b)
        assert calls == [("band", 1, 1)]
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-13)

    # in the leading rows, in the middle, and in the trailing kd x kd block
    @pytest.mark.parametrize("where", [(0, 2), (2, 0), (9, 10), (18, 19), (19, 17)])
    def test_one_ulp_asymmetry_takes_band_lu(self, monkeypatch, where):
        a = tridiagonal(np.full(20, 5.0)) - 0.5 * (np.eye(20, k=2) + np.eye(20, k=-2))
        a[where] = np.nextafter(a[where], 0.0)
        calls = spy_factorizations(monkeypatch)
        x = direct_solve(a, np.ones(20))
        assert calls == [("band", 2, 2)]
        np.testing.assert_allclose(x, np.linalg.solve(a, np.ones(20)), rtol=1e-13)

    def test_failed_cholesky_falls_back_to_band_lu(self, monkeypatch):
        a = -tridiagonal(np.full(30, 2.5), off=1.0)  # negative definite
        b = np.linspace(-1.0, 1.0, 30)
        x_cholesky = direct_solve(a, b)
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", lambda ab, **kwargs: (ab, 1))
        calls = spy_factorizations(monkeypatch)
        x = direct_solve(a, b)
        assert calls == [("cholesky", 1), ("band", 1, 1)]
        lu, piv = grou_module._band_lu(a, 1, 1)
        np.testing.assert_array_equal(x, scipy.linalg.lapack.dgbtrs(lu, 1, 1, b, piv)[0])
        np.testing.assert_allclose(x, x_cholesky, rtol=1e-13)

    def test_singular_neumann_matrix_raises(self, monkeypatch):
        # the 1-D Neumann Laplacian: symmetric, positive diagonal, null vector ones
        a = tridiagonal([1.0] + [2.0] * 18 + [1.0])
        calls = spy_factorizations(monkeypatch)
        with pytest.raises(SingularMatrixError) as err:
            direct_solve(a, np.ones(20))
        assert calls == [("cholesky", 1), ("band", 1, 1)]  # its last Cholesky pivot is 0
        assert err.value.pivot == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_symmetric_band_raises(self, monkeypatch, bad):
        a = tridiagonal(np.full(20, 3.0))
        a[4, 5] = a[5, 4] = bad
        calls = spy_factorizations(monkeypatch)
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            direct_solve(a, np.ones(20))
        assert calls == []

    def test_peak_memory_below_band_lu_storage(self):
        # the band is copied once, into (kd + 1) x N Cholesky storage; band LU
        # would need (3kd + 1) x N, and a row-band copy N x (2kd + 1)
        problem = build_poisson(12)
        a = lap_to_dense(problem.operator)
        n = a.shape[0]
        kd = 12 * 12  # neighbours along the slowest mode are n^2 apart
        direct_solve(a, problem.rhs)  # load scipy outside the traced call
        tracemalloc.start()
        try:
            direct_solve(a, problem.rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (2 * kd + 1) * 8 < (3 * kd + 1) * n * 8
