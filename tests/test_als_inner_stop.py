"""GROU's relative ALS inner stop: accuracy against fast diagonalization, and scale."""

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kronlap import LinearOperator, build_poisson, grou, lap_to_dense

from conftest import random_laplacian_like
from oracles import poisson_by_fast_diagonalization

# the package's `grou` attribute is the solver function, which hides the module
grou_module = importlib.import_module("kronlap.grou")


@pytest.mark.parametrize("n, seeds", [(5, range(10)), (8, [0])])
def test_poisson_matches_fast_diagonalization_and_stop_fires(n, seeds):
    op = LinearOperator.from_laplacian(build_poisson(n).operator)
    for seed in seeds:
        b = np.random.default_rng(seed).standard_normal(n**3)
        report = grou(op, b)
        ref = poisson_by_fast_diagonalization(n, b)
        assert np.linalg.norm(report.x - ref) <= 1e-5 * np.linalg.norm(ref)
        assert len(report.als_sweeps) == report.terms_used
        assert all(1 <= s <= 15 for s in report.als_sweeps)
        assert sum(report.als_sweeps) < 15 * report.terms_used


@settings(max_examples=60, deadline=None)
@given(
    modes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    k=st.integers(-1000, 1000),
    dense=st.booleans(),
    rel_tol=st.sampled_from([0.0, grou_module._ALS_REL_TOL]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stop_does_not_depend_on_scale(modes, k, dense, rel_tol, seed):
    rng = np.random.default_rng(seed)
    lap = random_laplacian_like(tuple(modes), rng)
    op = LinearOperator.from_dense(lap_to_dense(lap), modes) if dense else LinearOperator.from_laplacian(lap)
    r = rng.standard_normal(op.n)
    s = 2.0**k
    assume(np.array_equal((s * r) / s, r))  # no entry of s * r is subnormal
    y = grou_module.als_rank_one(op, r, seed=seed, rel_tol=rel_tol)
    ys = grou_module.als_rank_one(op, s * r, seed=seed, rel_tol=rel_tol)
    assert ys.sweeps == y.sweeps
    np.testing.assert_array_equal(ys.factors[0], s * y.factors[0])
    for f, g in zip(ys.factors[1:], y.factors[1:]):
        np.testing.assert_array_equal(f, g)


def test_rel_tol_validated():
    op = LinearOperator.from_laplacian(build_poisson(2).operator)
    with pytest.raises(ValueError):
        grou_module.als_rank_one(op, np.ones(8), rel_tol=-1.0)
    with pytest.raises(ValueError):
        grou_module.als_rank_one(op, np.ones(8), rel_tol=float("nan"))
