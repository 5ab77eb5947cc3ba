"""The two benchmark workloads, each made of two parts.

Each part builds its inputs from the seed, times its program calls one by
one (a stage each), and checks every result against the benchmark's own
reference in `reference.py`. A workload runs its parts' stages in one pass.
Program functions are looked up on their module at call time, so the tracer
and the self-test can patch them.

A check is (label, value, limit); it passes when value <= limit.
"""

import hashlib
import importlib
import json
import os
import shutil
import tempfile

import numpy as np

import kronlap.cli as kcli
import kronlap.kron_core as kcore
import kronlap.lap_project as kproj
import kronlap.poisson as kpoisson
import reference

# `kronlap.grou` the attribute is the function the package re-exports; take the module.
kgrou = importlib.import_module("kronlap.grou")

# Relative 2-norm error of every GROU solution against the fast-diagonalization
# reference. GROU stops near a relative residual of 2e-6, which gives errors of
# 2e-14 (one-term separable case) to 1e-6 (n = 5) and 3e-6 (n = 8) for a
# Gaussian right-hand side.
GROU_REF_TOL = 1e-5
DIRECT_REF_TOL = 1e-9          # dense LU against the same reference
FACTOR_TOL = 1e-9              # projection factors, relative to the largest entry
RESIDUAL_TOL = 1e-6            # relative difference of projection residuals

# workload -> part -> sizes
SIZES = {
    "grou_solve": {
        "poisson_separable": {"n_grou": 32, "n_direct": 16},
        "grou_manyterm": {"n": 5},
    },
    "project_cli": {
        "project_dense": {"dims": (8, 8, 8, 8), "noise": 1e-3, "sweeps": 5},
        "cli_roundtrip": {"n": 8},
    },
}

TOY_SIZES = {
    "grou_solve": {
        "poisson_separable": {"n_grou": 6, "n_direct": 4},
        "grou_manyterm": {"n": 3},
    },
    "project_cli": {
        "project_dense": {"dims": (2, 3, 2, 3), "noise": 1e-3, "sweeps": 3},
        "cli_roundtrip": {"n": 3},
    },
}


def _grou_checks(report, b, ref):
    return [
        ("grou.rel_err_ref", reference.rel_err(report.x, ref), GROU_REF_TOL),
        ("grou.rel_residual", report.residual_history[-1] / float(np.linalg.norm(b)), GROU_REF_TOL),
    ]


class Part:
    """Call order: make_inputs (untimed), build (timed set-up), prepare
    (untimed references), then passes over stages() with a build after each,
    then close. A repeated build must leave what the stages use equal."""

    def __init__(self, seed, sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def make_inputs(self):
        pass

    def build(self):
        pass

    def close(self):
        pass


class PoissonSeparable(Part):
    """GROU on the separable sine right-hand side; dense LU on a smaller grid."""

    def build(self):
        self.big = kpoisson.build_poisson(self.sizes["n_grou"])
        self.small = kpoisson.build_poisson(self.sizes["n_direct"])
        self.op = kgrou.LinearOperator.from_laplacian(self.big.operator)

    def prepare(self):
        self.ref_big = reference.poisson_solve(self.big.n, reference.poisson_rhs(self.big.n))
        self.ref_small = reference.poisson_solve(self.small.n, reference.poisson_rhs(self.small.n))

    def stages(self):
        return [("solve_s", self.solve, self.check_solve), ("direct_s", self.direct, self.check_direct)]

    def solve(self):
        return kgrou.grou(self.op, self.big.rhs)

    def check_solve(self, report):
        return _grou_checks(report, self.big.rhs, self.ref_big)

    def direct(self):
        return kgrou.direct_solve(kcore.lap_to_dense(self.small.operator), self.small.rhs)

    def check_direct(self, x):
        return [("direct.rel_err_ref", reference.rel_err(x, self.ref_small), DIRECT_REF_TOL)]


class GrouManyTerm(Part):
    """GROU on the Poisson operator with a seeded Gaussian right-hand side."""

    def make_inputs(self):
        self.b = np.random.default_rng(self.seed).standard_normal(self.sizes["n"] ** 3)

    def build(self):
        self.op = kgrou.LinearOperator.from_laplacian(kpoisson.build_poisson(self.sizes["n"]).operator)

    def prepare(self):
        self.ref = reference.poisson_solve(self.sizes["n"], self.b)

    def stages(self):
        return [("manyterm_solve_s", self.solve, self.check_solve)]

    def solve(self):
        return kgrou.grou(self.op, self.b)

    def check_solve(self, report):
        return _grou_checks(report, self.b, self.ref)


class ProjectDense(Part):
    """Closed-form projection, membership test and sweeps on a noisy member."""

    def make_inputs(self):
        self.dims = tuple(self.sizes["dims"])
        self.rng = np.random.default_rng(self.seed)
        self.factors = [self.rng.standard_normal((n, n)) for n in self.dims]
        self.alpha = float(self.rng.standard_normal())

    def build(self):
        # repeated during the run; the stages use `a`, made once from the first member
        self.member = None  # free the previous repetition's matrix first
        lap = kcore.LaplacianLike.from_factors(self.dims, self.factors, alpha=self.alpha)
        self.member = kcore.lap_to_dense(lap)

    def prepare(self):
        self.a = self.rng.standard_normal(self.member.shape)
        self.a *= self.sizes["noise"]
        self.a += self.member
        self.ref_alpha, self.ref_factors, self.ref_rel = reference.projection(self.a, self.dims)
        self.shifted = self.a - self.ref_alpha * np.eye(self.a.shape[0])

    def stages(self):
        return [
            ("project_s", self.project, self.check_project),
            ("distance_s", self.distance, self.check_distance),
            ("sweeps_s", self.run_sweeps, self.check_sweeps),
        ]

    def project(self):
        return kproj.project_laplacian(self.a, self.dims)

    def check_project(self, rep):
        p = rep.projection
        return [
            ("project.factor_err", reference.max_rel_diff([p.alpha, *p.factors], [self.ref_alpha, *self.ref_factors]), FACTOR_TOL),
            ("project.residual_err", abs(rep.relative_residual - self.ref_rel) / self.ref_rel, RESIDUAL_TOL),
        ]

    def distance(self):
        return kproj.laplacian_distance(self.a, self.dims)

    def check_distance(self, res):
        return [
            ("distance.is_member", float(res.is_member), 0.0),
            ("distance.residual_err", abs(res.relative_residual - self.ref_rel) / self.ref_rel, RESIDUAL_TOL),
        ]

    def run_sweeps(self):
        return kproj.project_delta_sweeps(self.shifted, self.dims, iter_max=self.sizes["sweeps"])

    def check_sweeps(self, rep):
        ref_abs = self.ref_rel * float(np.linalg.norm(self.a))
        return [
            ("sweeps.factor_err", reference.max_rel_diff(rep.projection.factors, self.ref_factors), FACTOR_TOL),
            ("sweeps.residual_err", abs(rep.residual_fro - ref_abs) / ref_abs, RESIDUAL_TOL),
        ]


class CliRoundTrip(Part):
    """`gen`, `decompose` and `solve` through `kronlap.cli.main`, in a scratch directory."""

    def make_inputs(self):
        self.n = self.sizes["n"]
        self.digests = None
        os.makedirs(self.workdir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=self.workdir)
        self.prefix = os.path.join(self.tmp, "poisson")
        self.dims_arg = ",".join([str(self.n)] * 3)

    def prepare(self):
        s = reference.dirichlet_stencil(self.n)
        self.ref_alpha, self.ref_factors = reference.canonical([s, s, s])
        self.ref_b = reference.poisson_rhs(self.n)
        self.ref_x = reference.poisson_solve(self.n, self.ref_b)

    def stages(self):
        return [
            ("cli_gen_s", self.gen, self.check_gen),
            ("cli_decompose_s", self.decompose, self.check_decompose),
            ("cli_solve_s", self.solve, self.check_solve),
        ]

    def _path(self, name):
        return os.path.join(self.tmp, name)

    def gen(self):
        return kcli.main(["gen", "--kind", "poisson", "--n", str(self.n), "--seed", str(self.seed),
                          "--output", self.prefix])

    def check_gen(self, rc):
        checks = [("gen.exit_code", float(rc), 0.0)]
        if rc != 0:
            return checks
        files = [f"{self.prefix}_{part}.mtx" for part in ("A", "b", "exact")]
        digests = []
        for path in files:
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        if self.digests is None:
            # first pass: compare the files' contents with the reference
            a = reference.read_mm_array(files[0])
            b = reference.read_mm_array(files[1]).reshape(-1)
            checks.append(("gen.matrix_err", reference.max_rel_diff([a], [reference.poisson_dense(self.n)]), FACTOR_TOL))
            checks.append(("gen.rhs_err", reference.max_rel_diff([b], [self.ref_b]), FACTOR_TOL))
            self.digests = digests
        checks.append(("gen.files_changed", float(digests != self.digests), 0.0))
        return checks

    def decompose(self):
        return kcli.main(["decompose", "--input", f"{self.prefix}_A.mtx", "--dims", self.dims_arg,
                          "--output", self._path("decompose.json")])

    def check_decompose(self, rc):
        checks = [("decompose.exit_code", float(rc), 0.0)]
        if rc == 0:
            with open(self._path("decompose.json")) as fh:
                rep = json.load(fh)
            got = [rep["alpha"], *(np.array(f) for f in rep["factors"])]
            checks.append(("decompose.not_member", float(not rep["is_member"]), 0.0))
            checks.append(("decompose.factor_err", reference.max_rel_diff(got, [self.ref_alpha, *self.ref_factors]), FACTOR_TOL))
        return checks

    def solve(self):
        return kcli.main(["solve", "--matrix", f"{self.prefix}_A.mtx", "--rhs", f"{self.prefix}_b.mtx",
                          "--dims", self.dims_arg, "--seed", str(self.seed), "--output", self._path("x.mtx")])

    def check_solve(self, rc):
        checks = [("solve.exit_code", float(rc), 0.0)]
        if rc == 0:
            x = reference.read_mm_array(self._path("x.mtx")).reshape(-1)
            checks.append(("grou.rel_err_ref", reference.rel_err(x, self.ref_x), GROU_REF_TOL))
        # the next pass's gen must write every file afresh
        for name in os.listdir(self.tmp):
            os.unlink(self._path(name))
        return checks

    def close(self):
        if hasattr(self, "tmp"):
            shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(self.workdir)
        except OSError:
            pass


PARTS = {
    "poisson_separable": PoissonSeparable,
    "grou_manyterm": GrouManyTerm,
    "project_dense": ProjectDense,
    "cli_roundtrip": CliRoundTrip,
}


class Workload:
    """The parts named in `sizes`, run one after another with the same interface."""

    def __init__(self, seed, sizes, workdir):
        self.parts = [PARTS[name](seed, part_sizes, workdir) for name, part_sizes in sizes.items()]

    def make_inputs(self):
        for part in self.parts:
            part.make_inputs()

    def build(self):
        for part in self.parts:
            part.build()

    def prepare(self):
        for part in self.parts:
            part.prepare()

    def stages(self):
        return [stage for part in self.parts for stage in part.stages()]

    def close(self):
        for part in self.parts:
            part.close()
