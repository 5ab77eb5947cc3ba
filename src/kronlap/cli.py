"""Command-line surface: decompose, solve, gen.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 numerical failure.
All outputs are written atomically (temp file + rename), so a failing command
leaves no partial files. Report schemas are fixed; see docs/formats.md.
"""

import argparse
import json
import math
import sys

import numpy as np

from .errors import MatrixMarketError, SingularMatrixError
from .grou import RANK_MAX_REACHED, LinearOperator, direct_solve, grou
from .kron_core import (
    DimSplit, LaplacianLike, _as_square_matrix, _check_dense_cap, _scale_exponent, lap_to_dense,
)
from .lap_project import laplacian_distance
# unused here, but perfbench/tracing.py patches these names
from .lap_project import project_delta_sweeps, project_laplacian  # noqa: F401
from .mmio import atomic_write_text, read_matrix_market, write_matrix_market
from .poisson import build_poisson

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        modes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}")
    return modes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronlap",
        description="Decompose square matrices into identity-padded Kronecker sums "
        "and solve linear systems with the greedy rank-one update solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="project a matrix onto the Laplacian-like subspace")
    p.add_argument("--input", required=True, help="Matrix Market file with the square matrix")
    p.add_argument("--dims", required=True, type=_dims_arg, help="mode sizes, e.g. 2,3,5")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="membership threshold on the relative residual ||A - P||_F / ||A||_F "
                   "(default: that of the laplacian_distance function)")
    p.add_argument("--output", required=True, help="JSON report path")

    # a flag without a default that is not given is absent from args, so
    # _cmd_solve passes grou only the GROU flags given and grou's defaults hold
    p = sub.add_parser("solve", help="solve A x = b", argument_default=argparse.SUPPRESS,
                       description="--eps, --tol, --rank-max, --als-iter-max and --seed "
                       "default to those of the grou function")
    p.add_argument("--matrix", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--dims", required=True, type=_dims_arg)
    p.add_argument("--method", choices=["auto", "direct"], default="auto",
                   help="auto: greedy solver with structure detection; direct: band Cholesky for a "
                        "symmetric definite band, else dense pivoted LU")
    p.add_argument("--eps", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--rank-max", type=int)
    p.add_argument("--als-iter-max", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True, help="solution vector path (.mtx); "
                   "a JSON report is written next to it as <output>.json")

    p = sub.add_parser("gen", help="generate test matrices")
    p.add_argument("--kind", choices=["laplacian", "dense", "poisson"], required=True)
    p.add_argument("--dims", type=_dims_arg, help="required for laplacian and dense kinds")
    p.add_argument("--n", type=int, help="grid size for the poisson kind")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True,
                   help="output path; the poisson kind writes <output>_A.mtx, "
                   "<output>_b.mtx and <output>_exact.mtx")
    return parser


def _read_vector(path, n: int) -> np.ndarray:
    m = read_matrix_market(path)
    if 1 not in m.shape:
        raise ValueError(f"{path} must hold a vector (one row or column), got {m.shape}")
    v = m.reshape(-1)
    if v.size != n:
        raise ValueError(f"vector in {path} has length {v.size}, expected {n}")
    return v


def _cmd_decompose(args) -> int:
    a, dims = _as_square_matrix(read_matrix_market(args.input), args.dims)
    options = {"tol": args.tol} if "tol" in args else {}
    is_member, _, report = laplacian_distance(a, dims, **options)
    payload = {
        "dims": list(dims.modes),
        "alpha": report.projection.alpha,
        "factors": [f.tolist() for f in report.projection.factors],
        "residual_fro": report.residual_fro,
        "relative_residual": report.relative_residual,
        "is_member": is_member,
        "method": "closed_form",
        "sweeps_used": 0,
    }
    atomic_write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


_GROU_OPTIONS = ("eps", "tol", "rank_max", "als_iter_max", "seed")


def _cmd_solve(args) -> int:
    a, dims = _as_square_matrix(read_matrix_market(args.matrix), args.dims)
    b = _read_vector(args.rhs, dims.n)
    if args.method == "direct":
        x = direct_solve(a, b)
        method = stop = "direct"
        e = _scale_exponent(b)  # grou's scale, so both norms are finite at any scale of b
        terms = 0
        history = [math.ldexp(float(np.linalg.norm(np.ldexp(v, e))), -e) for v in (b, b - a @ x)]
    else:
        member, _, proj_report = laplacian_distance(a, dims)
        if member:
            op, method = LinearOperator.from_laplacian(proj_report.projection), "grou_laplacian"
        else:
            op, method = LinearOperator.from_dense(a, dims), "grou_dense"
        options = {k: v for k, v in vars(args).items() if k in _GROU_OPTIONS}
        report = grou(op, b, **options)
        x, terms, stop = report.x, report.terms_used, report.stop_reason
        history = report.residual_history  # history[0] is ||b||, up to rounding in an eigenbasis
    payload = {
        "dims": list(dims.modes),
        "method": method,
        "terms_used": terms,
        "stop_reason": stop,
        "residual_history": history,
        "relative_residual": history[-1] / history[0] if history[0] > 0 else 0.0,
    }
    write_matrix_market(args.output, x.reshape(-1, 1))
    atomic_write_text(str(args.output) + ".json", json.dumps(payload, indent=2) + "\n")
    if stop == RANK_MAX_REACHED:  # not an error: the solution and its report are written
        print(f"warning: GROU stopped on {stop} after {terms} terms at relative residual "
              f"{payload['relative_residual']:.3g}", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "poisson":
        if args.n is None:
            raise ValueError("--n is required for --kind poisson")
        size = args.n**3
    elif args.dims is None:
        raise ValueError(f"--dims is required for --kind {args.kind}")
    else:
        size = (dims := DimSplit(args.dims)).n
    _check_dense_cap(size)  # every kind writes a size x size matrix; checked before any is built
    if args.kind == "poisson":
        problem = build_poisson(args.n)
        prefix = str(args.output)
        write_matrix_market(f"{prefix}_A.mtx", lap_to_dense(problem.operator))
        write_matrix_market(f"{prefix}_b.mtx", problem.rhs.reshape(-1, 1))
        write_matrix_market(f"{prefix}_exact.mtx", problem.exact.reshape(-1, 1))
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    if args.kind == "dense":
        write_matrix_market(args.output, rng.uniform(size=(size, size)))
        return EXIT_OK
    factors = [rng.standard_normal((n, n)) for n in dims.modes]
    lap = LaplacianLike.from_factors(dims, factors, alpha=float(rng.standard_normal()))
    write_matrix_market(args.output, lap_to_dense(lap))
    return EXIT_OK


_DISPATCH = {
    "decompose": _cmd_decompose,
    "solve": _cmd_solve,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (MatrixMarketError, OSError) as exc:  # before ValueError: MatrixMarketError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SingularMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError:  # math.ldexp reading back a norm past the float64 range
        print("error: a norm exceeds the float64 range", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
