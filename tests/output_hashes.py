"""Print one ``name sha256`` line per fixed GROU solve, to compare two source trees.

Each hash covers ``x.tobytes()``, then ``residual_history`` as float64, then
the JSON of [``als_sweeps``, ``rank_deficient_terms``, ``stop_reason``]; the
CLI draws hash the written solution file and its JSON sidecar. A change that
claims bit-identical output must print the same lines as its parent:

    PYTHONPATH=<parent>/src python tests/output_hashes.py > parent.txt
    PYTHONPATH=src python tests/output_hashes.py > change.txt
    cmp parent.txt change.txt

BLAS builds round differently, so the hashes are compared between runs on one
machine, never against fixed values. The file name keeps pytest from
collecting it.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import kronlap
from kronlap import LaplacianLike, LinearOperator, build_poisson, grou, write_matrix_market
from kronlap import cli

grou_module = importlib.import_module("kronlap.grou")


def report_hash(report) -> str:
    h = hashlib.sha256(report.x.tobytes())
    h.update(np.asarray(report.residual_history, dtype=np.float64).tobytes())
    tail = [report.als_sweeps, report.rank_deficient_terms, report.stop_reason]
    h.update(json.dumps(tail).encode())
    return h.hexdigest()


def solves():
    """Yield (name, operator, b) for each in-process draw."""
    for modes in ((2, 3, 4), (5, 5, 5)):
        d = len(modes)
        for seed in range(3):
            for symmetric in (False, True):
                rng = np.random.default_rng(seed)
                factors = [rng.standard_normal((n, n)) for n in modes]
                if symmetric:
                    factors = [f + f.T for f in factors]
                lap = LaplacianLike.from_factors(modes, factors, alpha=2 * d + 3)
                b = rng.standard_normal(lap.n)
                name = f"factors-{'x'.join(map(str, modes))}-seed{seed}" + "-sym" * symmetric
                yield name, LinearOperator.from_laplacian(lap), b
    rng = np.random.default_rng(7)
    a = rng.standard_normal((24, 24)) + 10 * np.eye(24)
    yield "dense-24", LinearOperator.from_dense(a, (2, 3, 4)), rng.standard_normal(24)
    for n in (5, 8):
        lap = build_poisson(n).operator
        b = np.random.default_rng(1).standard_normal(lap.n)
        yield f"poisson-{n}-eigenbasis", LinearOperator.from_laplacian(lap), b
        yield f"poisson-{n}-qr", grou_module._LaplacianOperator(lap), b


def cli_files(workdir: Path):
    """Yield (name, bytes) of the solution and sidecar of each gen -> solve draw."""
    for dims in ("2,3,4", "5,5,5", "3,4"):
        stem = workdir / f"laplacian-{dims.replace(',', 'x')}"
        a, b, x = (f"{stem}{suffix}" for suffix in ("_A.mtx", "_b.mtx", "_x.mtx"))
        n = int(np.prod([int(m) for m in dims.split(",")]))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            codes = [
                cli.main(["gen", "--kind", "laplacian", "--seed", "3", "--dims", dims, "--output", a]),
                write_matrix_market(b, np.random.default_rng(1).standard_normal((n, 1))),
                cli.main(["solve", "--matrix", a, "--rhs", b, "--dims", dims, "--output", x]),
            ]
        if codes != [0, None, 0]:
            raise SystemExit(f"gen -> solve on dims {dims} failed: {err.getvalue()}")
        yield f"cli-{stem.name}-x", Path(x).read_bytes()
        yield f"cli-{stem.name}-json", Path(f"{x}.json").read_bytes()


def main() -> None:
    print(f"kronlap from {Path(kronlap.__file__).parent}", file=sys.stderr)
    for name, op, b in solves():
        print(name, report_hash(grou(op, b)))
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in cli_files(Path(tmp)):
            print(name, hashlib.sha256(data).hexdigest())


if __name__ == "__main__":
    main()
