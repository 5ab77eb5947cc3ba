"""Self-test of the benchmark, at toy sizes; takes well under a minute.

    python3 perfbench/selftest.py

Checks that every workload runs correctly untraced and traced and prints
exactly the metric names and units BENCHMARK.json lists; that a corrupted
solution and a corrupted exit code each show up as failed operations; and
that run.py exits non-zero, printing no result, when the program's sources
are missing. Exits 0 when every check holds.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager

import run

SECONDS = 0.3


def expected_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@contextmanager
def patched(module_name, attr, replacement):
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def corrupt_solution(grou):
    def wrong(op, b, *args, **kwargs):
        report = grou(op, b, *args, **kwargs)
        report.x = report.x * 1.001
        return report
    return wrong


def corrupt_exit_code(main):
    def wrong(argv=None):
        rc = main(argv)
        return 3 if argv[0] == "solve" else rc
    return wrong


def toy_run(name, trace):
    import workloads

    _, result = run.run_workload(name, 0, SECONDS, trace, sizes=workloads.TOY_SIZES[name])
    return result


def missing_sources_exit():
    """Run run.py in a directory holding only BENCHMARK.json and perfbench/."""
    os.makedirs(run.WORKDIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.WORKDIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grou_solve",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=120)
        return out.returncode, out.stdout
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(run.WORKDIR)
        except OSError:
            pass


def main():
    run.pin_blas_threads(1)
    run.import_program()
    e2e, layers = expected_metrics()
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for name in run.WORKLOAD_NAMES:
        for trace, want in ((False, e2e), (True, layers)):
            result = toy_run(name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={int(trace)}: metric names and units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)}: correct, {result['failed']} of {result['attempted']} failed")

    with patched("kronlap.grou", "grou", corrupt_solution):
        result = toy_run("grou_solve", False)
    # two of the three stages of grou_solve call grou; the dense LU stage does not
    expect(not result["correct"] and 3 * result["failed"] == 2 * result["attempted"],
           f"corrupted solution: {result['failed']} of {result['attempted']} operations failed")

    with patched("kronlap.cli", "main", corrupt_exit_code):
        result = toy_run("project_cli", False)
    expect(not result["correct"] and 0 < result["failed"] < result["attempted"],
           f"corrupted exit code: {result['failed']} of {result['attempted']} operations failed")

    rc, stdout = missing_sources_exit()
    expect(rc != 0 and '"metrics"' not in stdout, f"missing sources: exit code {rc}, no result printed")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
