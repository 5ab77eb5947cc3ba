"""Check that the work counts repeat exactly, across processes and BLAS thread pins.

    python3 perfbench/count_check.py [--seed N] [--workloads a,b]

Runs each workload's traced pass twice under 1 BLAS thread and twice under 2
(each run a fresh process; a few minutes in all) and compares the counts.
Exits 0 when every count repeats; prints one JSON line with the counts.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOAD_NAMES  # noqa: E402

COUNTS = ("grou.terms", "grou.als_calls", "grou.apply_calls", "lap_project.sweeps",
          "kron_core.embed_calls", "kron_core.partial_trace_calls")


def traced_counts(workload, seed, threads):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1",
                          "--blas-threads", str(threads)],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in COUNTS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    args = parser.parse_args()
    threads = [t for t in (1, 2) if t <= (os.cpu_count() or 1)]
    result, ok = {}, True
    for workload in args.workloads.split(","):
        runs = {f"threads={t} rep={r}": traced_counts(workload, args.seed, t) for t in threads for r in (0, 1)}
        first = next(iter(runs.values()))
        same = all(c == first for c in runs.values())
        ok &= same
        print(f"{'ok  ' if same else 'DIFF'} {workload}: {first if same else runs}", flush=True)
        result[workload] = {"repeat": same, "counts": first if same else runs}
    print(json.dumps({"seed": args.seed, "threads": threads, "workloads": result}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
