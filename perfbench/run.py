"""kronlap benchmark: one workload per process, timed untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: kronlap is imported from ./src. After
one untimed warm-up pass, the workload repeats passes of its program calls for
S seconds, starting no pass that would end past them, checks every result, and
prints a report; the last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones in BENCHMARK.json, measured with
no tracing. With --trace 1 passes alternate untraced and traced, and the
metrics are the per-layer ones, taken from the spans of the traced passes.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_tmp")
# the keys of workloads.SIZES, which can only be imported after the BLAS pin
WORKLOAD_NAMES = ("grou_solve", "project_cli")

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kronlap; print(time.perf_counter() - t)"
)


def pin_blas_threads(threads):
    """Fix BLAS threading; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def import_program():
    """Import kronlap from the checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import kronlap

    if os.path.dirname(os.path.dirname(os.path.realpath(kronlap.__file__))) != os.path.realpath(SRC):
        raise ImportError(f"kronlap was imported from {kronlap.__file__}, not from {SRC}")


def import_seconds():
    """Time `import kronlap` in a fresh interpreter, as a user starting a script pays it."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def timed_setup(wl):
    """One set-up measurement: `import kronlap` in a fresh interpreter plus the workload's builders."""
    imp = import_seconds()
    t0 = perf_counter()
    wl.build()
    return imp + perf_counter() - t0


def summary(values):
    """Median, quartiles, sample count and the tail percentile the count supports.

    The tail is the highest percentile with at least ten samples beyond it;
    below twenty samples no percentile above the median qualifies.
    """
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n >= 2:
        q = statistics.quantiles(vals, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(vals, n=100)[pct - 1]
    return out


def environment(name, seed, seconds, trace, sizes):
    """Machine and run settings; results are comparable only when these match."""
    import kronlap
    import numpy
    import scipy

    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "kronlap": kronlap.__version__,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
    }


class Run:
    """Counts of attempted and failed operations plus the timing samples of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = {}
        self.stage_times = {}  # stage -> seconds of each successful untraced call
        self.untraced_pass = []
        self.traced_pass = []

    def run_pass(self, tracer=None, record=True):
        """Run and check every stage once; record the times unless `record` is false."""
        total = 0.0
        for stage, call, check in self.workload.stages():
            self.attempted += 1
            try:
                with tracer.span(f"bench.{stage}") if tracer else nullcontext():
                    t0 = perf_counter()
                    result = call()
                    dt = perf_counter() - t0
                results = check(result)
            except Exception:  # a raising program call is a failed operation, not a crash
                self.failed += 1
                self.failures.append(f"{stage}: {traceback.format_exc(limit=3)}")
                continue
            missed = [(label, v, lim) for label, v, lim in results if not v <= lim]
            for label, v, _ in results:
                self.checks.setdefault(label, []).append(v)
            if missed:
                self.failed += 1
                self.failures.append(f"{stage}: check missed {missed}")
                continue
            total += dt
            if record and tracer is None:
                self.stage_times.setdefault(stage, []).append(dt)
        if record:
            (self.untraced_pass if tracer is None else self.traced_pass).append(total)


def run_workload(name, seed, seconds, trace, sizes=None):
    """Run one workload and return (report, result) where result is the contract's JSON object."""
    import tracing
    import workloads

    sizes = sizes or workloads.SIZES[name]
    wl = workloads.Workload(seed, sizes, WORKDIR)
    try:
        wl.make_inputs()
        setup = [timed_setup(wl)]
        tracer = tracing.Tracer() if trace else None
        setup_spans = 0
        if trace:
            with tracer.patched():
                wl.build()
            setup_spans = len(tracer.spans)
        wl.prepare()

        run = Run(wl)
        run.run_pass(record=False)  # warm-up: first-call costs, caches
        pass_bounds = []  # [lo, hi) span index range of each traced pass
        counters = []
        start = perf_counter()
        deadline = start + seconds
        i = 0
        while True:
            if trace and i % 2 == 1:
                lo = len(tracer.spans)
                tracer.counters = {}
                with tracer.patched():
                    run.run_pass(tracer)
                pass_bounds.append((lo, len(tracer.spans)))
                counters.append(tracer.counters)
            else:
                run.run_pass()
            # set-up is sampled across the whole run, as the passes are
            setup.append(timed_setup(wl))
            i += 1
            now = perf_counter()
            # stop when another pass and set-up as long as the mean so far would overrun
            if now + (now - start) / i > deadline and (not trace or pass_bounds):
                break
    finally:
        wl.close()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "env": environment(name, seed, seconds, trace, sizes),
        "setup_s": summary(setup),
        "pass_s": summary(run.untraced_pass),
        "stages": {stage: summary(v) for stage, v in run.stage_times.items()},
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": {"failed": run.failed, "attempted": run.attempted,
                       "value": run.failed / run.attempted},
        "checks": {label: max(v) for label, v in run.checks.items()},
        "failures": run.failures,
    }
    if trace:
        layers = per_layer(tracer, setup_spans, pass_bounds, counters, run)
        report["per_layer"] = layers
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "pass_s": {"value": report["pass_s"]["median"], "unit": "s"},
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return report, result


def per_layer(tracer, setup_spans, pass_bounds, counters, run):
    """Per-layer metrics: medians over traced passes of per-pass aggregates."""
    import tracing

    def med(values):
        return statistics.median(values) if values else 0.0

    per_pass = [tracing.self_times(tracer.spans, lo, hi) for lo, hi in pass_bounds]

    def self_s(name):
        return med([p.get(name, (0.0, 0, []))[0] for p in per_pass])

    def calls(name):
        return med([p.get(name, (0.0, 0, []))[1] for p in per_pass])

    def counter(key):
        return med([c.get(key, 0.0) for c in counters])

    def module_self(module):
        return med([sum(v[0] for k, v in p.items() if k.split(".")[0] == module) for p in per_pass])

    matvec = [d for p in per_pass for d in p.get("kron_core.matvec", (0, 0, []))[2]]
    matvec_calls = calls("kron_core.matvec")
    sweep_total = med([sum(p.get("lap_project.project_delta_sweeps", (0, 0, []))[2]) for p in per_pass])
    sweeps = counter("lap_project.sweeps")
    read_s = self_s("mmio.read_matrix_market")
    write_s = self_s("mmio.write_matrix_market") + self_s("mmio.atomic_write_text")
    terms = counter("grou.terms")
    setup_times = tracing.self_times(tracer.spans, 0, setup_spans)
    untraced = med(run.untraced_pass)
    traced = med(run.traced_pass)
    modules = med([sum(v[0] for k, v in p.items() if not k.startswith("bench.")) for p in per_pass])

    out = {
        "grou.terms": (terms, "count"),
        "grou.als_calls": (calls("grou.als_rank_one"), "count"),
        "grou.apply_calls": (matvec_calls, "count"),
        "grou.applies_per_term": (matvec_calls / terms if terms else 0.0, "count"),
        "grou.als_s": (self_s("grou.als_rank_one"), "s"),
        "grou.direct_solve_s": (self_s("grou.direct_solve"), "s"),
        "grou.rel_residual": (counter("grou.rel_residual"), "ratio"),
        "grou.rel_err_ref": (max(run.checks.get("grou.rel_err_ref", [0.0])), "ratio"),
        "kron_core.matvec_s": (self_s("kron_core.matvec"), "s"),
        "kron_core.matvec_us": (statistics.median(matvec) * 1e6 if matvec else 0.0, "us"),
        "kron_core.matvec_flops_computed": (counter("kron_core.matvec_flops") / matvec_calls if matvec_calls else 0.0, "flop"),
        "kron_core.matvec_bytes_computed": (counter("kron_core.matvec_bytes") / matvec_calls if matvec_calls else 0.0, "B"),
        "kron_core.lap_to_dense_s": (self_s("kron_core.lap_to_dense"), "s"),
        "kron_core.embed_s": (self_s("kron_core.embed"), "s"),
        "kron_core.embed_calls": (calls("kron_core.embed"), "count"),
        "kron_core.partial_trace_s": (self_s("kron_core.partial_trace"), "s"),
        "kron_core.partial_trace_calls": (calls("kron_core.partial_trace"), "count"),
        "lap_project.project_laplacian_s": (self_s("lap_project.project_laplacian"), "s"),
        "lap_project.sweeps": (sweeps, "count"),
        "lap_project.sweep_s": (sweep_total / sweeps if sweeps else 0.0, "s"),
        "mmio.read_s": (read_s, "s"),
        "mmio.read_bytes": (counter("mmio.read_bytes"), "B"),
        "mmio.read_values_per_s": (counter("mmio.read_values") / read_s if read_s else 0.0, "1/s"),
        "mmio.write_s": (write_s, "s"),
        "mmio.write_bytes": (counter("mmio.write_bytes"), "B"),
        "cli.gen.self_s": (self_s("cli.gen"), "s"),
        "cli.decompose.self_s": (self_s("cli.decompose"), "s"),
        "cli.solve.self_s": (self_s("cli.solve"), "s"),
        "poisson.build_s": (setup_times.get("poisson.build_poisson", (0.0,))[0], "s"),
    }
    for module in tracing.MODULES:
        out[f"self.{module}_s"] = (module_self(module), "s")
    out["self.bench_s"] = (module_self("bench"), "s")
    out["trace.pass_s"] = (traced, "s")
    out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced if untraced else 0.0, "%")
    out["trace.unaccounted_pct"] = (100.0 * (untraced - modules) / untraced if untraced else 0.0, "%")
    spans = med([hi - lo for lo, hi in pass_bounds])
    cost = tracing.span_cost()
    out["trace.spans"] = (spans, "count")
    out["trace.span_cost_us"] = (cost * 1e6, "us")
    out["trace.span_overhead_pct"] = (100.0 * spans * cost / untraced if untraced else 0.0, "%")
    return {k: (float(v), unit) for k, (v, unit) in out.items()}


def print_report(report):
    env = report["env"]
    print(f"# kronlap benchmark: workload={env['workload']} seed={env['seed']} "
          f"seconds={env['seconds']} trace={env['trace']}")
    print("# env " + json.dumps(env))
    for key in ("setup_s", "pass_s"):
        print(f"# {key:18s} {_fmt(report[key])}")
    for stage, s in report["stages"].items():
        print(f"# {stage:18s} {_fmt(s)}")
    print(f"# {'peak_rss_mb':18s} {report['peak_rss_mb']:.1f} MB")
    fr = report["fail_ratio"]
    print(f"# {'fail_ratio':18s} {fr['value']:.4g} ({fr['failed']} failed of {fr['attempted']} attempted)")
    for label, v in report["checks"].items():
        print(f"# check {label:24s} worst {v:.3g}")
    for f in report["failures"]:
        print("# FAILED " + f.replace("\n", "\n#   "))
    for key, (v, unit) in report.get("per_layer", {}).items():
        print(f"# {key:36s} {v:.6g} {unit}")
    print("# report " + json.dumps(report, default=str))


def _fmt(s):
    text = f"median {s['median']:.4f} s  n={s['n']}"
    if "q1" in s:
        text += f"  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
    tail = [k for k in s if k.startswith("p") and k[1:].isdigit()]
    text += f"  {tail[0]} {s[tail[0]]:.4f}" if tail else "  (no tail percentile below 20 samples)"
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS thread pin, at most nproc (default 1)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        parser.error("--blas-threads must be between 1 and nproc")
    pin_blas_threads(args.blas_threads)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import kronlap from {SRC}: {exc}", file=sys.stderr)
        return 2
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
