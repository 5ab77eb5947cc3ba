"""Spans around kronlap's public entry points, recorded from outside the package.

`Tracer.patched()` replaces each entry point in the namespace its callers look
it up in (a function imported into `kronlap.cli` is patched there as well as
in its home module), so calls made inside the package are seen too. Each span
holds [name, start, end, parent index]; spans stay in memory for the whole run.
The name's prefix before the first dot is the module the time is charged to.
"""

import importlib
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module the caller looks the name up in, attribute, span name)
PATCH_SITES = [
    ("kronlap.poisson", "build_poisson", "poisson.build_poisson"),
    ("kronlap.cli", "build_poisson", "poisson.build_poisson"),
    ("kronlap.grou", "grou", "grou.grou"),
    ("kronlap.cli", "grou", "grou.grou"),
    ("kronlap.grou", "als_rank_one", "grou.als_rank_one"),
    ("kronlap.grou", "direct_solve", "grou.direct_solve"),
    ("kronlap.cli", "direct_solve", "grou.direct_solve"),
    ("kronlap.kron_core", "lap_to_dense", "kron_core.lap_to_dense"),
    ("kronlap.lap_project", "lap_to_dense", "kron_core.lap_to_dense"),
    ("kronlap.cli", "lap_to_dense", "kron_core.lap_to_dense"),
    ("kronlap.kron_core", "embed", "kron_core.embed"),
    ("kronlap.lap_project", "embed", "kron_core.embed"),
    ("kronlap.lap_project", "partial_trace", "kron_core.partial_trace"),
    ("kronlap.lap_project", "mode_projection", "lap_project.mode_projection"),
    ("kronlap.lap_project", "project_laplacian", "lap_project.project_laplacian"),
    ("kronlap.cli", "project_laplacian", "lap_project.project_laplacian"),
    ("kronlap.lap_project", "laplacian_distance", "lap_project.laplacian_distance"),
    ("kronlap.cli", "laplacian_distance", "lap_project.laplacian_distance"),
    ("kronlap.lap_project", "project_delta_sweeps", "lap_project.project_delta_sweeps"),
    ("kronlap.cli", "project_delta_sweeps", "lap_project.project_delta_sweeps"),
    ("kronlap.cli", "read_matrix_market", "mmio.read_matrix_market"),
    ("kronlap.cli", "write_matrix_market", "mmio.write_matrix_market"),
    ("kronlap.cli", "atomic_write_text", "mmio.atomic_write_text"),
    ("kronlap.cli", "main", "cli"),
]

MODULES = ("kron_core", "grou", "lap_project", "mmio", "cli", "poisson")


def matvec_cost(modes) -> tuple[float, float]:
    """Computed (flops, bytes) of one structured apply, from array sizes alone.

    Per mode: a tensordot (2*N*n_i flops, reads x and the factor, writes N)
    and an accumulate (N flops, reads 2N, writes N); plus alpha*x (N flops,
    reads and writes N). Eight bytes per float; cache reuse is ignored.
    """
    n = float(np.prod(modes))
    flops = n + sum(2.0 * n * m + n for m in modes)
    words = 2.0 * n + sum(5.0 * n + m * m for m in modes)
    return flops, 8.0 * words


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent]
        self.counters = {}   # numbers the span results carry (terms, bytes, sweeps)
        self._stack = []

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _wrap_site(self, attr, name, fn):
        if attr == "grou":
            return self._wrap_grou(fn)
        if attr == "main":
            def main(argv=None):
                with self.span(f"cli.{argv[0]}"):
                    return fn(argv)
            return main
        traced = self.wrap(name, fn)
        if attr == "read_matrix_market":
            def read(path):
                out = traced(path)
                self.count("mmio.read_bytes", os.path.getsize(path))
                self.count("mmio.read_values", out.size)
                return out
            return read
        if attr in ("write_matrix_market", "atomic_write_text"):
            def write(path, *args, **kwargs):
                out = traced(path, *args, **kwargs)
                self.count("mmio.write_bytes", os.path.getsize(path))
                return out
            return write
        if attr == "project_delta_sweeps":
            def sweeps(*args, **kwargs):
                out = traced(*args, **kwargs)
                self.count("lap_project.sweeps", out.sweeps_used)
                return out
            return sweeps
        return traced

    def _wrap_grou(self, fn):
        """Trace grou and the `apply` of the operator instance it is given."""
        def grou(op, b, *args, **kwargs):
            op.apply = self.wrap("kron_core.matvec", op.apply)
            lo = len(self.spans)
            try:
                with self.span("grou.grou"):
                    report = fn(op, b, *args, **kwargs)
            finally:
                del op.apply
            self.count("grou.terms", report.terms_used)
            if op.laplacian is not None:
                calls = sum(1 for s in self.spans[lo:] if s[0] == "kron_core.matvec")
                flops, nbytes = matvec_cost(op.dims.modes)
                self.count("kron_core.matvec_flops", calls * flops)
                self.count("kron_core.matvec_bytes", calls * nbytes)
            b_norm = float(np.linalg.norm(b))
            rel = report.residual_history[-1] / b_norm if b_norm > 0 else 0.0
            self.counters["grou.rel_residual"] = max(self.counters.get("grou.rel_residual", 0.0), rel)
            return report
        return grou

    @contextmanager
    def patched(self):
        """Install the wrappers at every patch site; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in PATCH_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap_site(attr, name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def span_cost(calls=20000, reps=5):
    """Median seconds one traced call adds to a plain call, from a no-op loop."""
    def noop():
        return None

    traced = Tracer().wrap("calibrate", noop)
    costs = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        costs.append(((perf_counter() - t1) - (t1 - t0)) / calls)
    return max(float(np.median(costs)), 0.0)


def self_times(spans, lo=0, hi=None):
    """Per span name: (self seconds, calls, durations) over spans[lo:hi].

    A span's self time is its duration minus the durations of its children.
    """
    part = spans[lo:hi]
    if not part:
        return {}
    start = np.array([s[1] for s in part])
    dur = np.array([s[2] for s in part]) - start
    parent = np.array([s[3] for s in part]) - lo
    child = np.zeros(len(part))
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    own = dur - child
    out = {}
    for i, s in enumerate(part):
        rec = out.setdefault(s[0], [0.0, 0, []])
        rec[0] += own[i]
        rec[1] += 1
        rec[2].append(dur[i])
    return out
