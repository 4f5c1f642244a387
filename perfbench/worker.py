"""One benchmark pass in a fresh interpreter: every job of a workload, once.

    python3 perfbench/worker.py --workload dense-search --seed 1 --trace 0 \
        --spawned-at "$(date +%s.%N)"

Each pass gets its own process, so every pass starts from the same state
(imports, caches and allocator history), as a CLI invocation does.  The
process first imports cubeineq and makes the first calls every CLI
invocation pays; the time from --spawned-at (the parent's wall clock when it
started this process) to that point is reported as the pass's set-up time.
With --trace 1 the package's public functions are wrapped for the pass (see
tracing.py), the spans are written to --spans, and the per-layer totals
derived from them are returned.  The last line of standard output is the
pass record as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# What one CLI invocation pays before its own work: the package import and
# the first calls into scipy.stats and scipy.optimize.
FIRST_CALLS = (["counterexample", "talagrand", "--n-list", "8,16"],
               ["counterexample", "pisier-constant", "--n-list", "10"])


def first_calls() -> int:
    import cubeineq.cli

    for argv in FIRST_CALLS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cubeineq.cli.main(argv)
        if status:
            return status
    return 0


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def library_facts() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def layer_totals(tracer, declared) -> dict:
    """Per-layer totals of a traced pass, with every declared metric present.

    A declared name the traced run cannot produce (say, a renamed function or
    hook) fails the pass; one it can produce but that saw no calls reads 0.
    """
    import layers
    import tracing

    unresolved = [name for name in declared if not layers.resolves(name, tracer.wrapped)]
    if unresolved:
        raise ValueError(f"per-layer metrics the traced run cannot produce: {unresolved}")
    totals = dict.fromkeys(declared, 0.0)
    totals.update(tracing.aggregate(tracer.spans, tracing.self_times(tracer.spans)))
    totals.update(tracer.counters)
    return totals


def run_pass(workload: str, seed: int, trace: bool, spans_path: str | None) -> dict:
    import layers
    import tracing
    import workloads

    jobs = workloads.WORKLOADS[workload](seed)
    tracer = tracing.Tracer(layers.MODULES, layers.HOOKS) if trace else None
    gc.collect()
    with tracer.installed() if tracer else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = []
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            results.append(workloads.run_job(job))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    record = {
        "traced": trace,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": [r.__dict__ for r in results],
        "known_failures": list(workloads.KNOWN_FAILURES.get(workload, ())),
    }
    if tracer is not None:
        spec = json.loads((SRC.parent / "BENCHMARK.json").read_text())
        record["layers"] = layer_totals(tracer, [m["name"] for m in spec["per_layer"]])
        record["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write_spans(spans_path, workload, wall0)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time (time.time()) at which this process was started")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    status = first_calls()
    ready = time.time()
    if status:
        print(f"perfbench worker: first calls exited {status}", file=sys.stderr)
        return 2
    record = run_pass(args.workload, args.seed, bool(args.trace), args.spans)
    record["setup_s"] = ready - args.spawned_at
    record["facts"] = library_facts()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
