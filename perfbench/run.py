"""cubeineq benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload dense-search --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports `cubeineq` from the
checkout's `src/` and refuses to run without it.  The workload's jobs, built
from the seed, run one at a time (a closed loop with one client), one pass
of the whole job list per fresh worker process (worker.py), pass after pass
while the next pass is expected to end within `--seconds`.
Every job checks its own output.

--trace 0 measures the end-to-end metrics: wall and CPU time per pass, peak
memory of the pass process, the share of jobs passing, and set-up time: how
long each fresh pass process takes to import cubeineq and make the first
calls a CLI invocation pays.  --trace 1 alternates untraced passes with traced
ones, in which every public function of the package is wrapped, and reports
per-layer self times and work counts.  Metric names and units come from
BENCHMARK.json.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record (machine facts, every pass and job) and the spans of traced passes
are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SRC

ROOT = SRC.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
PASS_TIMEOUT_S = 150


def run_worker(workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
    """One pass in a fresh process; returns its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--spawned-at", repr(time.time())]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts(library_facts: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **library_facts, "git_commit": commit, "src_sha256": digest.hexdigest()}


def summarize(passes, known, trace: bool, spec: dict) -> dict:
    """The run's metrics and result from its pass records.

    Every failed job counts in the error rate (and against pass_rate); only
    failures outside the recorded known ones make the run incorrect.
    """
    outcomes = [job for p in passes for job in p["jobs"]]
    errors = [job for job in outcomes if not job["ok"]]
    unexpected = [job for job in errors if job["name"] not in known]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        declared = spec["per_layer"]
        values = {m["name"]: statistics.median(p["layers"][m["name"]] for p in traced)
                  for m in declared}
        values["trace_overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                         / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    else:
        declared = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "pass_rate": 1.0 - len(errors) / len(outcomes),
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"error_rate": len(errors) / len(outcomes),
            "result": {"correct": not unexpected, "attempted": len(outcomes),
                       "failed": len(unexpected), "metrics": metrics}}


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    passes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(run_worker(workload, seed, False, None))
        if trace:
            spans = OUT / f"spans-{workload}-{len(passes) // 2}.jsonl"
            passes.append(run_worker(workload, seed, True, spans))
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    known = set(passes[0]["known_failures"])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_facts(passes[0]["facts"]), "passes": passes,
              "known_failures": sorted(known)}
    record.update(summarize(passes, known, trace, spec))
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    passes = record["passes"]
    untraced = [p for p in passes if not p["traced"]]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{len(untraced)} untraced and {len(passes) - len(untraced)} traced passes "
          f"of {len(passes[0]['jobs'])} jobs")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    errors = [job for p in passes for job in p["jobs"] if not job["ok"]]
    print(f"  {'error_rate':<48} {record['error_rate']:>16.6g} frac "
          f"({len(errors)} of {record['result']['attempted']} jobs failed; "
          f"recorded known failures: {', '.join(record['known_failures']) or 'none'})")
    for key in ("wall_s", "cpu_s", "setup_s"):
        values = sorted(p[key] for p in untraced)
        print(f"  {key} samples (n={len(values)}): " + " ".join(f"{v:.4f}" for v in values))
    for name, error in {job["name"]: job["error"] for job in errors}.items():
        print(f"  failed: {name}: {error[:160]}")
    print("  machine " + json.dumps(record["machine"], sort_keys=True))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubeineq" / "__init__.py").is_file():
        print(f"perfbench: no cubeineq sources under {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
