"""burstcover benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload radius_large|cover_stream|verify_corpus
                             --seed N --seconds S --trace 0|1 [--size full|tiny]

Runs one fresh worker process per pass (perfbench/worker.py), one at a
time with one thread each, until about S seconds have passed, and
prints the metrics by name and unit.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, with times in reference
seconds: raw times scaled by the machine-speed probe of bench_speed, so
that the host's drift cancels.  Every pass runs the same queries in the
same order; a query's latency is the median of its scaled times over
the passes, wall_s is the sum of those latencies, and setup_s and
peak_rss_mb are medians over the passes.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics (means over the traced passes, so the layer self
times plus bench.unattributed_s add up to bench.traced_wall_s); the
spans go to perfbench/traces/<workload>-seed<N>.jsonl.gz.

Exit codes: 0 every check passed, 1 some check failed (the result line
is still printed), 2 the benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("radius_large", "cover_stream", "verify_corpus")
TIME_LIMIT_S = 170        # the whole run, set-up of every pass included
MIN_PASSES = {"full": 3, "tiny": 1}

# (name, unit); the names must match BENCHMARK.json
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
]
# layer spans recorded by bench_workloads, reported as <span>_s self time
LAYER_SPANS = [
    "radius.orbit", "radius.recheck", "radius.bounds", "radius.matrix", "radius.geometric",
    "field.tables", "field.primitive_moduli",
    "codes.make", "codes.parity_check",
    "covering.solver", "covering.cover", "covering.verify",
    "lfsr.orbit_reps",
    "charsums.pattern", "charsums.niederreiter", "charsums.wcu", "charsums.laurent",
    "corpus.build",
]
PER_LAYER = [(f"{name}_s", "s") for name in LAYER_SPANS] + [
    ("radius.orbit_calls", "count"),
    ("radius.orbit_states", "count"),
    ("radius.orbit_ns_per_state", "ns"),
    ("radius.matrix_calls", "count"),
    ("field.contexts", "count"),
    ("covering.queries", "count"),
    ("covering.iterations_mean", "count"),
    ("covering.iterations_p99", "count"),
    ("covering.verify_failed", "count"),
    ("charsums.cases", "count"),
    ("bench.unattributed_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
]
# span call counts reported as counts
CALL_COUNTS = {"radius.orbit_calls": "radius.orbit", "radius.matrix_calls": "radius.matrix",
               "field.contexts": "field.tables"}
# counters the workloads keep themselves
WORKLOAD_COUNTS = ["radius.orbit_states", "covering.queries", "covering.iterations_mean",
                   "covering.iterations_p99", "covering.verify_failed", "charsums.cases"]


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def pin_thread_pools() -> None:
    """Pin numpy's thread pools to one thread, here and in every worker."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def run_worker(workload, seed, size, trace_file, run_id, timeout_s) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--run-id", run_id]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {run_id} did not finish within {timeout_s:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {run_id} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace, size, trace_file):
    """Workers one after another; traced ones (trace=1) alternate with untraced.

    Returns the passes and, per query, its median scaled latency (ns)
    over the untraced passes.
    """
    passes = []
    lats = []
    start = time.monotonic()
    min_passes = MIN_PASSES[size] * (2 if trace else 1)
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.monotonic() - start
        t0 = time.monotonic()
        res = run_worker(workload, seed, size, trace_file if traced else None,
                         f"{workload}:{seed}:{len(passes)}", TIME_LIMIT_S - elapsed)
        res["traced"] = traced
        lat = res.pop("lat_ref_ns")
        if not traced:
            if lats and len(lat) != len(lats[0]):
                raise BenchError(f"pass {len(passes)} ran {len(lat)} queries, "
                                 f"an earlier pass {len(lats[0])}")
            lats.append(lat)
        passes.append(res)
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + last > TIME_LIMIT_S:
            break
        pair_done = traced or not trace
        if pair_done and len(passes) >= min_passes and elapsed + last > seconds:
            break
    return passes, [statistics.median(q) for q in zip(*lats)]


def end_to_end_metrics(passes, lat) -> dict:
    med = statistics.median
    wall_s = sum(lat) / 1e9
    ranked = sorted(lat)
    return {
        "wall_s": wall_s,
        "setup_s": med(p["setup_ref_s"] for p in passes),
        "peak_rss_mb": med(p["rss_mb"] for p in passes),
        "qps": len(lat) / wall_s,
        "query_p50_us": percentile(ranked, 0.50) / 1e3,
        "query_p99_us": percentile(ranked, 0.99) / 1e3,
    }


def per_layer_metrics(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    mean = statistics.fmean
    out = {f"{name}_s": mean(p["self_s"].get(name, 0.0) for p in traced) for name in LAYER_SPANS}
    for metric, span in CALL_COUNTS.items():
        out[metric] = mean(p["calls"].get(span, 0) for p in traced)
    for metric in WORKLOAD_COUNTS:
        out[metric] = mean(p["counts"].get(metric, 0) for p in traced)
    states = out["radius.orbit_states"]
    out["radius.orbit_ns_per_state"] = out["radius.orbit_s"] / states * 1e9 if states else 0.0
    traced_wall = mean(p["setup_s"] + p["wall_s"] for p in traced)
    untraced_wall = mean(p["setup_s"] + p["wall_s"] for p in untraced)
    layer_total = sum(out[f"{name}_s"] for name in LAYER_SPANS)
    out["bench.unattributed_s"] = traced_wall - layer_total
    out["bench.traced_wall_s"] = traced_wall
    out["bench.untraced_wall_s"] = untraced_wall
    out["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1
    unknown = {name for p in traced for name in p["self_s"]} - set(LAYER_SPANS)
    if unknown - {"bench.setup", "bench.pass"}:
        raise BenchError(f"spans without a layer metric: {sorted(unknown)}")
    return out


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, passes) -> dict:
    return {
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "inputs": passes[0]["inputs"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    pin_thread_pools()

    trace_file = None
    if args.trace:
        (HERE / "traces").mkdir(exist_ok=True)
        trace_file = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        trace_file.unlink(missing_ok=True)
    try:
        passes, lat = run_passes(args.workload, args.seed, args.seconds, args.trace,
                                  args.size, trace_file)
        if args.trace:
            metrics, units = per_layer_metrics(passes), dict(PER_LAYER)
        else:
            metrics, units = end_to_end_metrics(passes, lat), dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # the same inputs must give the same outputs on every pass
    for p in passes[1:]:
        attempted += 1
        if p["digest"] != passes[0]["digest"]:
            failed += 1
            p["messages"].append(f"outputs differ between passes: {p['digest']} != "
                                 f"{passes[0]['digest']}")
    for p in passes:
        for msg in p["messages"]:
            print(f"FAILED: {msg}", file=sys.stderr)

    print(json.dumps({"provenance": provenance(args, passes)}))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} ratio"
          f"   ({failed} of {attempted} checks and operations)")
    print("  per pass, raw (set-up + timed) s @ speed: " + " ".join(
        f"{p['setup_s']:.3f}+{p['wall_s']:.3f}@{p['speed']:.2f}{'T' if p['traced'] else ''}"
        for p in passes))
    if trace_file:
        print(f"  spans: {sum(p.get('spans', 0) for p in passes)} in "
              f"{trace_file.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
