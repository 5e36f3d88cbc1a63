"""One benchmark pass in a fresh process: set up, run the fixed input set once.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
                                [--trace-file PATH] [--run-id ID]

Prints one JSON object.  run.py starts one worker per pass, so every
pass pays set-up with cold caches, as a command-line user does.  Set-up
and every query latency are given both raw and scaled to the reference
speed of bench_speed.  With --trace-file the pass records spans and
appends them to that file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXIT_NO_SOURCES = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace-file")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    if not (SRC / "burstcover" / "__init__.py").is_file():
        print(f"burstcover sources not found under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCES
    sys.path.insert(0, str(SRC))
    from bench_speed import ProbedLatencies, probe_ns, scale
    from bench_trace import NullTracer, Tracer

    tr = Tracer(args.run_id) if args.trace_file else NullTracer()
    probe_before = probe_ns()
    t_start = perf_counter()
    with tr.span("bench.setup"):
        import bench_workloads as bw  # imports burstcover: part of set-up

        gate = bw.Gate()
        wl = bw.WORKLOADS[args.workload](args.seed, args.size)
        wl.setup(tr, gate)
    setup_s = perf_counter() - t_start
    setup_scale = scale(probe_before, probe_ns())
    wl.make_queries()

    lat = ProbedLatencies()
    t_pass = perf_counter()
    with tr.span("bench.pass"):
        wl.run_pass(tr, gate, lat)
    t_end = perf_counter()

    import numpy

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * setup_scale,
        "wall_s": t_end - t_pass,  # raw, probes included
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # in query order, the same order in every pass
        "lat_ref_ns": lat.scaled(),
        "speed": lat.speed(),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "messages": gate.messages,
        "digest": wl.outputs(),
        "counts": wl.layer_counts(),
        "inputs": wl.inputs(),
        "numpy": numpy.__version__,
    }
    if args.trace_file:
        out["self_s"] = {k: v / 1e9 for k, v in tr.self_ns.items()}
        out["calls"] = tr.calls
        out["spans"] = tr.write_jsonl(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
