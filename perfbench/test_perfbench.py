"""Tests of the benchmark itself: metric output, the correctness gate, tracing."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_speed  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from bench_trace import NullTracer, Tracer  # noqa: E402
from burstcover import burst_cover, make_bch  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _tiny(workload, seed=1, trace=0):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    lines = _tiny(workload, trace=trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)
    for name, unit in table:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    assert json.loads(lines[0])["provenance"]["inputs"]
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{span}_s"] for span in run.LAYER_SPANS)
        assert layers + m["bench.unattributed_s"] == pytest.approx(m["bench.traced_wall_s"])


def test_gate_counts_a_corrupted_expected_radius(monkeypatch):
    def failures():
        wl = bw.RadiusLarge(1, "tiny")
        gate = bw.Gate()
        wl.setup(NullTracer(), gate)
        wl.make_queries()
        wl.run_pass(NullTracer(), gate, [])
        return gate

    assert failures().failed == 0
    monkeypatch.setitem(bw.EXPECTED_TABLE1, 7, (12, 11, 11))
    gate = failures()
    assert gate.failed == 1
    assert "BCH(2) m=7" in gate.messages[0]


def test_gate_counts_a_certificate_with_one_bit_flipped():
    code = make_bch(2, 7)
    x, b_prime = 0x1ABC, 11
    cert = burst_cover(code, x, b_prime)
    gate = bw.Gate()
    assert bw.check_certificate(NullTracer(), gate, code, x, cert, b_prime)
    for bit in range(cert.f.bit_length()):
        flipped = dataclasses.replace(cert, f=cert.f ^ (1 << bit))
        assert not bw.check_certificate(NullTracer(), gate, code, x, flipped, b_prime)
    assert (gate.attempted, gate.failed) == (1 + cert.f.bit_length(), cert.f.bit_length())


def test_cover_stream_counts_failed_certificates(monkeypatch):
    def corrupt(code, x, b_prime):
        cert = burst_cover(code, x, b_prime)
        return dataclasses.replace(cert, f=cert.f ^ 1)

    monkeypatch.setattr(bw, "burst_cover", corrupt)
    wl = bw.CoverStream(1, "tiny")
    gate = bw.Gate()
    wl.setup(NullTracer(), gate)
    wl.make_queries()
    wl.run_pass(NullTracer(), gate, [])
    queries = len(wl.queries)
    assert wl.layer_counts()["covering.verify_failed"] == queries
    assert gate.failed == queries


def test_radius_large_work_does_not_depend_on_the_seed():
    plans = []
    for seed in (1, 2):
        wl = bw.RadiusLarge(seed, "full")
        wl.setup(NullTracer(), bw.Gate())
        plans.append(wl.codes)
    states = [sum((1 << c.r) - 1 for *_, c in plan) for plan in plans]
    assert states[0] == states[1]
    sampled = [{p for role, _, _, p, _ in plan if role == "sample"} for plan in plans]
    assert sampled[0] != sampled[1]

    counted = []
    for seed in (1, 2):
        result = json.loads(_tiny("radius_large", seed=seed, trace=1)[-1])
        counted.append(result["metrics"]["radius.orbit_states"]["value"])
    assert counted[0] == counted[1] > 0


@pytest.mark.parametrize("probe_ms, want", [
    ([1, 1, 4, 1, 1], [100, 100, 100, 100]),  # one slow probe is outvoted
    ([1, 1, 2, 2, 2], [100, 200 / 3, 50, 50]),  # the machine halved its speed
])
def test_latencies_are_scaled_by_the_nearest_probes(monkeypatch, probe_ms, want):
    probes = iter(ms * 1_000_000 for ms in probe_ms)
    monkeypatch.setattr(bench_speed, "probe_ns", lambda: next(probes))
    monkeypatch.setattr(bench_speed, "PROBE_EVERY_NS", 1 << 62)
    lat = bench_speed.ProbedLatencies()  # 1 ms is the reference time
    for _ in want:
        lat.append(100)
        lat.probe()
    assert lat.scaled() == pytest.approx(want)
    assert list(lat) == [100] * len(want)


def test_self_times_add_up_to_the_root_span(tmp_path):
    tr = Tracer("t")
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b"):
                sum(range(1000))
        with tr.span("a"):
            pass
    rec = tr.records
    root_dur = rec[-1] - rec[-2]  # the root closes last
    assert sum(tr.self_ns.values()) == root_dur
    assert tr.calls == {"root": 1, "a": 2, "b": 1}
    assert tr.write_jsonl(tmp_path / "t.jsonl.gz") == 4


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = _run("--workload", "verify_corpus", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
