"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import reference
import stats
import tracer
import workloads as w

ROOT = Path(__file__).resolve().parents[1]


def test_generators_are_deterministic_per_seed():
    for size in w.RANK_SIZES:
        assert w.gen_rank_triple(size, 3) == w.gen_rank_triple(size, 3)
        assert w.gen_rank_triple(size, 3) != w.gen_rank_triple(size, 4)
    assert w.make_request("r128:5") == w.make_request("r128:5")


def test_sequences_are_deterministic_per_seed_and_use_recorded_keys():
    golden = w.load_golden()
    for workload in w.WORKLOADS:
        first = w.sequence(workload, 1, golden, 300)
        assert first == w.sequence(workload, 1, golden, 300)
        assert first != w.sequence(workload, 2, golden, 300)
        assert all(k in golden["digests"] for k in first)
    rank = w.sequence("rank-large", 1, golden, 2 * len(w.RANK_SCHEDULE))
    assert [int(k[1:].split(":")[0]) for k in rank] == list(w.RANK_SCHEDULE) * 2


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 0.9)
    assert stats.percentile(list(range(20)), 0.5) == 9
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 0.5)


def test_a_mismatched_request_fails_each_of_its_ops_once():
    import run
    result = {"keys": ["f1", "f2", "f3"], "ops": [102, 102, 102], "failed": [0, 3, 102]}
    assert run.ops_failed(result, set()) == 105
    assert run.ops_failed(result, {"f1", "f3"}) == 207


def test_latencies_are_scaled_to_the_reference_host_speed():
    ref = calibration.REFERENCE_S
    latencies = [0.1, 0.2, 0.3]
    assert calibration.normalised(latencies, [ref] * 3) == pytest.approx(latencies)
    # A host twice as slow doubles both the requests and the kernel.
    assert calibration.normalised([2 * x for x in latencies], [2 * ref] * 3) == pytest.approx(latencies)


def test_reference_agrees_with_recorded_digests():
    golden = w.load_golden()
    for key in ("r128:3", "r256:1"):
        text = reference.rank_output(*w.rank_rules(key))
        assert w.digest(text) == golden["digests"][key]


_TRACE_PROBE = """
import json, sys
from tracer import Tracer
import workloads as w
t = Tracer()
t.install()
for key in sys.argv[1:]:
    w.run_request("fuzz-grid" if key[0] == "f" else "rank-large", w.make_request(key))
print(json.dumps({"missing": t.missing, "metrics": t.metrics(1.0)}))
"""


def test_tracer_finds_every_function_it_names():
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}")
    out = subprocess.run([sys.executable, "-c", _TRACE_PROBE, "f0", "r128:0"],
                         env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["missing"] == []
    metrics = result["metrics"]
    for name in tracer.TRACED:
        assert metrics[f"{name}.calls"] > 0, name
    for name in tracer.CACHES:
        assert metrics[f"{name}.cache_hit_ratio"] is not None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(metrics) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= names
