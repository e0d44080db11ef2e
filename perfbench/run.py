"""fcmerge benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {fuzz-grid,rank-large}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Every measurement happens in a fresh
worker interpreter (``worker.py``) with PYTHONPATH=src and a fixed
PYTHONHASHSEED; the workload is single-process, single-threaded and
closed-loop (the next request starts when the previous one returns).

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  * set-up time, the median over SETUP_PROBES fresh interpreters of
    interpreter start to first request (import fcmerge),
    less the time the benchmark spends reading its pools, drawing the
    run's keys, warming its calibration kernel and installing the tracer;
  * ops/s and request latency p50/p90.  Each of REPEATS fresh
    interpreters runs the same requests (see `run_length`), so every
    request meets identical inputs and cache state each time.  A
    request's latency is its best over the repeats, which filters out
    short stalls caused by other tenants of a shared machine; ops/s is
    ops over the sum of those best latencies.  An op is one request,
    except on fuzz-grid, where it is one postulate evaluation and a
    request is a whole small campaign (search plus shrinking);
  * peak RSS of the first repeat.
All times are scaled to a reference host speed (see calibration.py):
latencies by the host speed around each request, set-up time by the
host speed right after each probe.  The detail line also holds them as
measured.
--trace 1 reports the per-layer metrics: a traced run of the requests
of one repeat, then an untraced run of the same requests, whose time
ratio is the tracing overhead.

Outputs are checked outside the timed region: each request's digest
against golden.json, a prefix of the run again under a second hash seed,
and (rank-large) the first few requests against the naive reference.
Any mismatch counts as failed ops; the result line then says
"correct": false and the exit code is 1.  The second-to-last stdout line
holds the full result: run context, input shape, sample counts and the
per-layer values, with null where a workload never reaches a function.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import reference
import stats
import workloads as w

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

HASHSEED = "0"
VERIFY_HASHSEED = "2"
SETUP_PROBES = 15
REPEATS = 2
MIN_REQUESTS = 100           # p90 needs 10 samples beyond it
VERIFY_REQUESTS = 23         # second-hash-seed pass over a prefix of the run
REFERENCE_SAMPLE = 5
CHILD_TIMEOUT_S = 150

# Requests per second at the reference host speed (calibration.py),
# measured when the benchmark was defined.  A run makes the requests that
# take --seconds / REPEATS at that speed, so it does the same work
# whether the host happens to run fast or slow: a run that did more work
# on a fast host would also grow a larger heap and fuller caches.
REQUEST_RATE = {"fuzz-grid": 12.9, "rank-large": 5.7}


class BenchError(Exception):
    pass


def setup_time(result: dict, spawned: float) -> float:
    """Interpreter start to first request, less the benchmark's own set-up."""
    return result["ready"] - spawned - result["own_setup_s"]


def run_length(workload: str, seconds: float) -> int:
    """Requests per repeat: --seconds / REPEATS worth at the reference
    host speed, at least MIN_REQUESTS, in whole blocks of the workload's
    request mix."""
    n = max(MIN_REQUESTS, math.ceil(seconds / REPEATS * REQUEST_RATE[workload]))
    return -(-n // w.BLOCK[workload]) * w.BLOCK[workload]


def worker(mode: str, workload: str, seed: int, *, hashseed: str = HASHSEED,
           requests: int = 1, trace: int = 0) -> tuple[dict, float]:
    """Run worker.py; returns its result and the monotonic spawn time."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--mode", mode, "--workload", workload, "--seed", str(seed),
           "--requests", str(requests), "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hashseed)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def timings(repeats: list[list[float]], attempted: int) -> dict:
    """ops/s, p50 and p90 from each request's best latency over the repeats."""
    best_ms = [min(xs) * 1000 for xs in zip(*repeats)]
    return {
        "ops_per_s": attempted * 1000 / sum(best_ms),
        "op_p50_ms": stats.percentile(best_ms, 0.5),
        "op_p90_ms": stats.percentile(best_ms, 0.9),
    }


def golden_mismatches(result: dict, golden: dict) -> list[str]:
    return [k for k, d in zip(result["keys"], result["digests"])
            if golden["digests"].get(k) != d]


def reference_mismatches(result: dict) -> list[str]:
    """The first REFERENCE_SAMPLE rank-large requests of the run whose
    output differs from the naive reference."""
    sample = list(zip(result["keys"], result["digests"]))[:REFERENCE_SAMPLE]
    return [k for k, d in sample
            if w.digest(reference.rank_output(*w.rank_rules(k))) != d]


def ops_failed(result: dict, bad_keys: set[str]) -> int:
    """Failed ops of a run.  Every op of a mismatched request fails,
    including ops that the request itself already reported as failed."""
    return sum(ops if key in bad_keys else failed
               for key, ops, failed in zip(result["keys"], result["ops"], result["failed"]))


def input_shape(workload: str, keys: list[str]) -> dict:
    if workload == "rank-large":
        mix = Counter(int(k[1:].split(":")[0]) for k in keys)
        return {"program_rules": {str(s): n for s, n in sorted(mix.items())}}
    return {"trials_per_request": w.FUZZ_TRIALS}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "fcmerge").glob("*.py"))),
    }


def measure(workload: str, seed: int, seconds: float, golden: dict) -> tuple[dict, dict, int, int]:
    setups, scaled_setups = [], []
    for _ in range(SETUP_PROBES):
        probe, spawned = worker("setup", workload, seed)
        setups.append(setup_time(probe, spawned))
        scaled_setups.append(setups[-1] * calibration.scale(probe["calib_s"]))
    main, _ = worker("run", workload, seed, requests=run_length(workload, seconds))
    n = len(main["keys"])
    repeats = [main]
    for _ in range(REPEATS - 1):
        again, _ = worker("run", workload, seed, requests=n)
        repeats.append(again)
    verify, _ = worker("run", workload, seed, hashseed=VERIFY_HASHSEED,
                       requests=min(n, VERIFY_REQUESTS))

    golden_bad = sorted({k for r in repeats for k in golden_mismatches(r, golden)})
    bad = set(golden_bad)
    hash_mismatch = [k for k, d1, d2 in zip(verify["keys"], verify["digests"], main["digests"])
                     if d1 != d2]
    bad.update(hash_mismatch)
    reference_bad = reference_mismatches(main) if workload == "rank-large" else []
    bad.update(reference_bad)

    attempted = sum(main["ops"])
    failed = ops_failed(main, bad)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        **timings([calibration.normalised(r["latencies"], r["calib_s"]) for r in repeats], attempted),
        "peak_rss_mib": main["peak_rss_mib"],
    }
    measured = {
        "setup_s": statistics.median(setups),
        **timings([r["latencies"] for r in repeats], attempted),
    }
    detail = {
        "metrics": metrics,
        "measured_metrics": measured,
        "calibration_median_s": statistics.median(c for r in repeats for c in r["calib_s"]),
        "requests": n,
        "repeats": REPEATS,
        "repeat_busy_s": [r["busy_s"] for r in repeats],
        "setup_samples_s": setups,
        "hashseed": HASHSEED,
        "input_shape": input_shape(workload, main["keys"]),
        "checks": {
            "golden_mismatches": golden_bad,
            "verify_hashseed": VERIFY_HASHSEED,
            "verify_requests": len(verify["keys"]),
            "verify_mismatches": hash_mismatch,
            "reference_checked": REFERENCE_SAMPLE if workload == "rank-large" else 0,
            "reference_mismatches": reference_bad,
        },
    }
    return metrics, detail, attempted, failed


def measure_traced(workload: str, seed: int, seconds: float, golden: dict) -> tuple[dict, dict, int, int]:
    traced, _ = worker("run", workload, seed, requests=run_length(workload, seconds), trace=1)
    n = len(traced["keys"])
    plain, _ = worker("run", workload, seed, requests=n)
    bad = set(golden_mismatches(traced, golden))
    trace_mismatch = [k for k, d1, d2 in zip(traced["keys"], traced["digests"], plain["digests"])
                      if d1 != d2]
    bad.update(trace_mismatch)
    metrics = dict(traced["trace"])
    # Both busy times at the reference host speed, so that a change of
    # host speed between the two runs does not pass for tracing overhead.
    traced_busy, plain_busy = (
        sum(calibration.normalised(r["latencies"], r["calib_s"])) for r in (traced, plain))
    metrics["trace.overhead_frac"] = traced_busy / plain_busy - 1
    detail = {
        "metrics": metrics,
        "requests": n,
        "missing_functions": traced["trace_missing"],
        "untraced_wall_s": plain["busy_s"],
        "hashseed": HASHSEED,
        "input_shape": input_shape(workload, traced["keys"]),
        "checks": {
            "golden_mismatches": golden_mismatches(traced, golden),
            "traced_vs_untraced_mismatches": trace_mismatch,
        },
    }
    return metrics, detail, sum(traced["ops"]), ops_failed(traced, bad)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=w.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fcmerge" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no fcmerge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    golden = w.load_golden()
    run = measure_traced if args.trace else measure
    try:
        values, detail, attempted, failed = run(args.workload, args.seed, args.seconds, golden)
    except (BenchError, stats.TooFewSamples, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    # The result line carries every metric BENCHMARK.json lists for this
    # mode.  A per-layer value the workload never reaches is null in the
    # detail line and 0 here, because the result line takes numbers only.
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]] or 0, "unit": m["unit"]}
               for m in listed}
    correct = failed == 0
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  context=run_context(), fail_frac=failed / attempted)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
