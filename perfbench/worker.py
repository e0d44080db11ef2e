"""One benchmark process: set up, then run requests in a closed loop.

Started by ``run.py`` in a fresh interpreter, so no library cache is warm
when timing starts.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# Hard stop for the loop, so a much slower library still ends the run in
# time; the run then lacks samples and fails instead of hanging.
LOOP_LIMIT_S = 70.0
# Calibration kernel runs after a set-up probe.
SETUP_CALIBRATIONS = 5


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--requests", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import fcmerge  # import cost belongs to set-up

    # The benchmark's own set-up (reading the pools, drawing the run's
    # keys, warming the calibration kernel, installing the tracer) is
    # timed apart, so that the parent can leave it out of the library's
    # set-up time.
    own_start = time.monotonic()
    import calibration
    import workloads as w

    golden = w.load_golden()
    keys = w.sequence(args.workload, args.seed, golden, args.requests)
    kernel = calibration.kernel()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    out = {"ready": ready, "own_setup_s": ready - own_start,
           "hashseed": os.environ.get("PYTHONHASHSEED")}
    if args.mode == "setup":
        # Host speed right after set-up, to scale this probe's time by.
        out["calib_s"] = [calibration.timed(kernel) for _ in range(SETUP_CALIBRATIONS)]
        print(json.dumps(out))
        return 0

    # A request that raises fails all the ops it would have done: one, or
    # on fuzz-grid every evaluation of its campaign.
    request_ops = 1
    if args.workload == "fuzz-grid":
        request_ops = len(fcmerge.PostulateId) * len(fcmerge.Strategy) * w.FUZZ_TRIALS
    latencies: list[float] = []
    digests: list[str] = []
    ops: list[int] = []
    failed: list[int] = []
    calib: list[float] = []
    start = time.perf_counter()
    for key in keys:
        req = w.make_request(key)
        t0 = time.perf_counter()
        try:
            text, attempted, bad = w.run_request(args.workload, req)
        except Exception as exc:  # a failed op is counted, not fatal
            text, attempted, bad = f"error: {type(exc).__name__}: {exc}", request_ops, request_ops
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        calib.append(calibration.timed(kernel))
        digests.append(w.digest(text))
        ops.append(attempted)
        failed.append(bad)
        if time.perf_counter() - start >= LOOP_LIMIT_S:
            break
    busy = sum(latencies)
    out.update(
        keys=keys[:len(latencies)],
        digests=digests,
        latencies=latencies,
        calib_s=calib,
        ops=ops,
        failed=failed,
        busy_s=busy,
        peak_rss_mib=rss_mib(),
        trace=tracer.metrics(busy) if tracer else None,
        trace_missing=tracer.missing if tracer else None,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
