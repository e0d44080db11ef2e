"""Rebuild ``golden.json``: the input pools and each request's digest.

Run from the repository root at the commit whose outputs are the
reference (this is done once, when the benchmark is defined):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/build_golden.py

It runs every pool request once and records its output digest and its
latency scaled to the reference host speed (see calibration.py), the
cost measure runs use to stratify their draws.  The first
REFERENCE_CHECKS 128-rule rank-large requests are also checked against
the naive reference.  Takes several minutes.
"""

from __future__ import annotations

import json
import os
import sys
import time

import calibration
import reference
import workloads as w

FUZZ_POOL = 1200
RANK_POOL = {128: 600, 256: 120, 512: 40}
REFERENCE_CHECKS = 10


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.exit("run with PYTHONHASHSEED=0")
    pools = {
        "fuzz-grid": [w.fuzz_key(s) for s in range(FUZZ_POOL)],
        "rank-large": {str(size): [w.rank_key(size, s) for s in range(n)]
                       for size, n in RANK_POOL.items()},
    }
    keys = pools["fuzz-grid"] + [k for ks in pools["rank-large"].values() for k in ks]
    checked = set(pools["rank-large"]["128"][:REFERENCE_CHECKS])
    digests: dict[str, str] = {}
    latencies: list[float] = []
    calib: list[float] = []
    kernel = calibration.kernel()
    start = time.perf_counter()
    for i, key in enumerate(keys):
        workload = "fuzz-grid" if key[0] == "f" else "rank-large"
        req = w.make_request(key)
        t0 = time.perf_counter()
        text, attempted, failed = w.run_request(workload, req)
        latencies.append(time.perf_counter() - t0)
        calib.append(calibration.timed(kernel))
        if failed:
            sys.exit(f"{key}: {failed} of {attempted} ops failed; choose another pool")
        digests[key] = w.digest(text)
        if key in checked and w.digest(reference.rank_output(*w.rank_rules(key))) != digests[key]:
            sys.exit(f"{key}: library output differs from the naive reference")
        if i % 200 == 0:
            print(f"{i}/{len(keys)} {time.perf_counter() - start:.0f}s", file=sys.stderr)
    cost = {k: round(t * 1000, 3) for k, t in zip(keys, calibration.normalised(latencies, calib))}
    golden = {"pools": pools, "digests": digests, "cost_ms": cost}
    w.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
