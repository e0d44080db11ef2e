"""The benchmark workloads: input generators and one request each.

Inputs come from fixed pools recorded in ``golden.json`` together with
the digest each request produced at the commit that defined the
benchmark.  The workload seed only chooses the order in which a run
draws from the pools, so every request of every run has a recorded
reference output.

Generators here are the benchmark's own.  They return rules as
``(body, head)`` pairs of literal strings (``"a"`` or ``"-a"``); the
text handed to the library is rendered from those pairs, and the
naive reference in ``reference.py`` reads the same pairs.

This module must not import ``fcmerge`` at module level: the tracer
wraps library functions after import, and requests look every library
function up through the package namespace at call time so the wrappers
are seen.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("fuzz-grid", "rank-large")

# fuzz-grid: one request is a small campaign over every postulate and
# strategy; shrinking every violation it reports belongs to the request.
# One trial per cell keeps requests short, so that the full (generation
# 2) garbage collections, which come about once per 2 s of fuzzing and
# add up to half a second to the request they hit, land on fewer
# requests than the 10% beyond the p90 (4%).  At two trials they hit
# 8-9% of requests, and whether the p90 fell on one of them moved it by
# up to 40% between runs.
FUZZ_TRIALS = 1

# rank-large: program sizes, drawn by a fixed 23-slot schedule so every
# run has the same size mix.  Each size takes about a third of the timed
# wall: the counts per cycle (18 x 128, 4 x 256, 1 x 512) are inversely
# proportional to the median request time of each size, which was
# 67 ms, 304 ms and 1200 ms (1 : 4.5 : 18) when the benchmark was defined.
# A uniform count mix would spend 80% of the wall on 512-rule requests
# and leave too few requests in a run for a p90.
RANK_SIZES = (128, 256, 512)
RANK_SCHEDULE = (128, 128, 256, 128, 128, 128, 128, 128, 256, 128, 128, 512,
                 128, 128, 128, 256, 128, 128, 128, 128, 256, 128, 128)

# Requests per whole schedule cycle: a run is made of whole cycles, so
# every run has exactly the schedule's mix.
BLOCK = {"fuzz-grid": 1, "rank-large": len(RANK_SCHEDULE)}

# Cost strata per pool (see _stratified): roughly one stratum per request
# a run makes at the speed the benchmark was defined at, so each run
# draws about once from every cost level.
STRATA = {"fuzz-grid": 250, 128: 100, 256: 24, 512: 6}

Rules = list[tuple[tuple[str, ...], str]]


def render_rules(rules: Rules) -> str:
    return "\n".join(
        f"{', '.join(body)} -> {head}." if body else f"{head}."
        for body, head in rules
    )


def _lit(atom: str, positive: bool) -> str:
    return atom if positive else "-" + atom


# --- rank-large -----------------------------------------------------------


def gen_rank_triple(size: int, gen_seed: int) -> tuple[Rules, Rules, Rules]:
    """Two programs of `size` rules sharing an atom pool, plus a 4-fact
    constraint.

    Every atom has a default polarity.  Facts and ordinary rules use
    only default literals, so each program is consistent.  About a
    quarter of the rules are exceptions: their body holds one literal
    against the default, which makes them exceptional and gives the
    base several levels.  P2 flips the default of ~15% of the atoms, so
    the two programs conflict and revision has work to do.
    """
    rng = random.Random(f"rank-large:{size}:{gen_seed}")
    atoms = [f"a{i}" for i in range(size // 3)]
    default = {a: rng.random() < 0.7 for a in atoms}

    def program(flip: float) -> Rules:
        sign = {a: (not v) if rng.random() < flip else v for a, v in default.items()}
        out: Rules = []
        for _ in range(size):
            kind = rng.random()
            if kind < 0.1:
                a = rng.choice(atoms)
                out.append(((), _lit(a, sign[a])))
                continue
            body_atoms = [rng.choice(atoms) for _ in range(rng.randint(1, 3))]
            head = rng.choice(atoms)
            body = [_lit(a, sign[a]) for a in body_atoms]
            head_positive = sign[head]
            if kind >= 0.75:
                body[0] = _lit(body_atoms[0], not sign[body_atoms[0]])
                if rng.random() < 0.5:
                    head_positive = not head_positive
            out.append((tuple(body), _lit(head, head_positive)))
        return out

    p1 = program(0.0)
    p2 = program(0.15)
    constraint = [((), _lit(a, default[a] if rng.random() < 0.7 else not default[a]))
                  for a in rng.sample(atoms, 4)]
    return p1, p2, constraint


# --- requests -------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fuzz_request(fuzz_seed: int) -> tuple[str, int, int]:
    """Search every postulate x strategy cell, then shrink each reported
    violation while `check` still says violated.

    Returns (output text, evaluations attempted, evaluations failed);
    a skipped evaluation (size limit) counts as failed."""
    import fcmerge
    from fcmerge.fuzz import render_instance
    from fcmerge.postulates import Instance, PostulateId, Status

    report = fcmerge.search(fcmerge.FuzzConfig(seed=fuzz_seed, trials=FUZZ_TRIALS))
    parts = [report.to_json()]
    for v in report.violations:
        pid = PostulateId.parse(v.postulate)
        strategy = fcmerge.Strategy.from_token(v.strategy)
        instance = Instance(
            strategy,
            programs={k: fcmerge.parse_program(t) for k, t in v.instance["programs"].items()},
            profiles={k: fcmerge.parse_profile(t) for k, t in v.instance["profiles"].items()},
        )
        shrunk = fcmerge.shrink(
            instance, lambda i, pid=pid: fcmerge.check(pid, i).status is Status.VIOLATED)
        parts.append(json.dumps(render_instance(shrunk), sort_keys=True))
    skipped = sum(1 for e in report.evaluations if e.status == Status.SKIPPED.value)
    return "\n".join(parts), len(report.evaluations), skipped


def rank_request(p1_text: str, p2_text: str, c_text: str) -> str:
    import fcmerge

    p1 = fcmerge.parse_program(p1_text)
    p2 = fcmerge.parse_program(p2_text)
    constraint = fcmerge.parse_program(c_text)
    rk = fcmerge.Strategy.RANK
    revised = fcmerge.revise_rank(p1, p2)
    closed = fcmerge.closure(revised)
    layers = "inconsistent" if closed.is_bottom else fcmerge.render(fcmerge.stratify(revised))
    return "\n===\n".join((
        fcmerge.render(revised),
        fcmerge.render(closed),
        layers,
        fcmerge.render(fcmerge.arbitrate(p1, p2, rk)),
        fcmerge.render(fcmerge.merge(constraint, fcmerge.Profile((p1, p2)), rk)),
    ))


def run_request(workload: str, args: tuple) -> tuple[str, int, int]:
    """Run one request; returns (output text, ops attempted, ops failed)."""
    if workload == "fuzz-grid":
        return fuzz_request(*args)
    return rank_request(*args), 1, 0


# --- pools and run sequences ----------------------------------------------


def load_golden() -> dict:
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def rank_key(size: int, gen_seed: int) -> str:
    return f"r{size}:{gen_seed}"


def fuzz_key(fuzz_seed: int) -> str:
    return f"f{fuzz_seed}"


def rank_rules(key: str) -> tuple[Rules, Rules, Rules]:
    size, gen_seed = map(int, key[1:].split(":"))
    return gen_rank_triple(size, gen_seed)


def make_request(key: str) -> tuple:
    """Rebuild a request's inputs from its pool key."""
    if key[0] == "f":
        return (int(key[1:]),)
    return tuple(render_rules(r) for r in rank_rules(key))


def _stratified(keys: list[str], cost: dict[str, float], strata: int,
                rng: random.Random) -> list[str]:
    """One pass over the keys that draws evenly across their cost.

    Keys are sorted by recorded cost and cut into `strata` groups; the
    pass visits the groups in an order that alternates cheap and costly
    ones, taking the next (seed-shuffled) key of each group in turn.  Any
    prefix of a run thus has close to the same cost mix, whatever the
    seed, which keeps throughput and percentiles steady across seeds."""
    ranked = sorted(keys, key=lambda k: (cost[k], k))
    groups = [ranked[i * len(ranked) // strata:(i + 1) * len(ranked) // strata]
              for i in range(strata)]
    for g in groups:
        rng.shuffle(g)
    visit = [k // 2 if k % 2 == 0 else strata - 1 - k // 2 for k in range(strata)]
    depth = min(len(g) for g in groups)
    return [groups[s][i] for i in range(depth) for s in visit]


def sequence(workload: str, seed: int, golden: dict, length: int) -> list[str]:
    """The first `length` pool keys a run with this seed requests.

    The seed shuffles each pool within its cost strata; pools repeat from
    the start only when a run gets through all of one."""
    rng = random.Random(f"{workload}:{seed}")
    pool, cost = golden["pools"][workload], golden["cost_ms"]
    if workload == "fuzz-grid":
        order = _stratified(pool, cost, STRATA["fuzz-grid"], rng)
        return [order[i % len(order)] for i in range(length)]
    orders = {size: _stratified(pool[str(size)], cost, STRATA[size], rng)
              for size in RANK_SIZES}
    taken = dict.fromkeys(RANK_SIZES, 0)
    out = []
    for i in range(length):
        size = RANK_SCHEDULE[i % len(RANK_SCHEDULE)]
        out.append(orders[size][taken[size] % len(orders[size])])
        taken[size] += 1
    return out
