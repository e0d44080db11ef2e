"""Acceptance suite: golden values, regression corpus, and the seeded
property campaigns.  Each test prints one pass line; run with -s to see
them, or rely on pytest's own per-test reporting."""

import random
import time

import pytest

from fcmerge import (
    PostulateId,
    Profile,
    Program,
    Strategy,
    arbitrate,
    base,
    closure,
    entails,
    flock_closure,
    hull,
    maximal_extensions,
    merge,
    revise_extended_hull,
    revise_hull,
    revise_rank,
    run_corpus,
    stratify,
)
from fcmerge.cli import run
from fcmerge.core import Literal, Rule
from fcmerge.fuzz import FuzzConfig, atom_pool, gen_program, search
from fcmerge.postulates import adjoin_program

from helpers import (
    GAP_P,
    GAP_Q,
    LAYERED,
    TAXONOMY,
    TAXONOMY_LEVEL1,
    TAXONOMY_LEVEL2,
    closed,
    lits,
    prog,
)
from oracles import brute_maximal_extensions, naive_closure

ALL = tuple(Strategy)


def _passed(label: str) -> None:
    print(f"PASS {label}")


def test_criterion_01_layered_stratification_golden():
    program = prog(LAYERED)
    start = time.perf_counter()
    layers = stratify(program)
    elapsed = time.perf_counter() - start
    assert layers == (lits("a", "u"), lits("b", "c", "h"), lits("t", "s"), lits("w"))
    assert elapsed < 0.010, f"stratification took {elapsed * 1000:.2f} ms"
    _passed("criterion 1: four-layer stratification golden, "
            f"{elapsed * 1000:.2f} ms")


def test_criterion_02_taxonomy_base_golden():
    levels = base(prog(TAXONOMY))
    assert levels == (
        prog(TAXONOMY),
        prog(TAXONOMY_LEVEL1),
        prog(TAXONOMY_LEVEL2),
        Program(),
    )
    _passed("criterion 2: taxonomy base levels golden")


def test_criterion_03_arbitration_gap_golden():
    p, q = prog(GAP_P), prog(GAP_Q)
    start = time.perf_counter()
    assert arbitrate(p, q, Strategy.RANK) == closed()
    assert arbitrate(p, q, Strategy.HULL) == closed("d")
    assert arbitrate(p, q, Strategy.EXTENDED_HULL) == closed("d", "e")
    assert set(maximal_extensions(p, q)) == {
        prog("b -> d. -c -> e. a, -c -> f. a."),
        prog("a, b -> -c. b -> d. b -> -c. -c -> e. a, -c -> f."),
    }
    assert set(maximal_extensions(q, p)) == {
        prog("a -> e. a, e -> d. c -> d. c -> f. b."),
        prog("a, b -> c. a -> e. a, e -> c. a, e -> d. c -> d. c -> f."),
    }
    assert closure(revise_hull(p, q)) == closed("b", "d")
    assert closure(revise_hull(q, p)) == closed("a", "d", "e")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"arbitration took {elapsed:.3f} s"
    _passed(f"criterion 3: strategy-gap arbitration golden, {elapsed * 1000:.1f} ms")


def test_criterion_04_corpus_regression(capsys):
    report = run_corpus()
    assert report.all_match, report.to_text()
    by_name = {}
    for r in report.results:
        by_name.setdefault(r.name, []).append(r)
    for name in ("sa5-syntax-dependence", "sa6-trichotomy", "fp3-syntax-dependence",
                 "fp5-subgroup-union", "fp6-subgroup-consistency", "fp7-iteration",
                 "fp8-iteration-consistency", "fp4-fairness-hull"):
        assert name in by_name
        assert all(r.actual == "violated" for r in by_name[name])
    assert run(["corpus"]) == 0
    capsys.readouterr()
    _passed(f"criterion 4: corpus regression, {len(report.results)} evaluations match")


def test_criterion_05_arbitration_postulate_campaign():
    cfg = FuzzConfig(
        seed=20260809, trials=1000, atoms=6, rules=8,
        postulates=(PostulateId.SA1, PostulateId.SA2, PostulateId.SA3,
                    PostulateId.SA4, PostulateId.SA7, PostulateId.SA8),
    )
    start = time.perf_counter()
    report = search(cfg)
    elapsed = time.perf_counter() - start
    assert all(c.violated == 0 for c in report.cells), report.to_text()
    assert all(c.skipped == 0 for c in report.cells)
    cells = {(c.postulate, c.strategy): c for c in report.cells}
    for strategy in ALL:
        sa3 = cells["SA3", strategy.value]
        assert sa3.non_vacuous >= 100, f"SA3 non-vacuous {sa3.non_vacuous} [{strategy.value}]"
    assert elapsed < 60.0, f"campaign took {elapsed:.1f} s"
    _passed(f"criterion 5: 1000-trial arbitration campaign clean in {elapsed:.1f} s")


def test_criterion_06_rank_merging_campaign():
    cfg = FuzzConfig(
        seed=20260810, trials=500, atoms=6, rules=8,
        strategies=(Strategy.RANK,),
        postulates=(PostulateId.FP0, PostulateId.FP1,
                    PostulateId.FP2, PostulateId.FP4),
    )
    report = search(cfg)
    assert all(c.violated == 0 for c in report.cells), report.to_text()
    (fp4,) = (c for c in report.cells if c.postulate == "FP4")
    assert fp4.non_vacuous >= 50, f"FP4 non-vacuous {fp4.non_vacuous}"
    _passed(f"criterion 6: 500-trial rank merging campaign clean, "
            f"{fp4.non_vacuous} substantive fairness checks")


def test_criterion_07_hull_merging_campaign():
    cfg = FuzzConfig(
        seed=20260811, trials=300, atoms=6, rules=8,
        strategies=(Strategy.HULL, Strategy.EXTENDED_HULL),
        postulates=(PostulateId.FP0, PostulateId.FP1, PostulateId.FP2),
    )
    report = search(cfg)
    assert all(c.violated == 0 for c in report.cells), report.to_text()
    _passed("criterion 7: 300-trial hull/extended-hull merging campaign clean")


def test_criterion_08_revision_chain_properties():
    cfg = FuzzConfig(seed=0, trials=1, rules=8, atoms=6)
    rng = random.Random(20260812)
    shared = atom_pool(6)
    shifted = atom_pool(12)[6:]
    for trial in range(1000):
        pool_q = shared if rng.random() < 0.5 else shifted
        p = gen_program(cfg, rng, shared)
        q = gen_program(cfg, rng, pool_q)

        # fixpoint idempotence of the consequence operator
        total = closure(q | p)
        if total.is_bottom:
            assert closure(q | p | Program.from_facts([])).is_bottom
        else:
            assert closure(Program.from_facts(total.literals) | p) == total

        # revision success
        assert closure(q).issubset(closure(revise_rank(p, q)))

        # conservative-extension chain
        rk = closure(revise_rank(p, q))
        h = closure(revise_hull(p, q))
        eh = flock_closure(revise_extended_hull((p,), q))
        assert rk.issubset(h) and h.issubset(eh)

        # the hull sits below every maximal extension
        hp = hull(p, q)
        for ext in maximal_extensions(p, q):
            assert hp.rules <= ext.rules
    _passed("criterion 8: 1000-pair revision property campaign clean")


def test_criterion_09_conditional_revision_properties():
    cfg = FuzzConfig(seed=0, trials=1, rules=5, atoms=5, body_len=2, neg_prob=0.35)
    pool = atom_pool(5)
    rng = random.Random(90210)
    containment_hits = collapse_hits = compat_hits = 0

    for trial in range(1500):
        q = gen_program(cfg, rng, pool) | Program.from_facts(
            [Literal(rng.choice(pool), rng.random() >= cfg.neg_prob)])
        cq = closure(q)
        if cq.is_bottom or len(cq.literals) < 2:
            continue
        derived = sorted(cq.literals, key=Literal.sort_key)
        trigger = rng.choice(derived)
        victim = rng.choice(derived)
        facts = [l for l in derived if l != trigger and rng.random() < 0.5]
        extra = gen_program(cfg, rng, pool) if rng.random() < 0.4 else Program()
        p = (Program.from_facts(facts)
             | Program({Rule([trigger], Literal(victim.atom, not victim.positive))})
             | extra)

        q_consistent = not closure(q).is_bottom
        q_entails_p = entails(q, p)
        union_bottom = closure(q | p).is_bottom

        # entailed-but-conflicting updates: the revision stays inside the
        # update's consequences
        if q_consistent and q_entails_p and union_bottom:
            containment_hits += 1
            assert closure(revise_rank(q, p)).issubset(closure(p))
        # entailed updates: re-adjoining the revised consequences to the
        # old base never collapses
        if q_consistent and q_entails_p:
            compat_hits += 1
            assert not adjoin_program(closure(revise_rank(q, p)), q).is_bottom

    # if re-adjoining the revised consequences collapses, the plain union
    # was already inconsistent
    rng = random.Random(90211)
    for trial in range(1500):
        q = gen_program(cfg, rng, pool)
        p = gen_program(cfg, rng, pool)
        if adjoin_program(closure(revise_rank(q, p)), q).is_bottom:
            collapse_hits += 1
            assert closure(q | p).is_bottom

    assert containment_hits >= 100, f"containment antecedent hit {containment_hits} times"
    assert collapse_hits >= 100, f"collapse antecedent hit {collapse_hits} times"
    assert compat_hits >= 100, f"compatibility antecedent hit {compat_hits} times"
    _passed(f"criterion 9: conditional revision properties clean "
            f"({containment_hits}/{collapse_hits}/{compat_hits} substantive cases)")


def test_criterion_10_oracle_equivalence():
    cfg = FuzzConfig(seed=0, trials=1, rules=12, atoms=8)
    rng = random.Random(20260813)
    for trial in range(1000):
        p = gen_program(cfg, rng)
        assert closure(p) == naive_closure(p)

    pair_cfg = FuzzConfig(seed=0, trials=1, rules=12, atoms=6)
    rng = random.Random(20260814)
    for trial in range(200):
        p = gen_program(pair_cfg, rng)
        q = gen_program(pair_cfg, rng)
        assert maximal_extensions(p, q) == brute_maximal_extensions(p, q)
    _passed("criterion 10: closure and enumeration match the naive oracles")
