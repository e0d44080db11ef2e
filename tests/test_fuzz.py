import pickle
import random
from dataclasses import fields

import pytest

from fcmerge import (
    ConfigError,
    Instance,
    Literal,
    PostulateId,
    PredicateNotHolding,
    Profile,
    Status,
    Strategy,
    check,
    gen_instance,
    gen_program,
    parse_profile,
    search,
    shrink,
)
from fcmerge.fuzz import FuzzConfig, _removals, _stream, atom_pool, render_instance

from helpers import prog, total_rules
from oracles import reference_gen_instance, reference_gen_program


class TestConfig:
    def test_defaults(self):
        cfg = FuzzConfig()
        assert cfg.atoms == 6 and cfg.rules == 8
        assert cfg.body_len == 3 and cfg.neg_prob == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"atoms": 0},
            {"neg_prob": 1.5},
            {"neg_prob": -0.1},
            {"rules": -1},
            {"seed": -1},
            {"seed": 2 ** 64},
            {"strategies": ()},
            {"postulates": ()},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            FuzzConfig(**kwargs)

    def test_normalizes_order(self):
        cfg = FuzzConfig(strategies=(Strategy.RANK, Strategy.EXTENDED_HULL, Strategy.RANK))
        assert cfg.strategies == (Strategy.EXTENDED_HULL, Strategy.RANK)


class TestGenProgram:
    def test_deterministic_at_same_position(self):
        cfg = FuzzConfig(seed=1)
        assert gen_program(cfg, random.Random(1)) == gen_program(cfg, random.Random(1))

    def test_zero_rules_gives_empty_program(self):
        cfg = FuzzConfig(rules=0)
        assert gen_program(cfg, random.Random(2)).rules == frozenset()

    def test_tiny_all_negative_config(self):
        cfg = FuzzConfig(atoms=1, neg_prob=1.0, rules=2)
        rng = random.Random(3)
        for _ in range(50):
            p = gen_program(cfg, rng)
            assert p.atoms() <= {"a"}
            for rule in p.rules:
                assert not rule.head.positive
                assert all(not l.positive for l in rule.body)

    def test_respects_rule_cap(self):
        cfg = FuzzConfig(rules=4)
        rng = random.Random(4)
        assert all(len(gen_program(cfg, rng)) <= 4 for _ in range(50))


class TestGenInstance:
    @pytest.mark.parametrize("pid", tuple(PostulateId))
    def test_bindings_cover_exactly_the_free_variables(self, pid):
        cfg = FuzzConfig(seed=5)
        # must not raise IncompleteBinding for any postulate
        for trial in range(10):
            inst = gen_instance(pid, cfg, random.Random(trial), Strategy.RANK)
            check(pid, inst)

    def test_deterministic(self):
        cfg = FuzzConfig(seed=6)
        a = gen_instance(PostulateId.SA5, cfg, random.Random(7), Strategy.HULL)
        b = gen_instance(PostulateId.SA5, cfg, random.Random(7), Strategy.HULL)
        assert a == b


class TestLiteralTable:
    """Each config builds every Literal its campaign can draw once; the
    draws, and so the instances, are those of a generator that builds a
    Literal per draw."""

    @pytest.mark.parametrize("atoms", [1, 6, 14])
    def test_instances_match_the_reference_generator(self, atoms):
        seen = set()
        for seed in range(20):
            cfg = FuzzConfig(seed=seed, atoms=atoms)
            for pid in PostulateId:
                for strategy in Strategy:
                    instance = gen_instance(pid, cfg, _stream(seed, pid, strategy, 0), strategy)
                    reference = reference_gen_instance(pid, cfg, _stream(seed, pid, strategy, 0),
                                                       strategy)
                    assert render_instance(instance) == render_instance(reference)
                    seen |= {a for p in instance.programs.values() for a in p.atoms()}
        # the second pool reaches the table's last atoms, x26 and x27 at 14
        assert set(atom_pool(2 * atoms)[-2:]) <= seen

    @pytest.mark.parametrize("pool", [("c", "x40", "zz_top"), ("a", "q")])
    def test_pool_outside_the_table_matches_the_reference(self, pool):
        cfg = FuzzConfig(atoms=1, neg_prob=0.5)
        for seed in range(20):
            program = gen_program(cfg, random.Random(seed), pool)
            assert program == reference_gen_program(cfg, random.Random(seed), pool)

    def test_fixed_run_builds_each_literal_once(self, monkeypatch):
        # pinned work, which may only fall: 12 atoms, both signs, all built
        # by the config (63,930 when every draw built its own)
        built = []
        post_init = Literal.__post_init__

        def counting(lit):
            built.append(lit)
            post_init(lit)

        monkeypatch.setattr(Literal, "__post_init__", counting)
        search(FuzzConfig(seed=7, trials=40))
        assert len(built) == 24

    def test_table_is_not_part_of_the_config_value(self):
        cfg = FuzzConfig(seed=3, atoms=2)
        assert cfg == FuzzConfig(seed=3, atoms=2)
        assert hash(cfg) == hash(FuzzConfig(seed=3, atoms=2))
        shown = ", ".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
        assert repr(cfg) == f"FuzzConfig({shown})"
        assert sorted(cfg.to_dict()) == sorted(f.name for f in fields(cfg))

    def test_pickle_round_trip(self):
        cfg = FuzzConfig(seed=3, atoms=14)
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and repr(copy) == repr(cfg) and copy.to_dict() == cfg.to_dict()
        for pid in PostulateId:
            assert (render_instance(gen_instance(pid, copy, random.Random(1), Strategy.HULL))
                    == render_instance(gen_instance(pid, cfg, random.Random(1), Strategy.HULL)))


class TestSearch:
    def test_reports_are_byte_identical(self):
        cfg = FuzzConfig(seed=12, trials=40,
                         postulates=(PostulateId.SA1, PostulateId.FP5))
        assert search(cfg).to_json() == search(cfg).to_json()

    def test_reports_identical_across_processes(self):
        # set-iteration order must never leak into the report
        import os
        import subprocess
        import sys

        snippet = (
            "from fcmerge.fuzz import FuzzConfig, search\n"
            "from fcmerge import PostulateId\n"
            "cfg = FuzzConfig(seed=5, trials=25,"
            " postulates=(PostulateId.SA5, PostulateId.FP6))\n"
            "print(search(cfg).to_json())\n"
        )

        def run_with_hashseed(value: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=value)
            out = subprocess.run([sys.executable, "-c", snippet], env=env,
                                 capture_output=True, text=True, check=True)
            return out.stdout

        assert run_with_hashseed("1") == run_with_hashseed("99")

    def test_guaranteed_postulates_never_violate(self):
        cfg = FuzzConfig(seed=12, trials=150, postulates=(
            PostulateId.SA1, PostulateId.SA2, PostulateId.SA3,
            PostulateId.SA4, PostulateId.SA7, PostulateId.SA8,
        ))
        report = search(cfg)
        assert not report.violations
        assert not report.guaranteed_violations

    def test_syntax_dependence_is_found(self):
        cfg = FuzzConfig(seed=3, trials=150, strategies=(Strategy.RANK,),
                         postulates=(PostulateId.SA5,))
        report = search(cfg)
        (cell,) = report.cells
        assert (cell.postulate, cell.strategy) == ("SA5", "rk")
        assert cell.violated >= 1
        assert not report.guaranteed_violations

    def test_skipped_on_size_limit(self, monkeypatch):
        monkeypatch.setenv("FCMERGE_MAX_ENUM", "0")
        cfg = FuzzConfig(seed=1, trials=30, strategies=(Strategy.HULL,),
                         postulates=(PostulateId.SA1,))
        report = search(cfg)
        (cell,) = report.cells
        assert (cell.postulate, cell.strategy) == ("SA1", "h")
        assert cell.skipped > 0
        assert cell.skipped + cell.holds + cell.vacuous + cell.violated == 30

    def test_evaluation_records_present(self):
        cfg = FuzzConfig(seed=2, trials=5, strategies=(Strategy.RANK,),
                         postulates=(PostulateId.FP0,))
        report = search(cfg)
        assert len(report.evaluations) == 5
        assert {e.status for e in report.evaluations} <= {"holds", "violated", "vacuous", "skipped"}

    def test_violation_records_carry_instances(self):
        cfg = FuzzConfig(seed=3, trials=150, strategies=(Strategy.RANK,),
                         postulates=(PostulateId.FP6,))
        report = search(cfg)
        assert report.violations
        v = report.violations[0]
        assert v.instance["programs"]
        assert v.witness


class TestShrink:
    def test_rejects_nonholding_predicate(self):
        inst = Instance(Strategy.RANK, programs={"P": prog("a."), "Q": prog("b.")})
        with pytest.raises(PredicateNotHolding):
            shrink(inst, lambda i: False)

    def test_removals_come_in_a_fixed_order(self):
        # program rules, then per profile its members and their rules, then
        # per atom in name order the rules mentioning it.  The order within
        # one removal follows set iteration and does not change its result
        inst = Instance(Strategy.RANK, programs={"P": prog("a -> b. c.")},
                        profiles={"profile1": Profile((prog("a."), prog("b -> c.")))})
        removals = [{(name, i, str(rule)) for name, i, rule in sites}
                    for sites in _removals(inst)]
        assert removals == [
            {("P", -1, "a -> b.")}, {("P", -1, "c.")},
            {("profile1", 0, "a.")}, {("profile1", 1, "b -> c.")},
            {("profile1", 0, "a.")}, {("profile1", 1, "b -> c.")},
            {("P", -1, "a -> b."), ("profile1", 0, "a.")},
            {("P", -1, "a -> b."), ("profile1", 1, "b -> c.")},
            {("P", -1, "c."), ("profile1", 1, "b -> c.")},
        ]

    def test_already_minimal_unchanged(self):
        inst = Instance(Strategy.RANK, programs={"P": prog("a."), "Q": prog("")})
        result = shrink(inst, lambda i: prog("a.") == i.programs["P"])
        assert result == inst

    def test_removes_irrelevant_rules(self):
        inst = Instance(Strategy.RANK, programs={
            "P": prog("a. b -> c. d -> e."),
            "Q": prog("x. y -> z."),
        })
        result = shrink(inst, lambda i: "a." in str(i.programs["P"]))
        assert result.programs["P"] == prog("a.")
        assert result.programs["Q"] == prog("")
        assert total_rules(result) == 1

    def test_profile_members_are_dropped(self):
        inst = Instance(
            Strategy.RANK,
            programs={"constraint": prog("a.")},
            profiles={"profile1": Profile((prog("b."), prog("c. d -> e.")))},
        )

        def pred(i):
            return any("b." in str(m) for m in i.profiles["profile1"])

        result = shrink(inst, pred)
        assert result.profiles["profile1"] == Profile((prog("b."),))

    def test_atom_is_stripped_everywhere_at_once(self):
        # no single rule or member can go, but every rule mentioning a can:
        # P and Q lose theirs, and the member a -> c. is left empty and dropped
        inst = Instance(
            Strategy.RANK,
            programs={"P": prog("a."), "Q": prog("a -> b.")},
            profiles={"profile1": Profile((prog("a -> c."), prog("d.")))},
        )

        def pred(i):
            return len(i.programs["P"]) == len(i.programs["Q"]) == len(i.profiles["profile1"]) - 1

        result = shrink(inst, pred)
        assert result.programs == {"P": prog(""), "Q": prog("")}
        assert result.profiles == {"profile1": Profile((prog("d."),))}

    def test_one_member_profile_is_never_emptied(self):
        inst = Instance(
            Strategy.RANK,
            programs={"P": prog("c.")},
            profiles={"profile1": Profile((prog("a. b."),))},
        )
        result = shrink(inst, lambda i: True)
        assert result.programs == {"P": prog("")}
        assert result.profiles == {"profile1": Profile((prog("b."),))}

    def test_two_profile_witness_shrinks_to_recorded_result(self):
        # an FP6 violation under hull revision found by the fuzzer (seed 0);
        # which local minimum shrink reaches depends on the order in which
        # it tries removals, so the exact result pins that order
        inst = Instance(
            Strategy.HULL,
            programs={"constraint": prog("f.")},
            profiles={
                "profile1": parse_profile("a, e -> a.\ne."),
                "profile2": parse_profile(
                    "-e -> -d.\n-e, -f -> d.\n-f.\na.\nb, d -> f.\nb.\nd.\n---\nb -> -a."),
            },
        )

        def violated(i):
            return check(PostulateId.FP6, i).status is Status.VIOLATED

        result = shrink(inst, violated)
        assert render_instance(result) == {
            "strategy": "h",
            "programs": {"constraint": ""},
            "profiles": {"profile1": "e.", "profile2": "-f.\nb, d -> f.\nb.\nd."},
        }

    def test_shrunk_violation_stays_violated_and_small(self):
        cfg = FuzzConfig(seed=3, trials=150, strategies=(Strategy.RANK,),
                         postulates=(PostulateId.SA5,))
        report = search(cfg)
        assert report.violations
        trial = report.violations[0].trial
        from fcmerge.fuzz import _stream
        rng = _stream(cfg.seed, PostulateId.SA5, Strategy.RANK, trial)
        inst = gen_instance(PostulateId.SA5, cfg, rng, Strategy.RANK)

        def violated(i):
            return check(PostulateId.SA5, i).status is Status.VIOLATED

        assert violated(inst)
        small = shrink(inst, violated)
        assert violated(small)
        assert total_rules(small) <= total_rules(inst)
        # the canonical hand-built witness needs 6 rules across 4 programs
        assert total_rules(small) <= 7
