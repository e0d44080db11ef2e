import json
import pickle
import random
from dataclasses import fields
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    ConfigError,
    Instance,
    PostulateId,
    PredicateNotHolding,
    Profile,
    Program,
    Status,
    Strategy,
    check,
    gen_instance,
    gen_program,
    parse_profile,
    search,
    shrink,
)
from fcmerge import fuzz
from fcmerge.core import closure
from fcmerge.fuzz import (
    CellSummary,
    EvalRecord,
    FuzzConfig,
    FuzzReport,
    Violation,
    _below,
    _removals,
    _stream,
    atom_pool,
    render_instance,
)

from helpers import prog, run_fresh, total_rules
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


class _BoundedBits(random.Random):
    """The Mersenne Twister, but getrandbits fails the test after 1,000
    calls: a rejection loop that never ends fails instead of hanging."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 1000:
            raise AssertionError("a rejection loop does not end")
        return super().getrandbits(k)


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

    def test_empty_pool_raises_as_choice_does(self):
        # getrandbits(0) is 0, so a draw from no atoms must raise, not
        # redraw forever; a program of no rules draws no atom
        counts = set()
        for seed in range(30):
            cfg = FuzzConfig(rules=seed % 3)
            count = random.Random(seed).randint(0, cfg.rules)
            if count:
                with pytest.raises(IndexError):
                    gen_program(cfg, _BoundedBits(seed), ())
            else:
                assert gen_program(cfg, _BoundedBits(seed), ()) == Program()
            counts.add(count)
        assert counts == {0, 1, 2}
        with pytest.raises(IndexError):
            _below(_BoundedBits(0).getrandbits, 0)


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


def _matching_instances(atoms, neg_prob=FuzzConfig.neg_prob, pids=tuple(PostulateId)):
    """Each instance gen_instance draws over a grid of configs, asserting that
    the reference generator draws the same one from the same state."""
    # pools of 2**j and 2**j + 1 atoms, and 1, 2, 5, 8 or 9 choices of
    # a body size or rule count, sit at the edges of randrange's
    # rejection rule; equal generator states after the draw show that
    # no draw was added or left out where the instance would hide it
    for body_len, rules, trial in product((0, 1, 4, 7), (0, 1, 8), range(3)):
        cfg = FuzzConfig(seed=atoms, atoms=atoms, rules=rules, body_len=body_len,
                         neg_prob=neg_prob)
        for pid, strategy in product(pids, Strategy):
            rng, ref = _stream(atoms, pid, strategy, trial), _stream(atoms, pid, strategy, trial)
            instance = gen_instance(pid, cfg, rng, strategy)
            reference = reference_gen_instance(pid, cfg, ref, strategy)
            assert render_instance(instance) == render_instance(reference)
            assert rng.getstate() == ref.getstate()
            yield instance


class TestLiteralTable:
    """A campaign builds each literal it draws once, in core's table of
    canonical literals; the draws, and so the instances, are those of a
    generator that calls Literal per draw."""

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4, 5, 6, 8, 9, 14, 16, 17])
    def test_instances_match_the_reference_generator(self, atoms):
        seen = {a for instance in _matching_instances(atoms)
                for p in instance.programs.values() for a in p.atoms()}
        # the second pool reaches the table's last atoms, x32 and x33 at 17
        assert set(atom_pool(2 * atoms)[-2:]) <= seen

    @pytest.mark.parametrize("neg_prob", [0.0, 1.0])
    @pytest.mark.parametrize("atoms", [1, 2, 17])
    def test_sign_edges_match_the_reference_generator(self, atoms, neg_prob):
        # a sign is draw() >= neg_prob: 0.0 makes every drawn literal positive
        # and 1.0 every one negative (draw() < 1); heads are drawn or derived
        # from drawn ones, while an inert variant's body may take either sign
        heads = {r.head.positive for instance in _matching_instances(atoms, neg_prob)
                 for p in chain(instance.programs.values(), *instance.profiles.values())
                 for r in p.rules}
        assert heads == {neg_prob == 0.0}

    def test_variants_of_an_inconsistent_program_match_the_reference(self, monkeypatch):
        # _equivalent_variant adds one drawn rule to a program whose closure
        # is bottom; these runs take that branch as well as the others
        bottoms = []
        variant = fuzz._equivalent_variant

        def spy(p, *args):
            bottoms.append(closure(p).is_bottom)
            return variant(p, *args)
        monkeypatch.setattr(fuzz, "_equivalent_variant", spy)
        for atoms in (1, 2):
            list(_matching_instances(atoms, pids=(PostulateId.SA5, PostulateId.FP3)))
        assert any(bottoms) and not all(bottoms)

    @pytest.mark.parametrize("pool", [
        ("c", "x40", "zz_top"), ("a", "q"), ("zz_top",), ("q", "x40", "a", "m"),
        ("m", "b", "x40", "zz_top", "q"),
    ])
    def test_pool_outside_the_table_matches_the_reference(self, pool):
        cfg = FuzzConfig(atoms=1, neg_prob=0.5, body_len=4)
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            assert gen_program(cfg, rng, pool) == reference_gen_program(cfg, ref, pool)
            assert rng.getstate() == ref.getstate()

    def test_fixed_run_builds_each_literal_once(self):
        # pinned work, which may only fall: in a fresh interpreter the run adds
        # 24 canonical literals, 12 atoms of both signs, and builds no other
        # (63,930 when every draw built its own)
        script = ("from fcmerge import FuzzConfig, search\n"
                  "from fcmerge.core import LITERALS\n"
                  "held = sum(map(len, LITERALS))\n"
                  "search(FuzzConfig(seed=7, trials=40))\n"
                  "print(sum(map(len, LITERALS)) - held)\n")
        assert run_fresh(["-c", script]) == "24\n"

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
        snippet = (
            "from fcmerge.fuzz import FuzzConfig, search\n"
            "from fcmerge import PostulateId\n"
            "cfg = FuzzConfig(seed=5, trials=25,"
            " postulates=(PostulateId.SA5, PostulateId.FP6))\n"
            "print(search(cfg).to_json())\n"
        )

        assert (run_fresh(["-c", snippet], PYTHONHASHSEED="1")
                == run_fresh(["-c", snippet], PYTHONHASHSEED="99"))

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

    def test_violation_witness_is_the_verdicts(self):
        # the verdict's label-to-text dict, in label order, in the record,
        # its JSON and its text lines alike
        cfg = FuzzConfig(seed=3, trials=40, strategies=(Strategy.RANK,),
                         postulates=(PostulateId.FP6,))
        report = search(cfg)
        v = report.violations[0]
        rng = _stream(cfg.seed, PostulateId.FP6, Strategy.RANK, v.trial)
        verdict = check(PostulateId.FP6, gen_instance(PostulateId.FP6, cfg, rng, Strategy.RANK))
        assert list(v.witness.items()) == list(verdict.witness.items())
        assert json.loads(report.to_json())["violations"][0]["witness"] == v.witness
        assert report.to_dict()["violations"][0] == {
            "postulate": "FP6", "strategy": "rk", "trial": v.trial,
            "instance": v.instance, "witness": v.witness, "guaranteed": False}
        text = report.to_text().splitlines()
        start = text.index(f"violation: FP6 [rk] trial {v.trial}") + 1
        start += len(v.instance["programs"]) + len(v.instance["profiles"])
        assert text[start:start + len(v.witness)] == [
            f"  {key} = {value}" for key, value in verdict.witness.items()]


def _stdlib_json(report: FuzzReport) -> str:
    # what to_json printed while it was this one json.dumps call
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


# text that JSON escapes or that looks like the layout to_json splices at
_AWKWARD = ['say "no"', "back\\slash", "two\nlines", "tab\there", "Größe ≤ ∅",
            "},\n      {", '"},\n      {"', "}, {", ""]
awkward_text = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=12))


@st.composite
def built_reports(draw) -> FuzzReport:
    """A report made by hand, every string of it awkward text."""
    text, count = awkward_text, st.integers(0, 3)
    cells = draw(st.lists(st.builds(CellSummary, text, text, count, count, count, count),
                          max_size=3))
    evaluations = draw(st.lists(st.builds(EvalRecord, text, text, count, text), max_size=3))
    instance = st.builds(lambda strategy, programs, profiles: {
        "strategy": strategy, "programs": programs, "profiles": profiles},
        text, st.dictionaries(text, text, max_size=2), st.dictionaries(text, text, max_size=2))
    violations = draw(st.lists(st.builds(Violation, text, text, count, instance,
                                         st.dictionaries(text, text, max_size=3), st.booleans()),
                               max_size=2))
    return FuzzReport(FuzzConfig(seed=draw(st.integers(0, 2 ** 64 - 1))),
                      tuple(cells), tuple(evaluations), tuple(violations))


class TestReportJson:
    """to_json lays the record lists out itself; it must print the bytes of
    json.dumps(to_dict(), sort_keys=True, indent=2) for every report."""

    def test_awkward_strings_in_every_record(self):
        cells = tuple(CellSummary(text, text, 1, 2, 3, 4) for text in _AWKWARD)
        evaluations = tuple(EvalRecord(text, "rk", i, text) for i, text in enumerate(_AWKWARD))
        violations = tuple(Violation("SA5", text, 0, {"strategy": text, "programs": {text: text},
                                                        "profiles": {}}, {text: text}, True)
                           for text in _AWKWARD)
        report = FuzzReport(FuzzConfig(), cells, evaluations, violations)
        assert report.to_json() == _stdlib_json(report)
        assert json.loads(report.to_json()) == report.to_dict()

    def test_text_flags_a_guaranteed_violation(self):
        # no campaign has found one, so only a report made by hand shows the flag
        instance = {"strategy": "rk", "programs": {"P": "a."}, "profiles": {}}
        report = FuzzReport(FuzzConfig(), (), (), (
            Violation("SA1", "rk", 3, instance, {"P": "a."}, True),
            Violation("SA5", "h", 4, instance, {}, False)))
        assert report.to_text().splitlines() == [
            "violation: SA1 [rk] trial 3 (GUARANTEED POSTULATE)", "  P: a.", "  P = a.",
            "violation: SA5 [h] trial 4", "  P: a.",
            "0 evaluations, 2 violations, 1 on guaranteed postulates"]

    def test_empty_report(self):
        report = FuzzReport(FuzzConfig(), (), (), ())
        assert report.to_json() == _stdlib_json(report)
        assert '"cells": [],' in report.to_json() and '"violations": []' in report.to_json()

    def test_each_record_list_takes_one_encoder_call(self, monkeypatch):
        # the speed of to_json rests on the cells and the evaluations, most of
        # a report, going through the C encoder whole; an empty list does not
        calls = []

        class Spy:
            def encode(self, value):
                calls.append(value)
                return encoder.encode(value)

        encoder = fuzz._RECORDS
        monkeypatch.setattr(fuzz, "_RECORDS", Spy())
        report = search(FuzzConfig(seed=3, trials=4, strategies=(Strategy.RANK,),
                                   postulates=(PostulateId.SA5, PostulateId.FP6)))
        doc = report.to_dict()
        assert report.to_json() == _stdlib_json(report)
        assert calls == [doc["cells"], doc["evaluations"]]
        empty = FuzzReport(report.config, (), (), ())
        calls.clear()
        assert empty.to_json() == _stdlib_json(empty) and calls == []

    def test_one_record_lists(self):
        cfg = FuzzConfig(seed=4, trials=1, strategies=(Strategy.RANK,),
                         postulates=(PostulateId.SA1,))
        report = search(cfg)
        assert len(report.cells) == len(report.evaluations) == 1
        assert report.to_json() == _stdlib_json(report)

    def test_records_copy_their_fields_only(self):
        # each record's dict holds its dataclass's fields and, for a cell, its
        # non-vacuous count: no attribute that is not a field reaches the JSON,
        # and changing a dict changes neither its record nor the next to_dict
        report = search(FuzzConfig(seed=3, trials=40, strategies=(Strategy.RANK,),
                                   postulates=(PostulateId.SA5, PostulateId.FP6)))
        assert report.violations
        before, doc = report.to_json(), report.to_dict()
        groups = [([report.config], [doc["config"]], set()),
                  (report.cells, doc["cells"], {"non_vacuous"}),
                  (report.evaluations, doc["evaluations"], set()),
                  (report.violations, doc["violations"], set())]
        for records, dicts, extra in groups:
            assert len(records) == len(dicts) > 0
            for record, d in zip(records, dicts):
                assert set(d) == {f.name for f in fields(record)} | extra
                fresh = {f.name: getattr(record, f.name) for f in fields(record)}
                d.clear()
                d["trial"] = -1
                assert {f.name: getattr(record, f.name) for f in fields(record)} == fresh
        assert report.to_dict() != doc and report.to_json() == before
        assert report.to_dict()["cells"][0]["non_vacuous"] == report.cells[0].non_vacuous

    def test_cells_tally_the_evaluations(self):
        # search counts each cell as its verdicts arrive; the counts are those
        # of the cell's evaluation records, and only statuses that occur
        cfg = FuzzConfig(seed=9, trials=30, strategies=(Strategy.RANK, Strategy.HULL),
                         postulates=(PostulateId.SA5, PostulateId.FP4, PostulateId.FP8))
        report = search(cfg)
        assert len(report.cells) == 6
        statuses = set()
        for cell in report.cells:
            mine = [e.status for e in report.evaluations
                    if (e.postulate, e.strategy) == (cell.postulate, cell.strategy)]
            assert len(mine) == cfg.trials
            statuses |= set(mine)
            assert [cell.holds, cell.violated, cell.vacuous, cell.skipped] == [
                mine.count(s.value) for s in (Status.HOLDS, Status.VIOLATED, Status.VACUOUS,
                                              Status.SKIPPED)]
        assert {"holds", "violated", "vacuous"} <= statuses

    @given(seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(1, 2),
           strategies=st.sets(st.sampled_from(Strategy), min_size=1),
           postulates=st.sets(st.sampled_from(PostulateId), min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_searched_reports_print_the_stdlib_bytes(self, seed, trials, strategies, postulates):
        report = search(FuzzConfig(seed=seed, trials=trials, strategies=tuple(strategies),
                                   postulates=tuple(postulates)))
        assert report.to_json() == _stdlib_json(report)

    @given(built_reports())
    @settings(max_examples=200, deadline=None)
    def test_built_reports_print_the_stdlib_bytes(self, report):
        assert report.to_json() == _stdlib_json(report)


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
                    for sites in _removals(inst, str)]
        assert removals == [
            {("P", -1, "a -> b.")}, {("P", -1, "c.")},
            {("profile1", 0, "a.")}, {("profile1", 1, "b -> c.")},
            {("profile1", 0, "a.")}, {("profile1", 1, "b -> c.")},
            {("P", -1, "a -> b."), ("profile1", 0, "a.")},
            {("P", -1, "a -> b."), ("profile1", 1, "b -> c.")},
            {("P", -1, "c."), ("profile1", 1, "b -> c.")},
        ]

    def test_each_distinct_removal_is_asked_once_per_pass(self):
        # the member c. has one rule, and atoms a, c and e occur in one rule
        # each, so _removals names those rules twice; a pass ends when the
        # predicate keeps a candidate
        inst = Instance(Strategy.RANK, programs={"constraint": prog("a. a -> b.")},
                        profiles={"profile1": Profile((prog("c."), prog("d. d -> e.")))})
        a, c, d_e = (prog(t).rules for t in ("a.", "c.", "d -> e."))
        passes = [[]]

        def pred(i):
            passes[-1].append(json.dumps(render_instance(i), sort_keys=True))
            members = i.profiles["profile1"]
            kept = (a <= i.programs["constraint"].rules
                    and any(c <= m.rules for m in members)
                    and any(d_e <= m.rules for m in members))
            if kept:
                passes.append([])
            return kept

        result = shrink(inst, pred)
        assert render_instance(result) == {
            "strategy": "rk", "programs": {"constraint": "a."},
            "profiles": {"profile1": "c.\n---\nd -> e."},
        }
        for asked in passes:
            assert len(asked) == len(set(asked))
        # the input, then 1, 5 and 3 candidates; with the repeats asked
        # again, the last two passes would ask 6 and 9
        assert [len(asked) for asked in passes] == [1, 1, 5, 3]

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
