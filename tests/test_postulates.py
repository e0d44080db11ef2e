import copy
import inspect
import json
import pickle
import re
from pathlib import Path

import pytest

from fcmerge import (
    IncompleteBinding,
    Instance,
    PostulateId,
    Profile,
    SourceError,
    Status,
    Strategy,
    Verdict,
    check,
    guaranteed,
    run_corpus,
)
from fcmerge.postulates import POSTULATES, adjoin_program, as_program, bind
from fcmerge.core import BOTTOM, ClosedSet, closure

from helpers import GAP_P, GAP_Q, closed, prog

ALL = tuple(Strategy)


def sa_pair(p, q, strategy=Strategy.RANK, **extra):
    return Instance(strategy, programs={"P": p, "Q": q, **extra})


class TestSaCheckers:
    @pytest.mark.parametrize("strategy", ALL)
    def test_sa5_syntax_dependence_violated(self, strategy):
        inst = Instance(strategy, programs={
            "P1": prog("a -> c. b."),
            "P2": prog("b."),
            "Q1": prog("b -> c. a."),
            "Q2": prog("a."),
        })
        verdict = check(PostulateId.SA5, inst)
        assert verdict.status is Status.VIOLATED
        assert verdict.witness["arb(P1, Q1)"] == "a, b, c"
        assert verdict.witness["arb(P2, Q2)"] == "a, b"

    def test_sa5_vacuous_when_closures_differ(self):
        inst = Instance(Strategy.RANK, programs={
            "P1": prog("a."), "P2": prog("b."),
            "Q1": prog("c."), "Q2": prog("c."),
        })
        assert check(PostulateId.SA5, inst).status is Status.VACUOUS

    @pytest.mark.parametrize("strategy", ALL)
    def test_sa6_trichotomy_violated(self, strategy):
        inst = Instance(strategy, programs={
            "P": prog("a -> b. a -> c. e."),
            "Q1": prog("a."),
            "Q2": prog("b."),
        })
        verdict = check(PostulateId.SA6, inst)
        assert verdict.status is Status.VIOLATED
        assert verdict.witness["arb(P, disj(Q1, Q2))"] == "e"
        assert verdict.witness["arb(P, Q1)"] == "a, b, c, e"
        assert verdict.witness["arb(P, Q2)"] == "b, e"
        assert verdict.witness["disj(arb(P, Q1), arb(P, Q2))"] == "b, e"

    @pytest.mark.parametrize("strategy", ALL)
    def test_sa6_with_inconsistent_disjuncts(self, strategy):
        # the disjunction collapses; arbitration falls back to P alone
        inst = Instance(strategy, programs={
            "P": prog("c."),
            "Q1": prog("a. -a."),
            "Q2": prog("b. -b."),
        })
        verdict = check(PostulateId.SA6, inst)
        assert verdict.status is Status.HOLDS
        assert verdict.witness["arb(P, disj(Q1, Q2))"] == "c"

    def test_sa6_names_the_fresh_atom_outside_the_vocabulary(self):
        # disj(Q1, Q2) is bottom, so as_program needs an atom fresh for P,
        # Q1 and Q2: bot would let P's rules on it derive x under eh
        inst = Instance(Strategy.EXTENDED_HULL, programs={
            "P": prog("bot -> x. -bot -> x."),
            "Q1": prog("a. -a."),
            "Q2": prog("b. -b."),
        })
        verdict = check(PostulateId.SA6, inst)
        assert verdict.status is Status.HOLDS
        assert verdict.witness["arb(P, disj(Q1, Q2))"] == ""

    @pytest.mark.parametrize("strategy", ALL)
    def test_sa1_holds(self, strategy):
        verdict = check(PostulateId.SA1, sa_pair(prog(GAP_P), prog(GAP_Q), strategy))
        assert verdict.status is Status.HOLDS

    def test_sa3_vacuous_on_conflict(self):
        verdict = check(PostulateId.SA3, sa_pair(prog("a."), prog("-a.")))
        assert verdict.status is Status.VACUOUS

    def test_sa3_nonvacuous_holds(self):
        verdict = check(PostulateId.SA3, sa_pair(prog("a."), prog("b.")))
        assert verdict.status is Status.HOLDS

    def test_sa4_biconditional_both_directions(self):
        both = sa_pair(prog("a. -a."), prog("b. -b."))
        assert check(PostulateId.SA4, both).status is Status.HOLDS
        one = sa_pair(prog("a. -a."), prog("b."))
        assert check(PostulateId.SA4, one).status is Status.HOLDS

    def test_sa8_vacuous_for_inconsistent_base(self):
        verdict = check(PostulateId.SA8, sa_pair(prog("a. -a."), prog("b.")))
        assert verdict.status is Status.VACUOUS

    def test_sa8_holds_on_conflict_pair(self):
        verdict = check(PostulateId.SA8, sa_pair(prog(GAP_P), prog(GAP_Q)))
        assert verdict.status is Status.HOLDS


class TestFpCheckers:
    @pytest.mark.parametrize("strategy", ALL)
    def test_fp3_syntax_dependence_violated(self, strategy):
        inst = Instance(
            strategy,
            programs={"P": prog("a."), "Q": prog("a.")},
            profiles={"profile1": Profile((prog("a -> b."),)),
                      "profile2": Profile((prog("a -> c."),))},
        )
        verdict = check(PostulateId.FP3, inst)
        assert verdict.status is Status.VIOLATED
        assert verdict.witness["merge(P, profile1)"] == "a, b"
        assert verdict.witness["merge(Q, profile2)"] == "a, c"

    def test_fp3_vacuous_when_not_paired(self):
        inst = Instance(
            Strategy.RANK,
            programs={"P": prog("a."), "Q": prog("a.")},
            profiles={"profile1": Profile((prog("a -> b."),)),
                      "profile2": Profile((prog("b."),))},
        )
        assert check(PostulateId.FP3, inst).status is Status.VACUOUS

    def test_fp3_pairs_profiles_up_to_member_order(self):
        x, y = prog("a."), prog("b -> c. b.")
        inst = Instance(
            Strategy.RANK,
            programs={"P": prog("a."), "Q": prog("a.")},
            profiles={"profile1": Profile((x, y)), "profile2": Profile((y, x))},
        )
        assert check(PostulateId.FP3, inst).status is Status.HOLDS

    @pytest.mark.parametrize("strategy", ALL)
    def test_fp5_violated(self, strategy):
        inst = Instance(
            strategy,
            programs={"constraint": prog("a.")},
            profiles={"profile1": Profile((prog("a -> b."),)),
                      "profile2": Profile((prog("b -> c."),))},
        )
        verdict = check(PostulateId.FP5, inst)
        assert verdict.status is Status.VIOLATED
        w = verdict.witness
        assert w["merge(profile1 + profile2)"] == "a, b, c"
        assert w["merge(profile1)"] == "a, b"
        assert w["merge(profile2)"] == "a"
        assert w["union"] == "a, b"

    @pytest.mark.parametrize("strategy", ALL)
    def test_fp7_violated(self, strategy):
        inst = Instance(
            strategy,
            programs={"constraint": prog("c."), "Q": prog("a.")},
            profiles={"profile1": Profile((prog("a -> b."),))},
        )
        verdict = check(PostulateId.FP7, inst)
        assert verdict.status is Status.VIOLATED
        assert verdict.witness["merge(constraint, profile) + Q"] == "a, c"
        assert verdict.witness["merge(constraint + Q, profile)"] == "a, b, c"

    @pytest.mark.parametrize("strategy", ALL)
    def test_fp8_violated(self, strategy):
        inst = Instance(
            strategy,
            programs={"constraint": prog("a."), "Q": prog("b.")},
            profiles={"profile1": Profile((prog("a -> c. b -> -c."),))},
        )
        verdict = check(PostulateId.FP8, inst)
        assert verdict.status is Status.VIOLATED
        assert verdict.witness["merge(constraint + Q, profile)"] == "a, b"
        assert verdict.witness["merge(constraint, profile) + Q"] == "a, b, c"

    @pytest.mark.parametrize("strategy", ALL)
    def test_fp0_holds(self, strategy):
        inst = Instance(
            strategy,
            programs={"constraint": prog("a.")},
            profiles={"profile1": Profile((prog("-a. b."),))},
        )
        assert check(PostulateId.FP0, inst).status is Status.HOLDS

    def test_fp1_vacuous_for_inconsistent_constraint(self):
        inst = Instance(
            Strategy.RANK,
            programs={"constraint": prog("a. -a.")},
            profiles={"profile1": Profile((prog("b."),))},
        )
        assert check(PostulateId.FP1, inst).status is Status.VACUOUS

    def test_fp4_hull_violated_rank_holds(self):
        programs = {
            "constraint": prog("a. b -> c. d -> c."),
            "P1": prog("a. a -> d. a, d -> c."),
            "P2": prog("a. b. c -> -b. a -> d."),
        }
        for strategy in (Strategy.HULL, Strategy.EXTENDED_HULL):
            verdict = check(PostulateId.FP4, Instance(strategy, programs=dict(programs)))
            assert verdict.status is Status.VIOLATED
            assert verdict.witness["merge"] == "a, c, d"
            assert verdict.witness["cns(merge + P2)"] == "#bottom"
        verdict = check(PostulateId.FP4, Instance(Strategy.RANK, programs=dict(programs)))
        assert verdict.status is Status.HOLDS
        assert verdict.witness["merge"] == "a"

    def test_fp4_vacuous_without_entailment(self):
        inst = Instance(Strategy.RANK, programs={
            "constraint": prog("a."),
            "P1": prog("b."),
            "P2": prog("a. c."),
        })
        assert check(PostulateId.FP4, inst).status is Status.VACUOUS


class TestCheckPlumbing:
    def test_missing_binding(self):
        with pytest.raises(IncompleteBinding, match="missing Q"):
            check(PostulateId.SA1, Instance(Strategy.RANK, programs={"P": prog("a.")}))

    def test_extra_binding(self):
        inst = Instance(Strategy.RANK,
                        programs={"P": prog("a."), "Q": prog("b."), "R": prog("c.")})
        with pytest.raises(IncompleteBinding, match="unexpected R"):
            check(PostulateId.SA1, inst)

    @pytest.mark.parametrize("pid, bindings, message", [
        (PostulateId.SA1, {"programs": {"P": prog("a.")}}, "SA1: missing Q"),
        (PostulateId.SA1, {"programs": {"P": prog("a."), "Q": prog("b."), "R": prog("c."),
                                        "A": prog("c.")}}, "SA1: unexpected A, R"),
        (PostulateId.FP3, {"programs": {"P": prog("a.")},
                           "profiles": {"profile2": (prog("b."),), "extra": (prog("c."),)}},
         "FP3: missing Q, profile1; unexpected extra"),
        # the right names in all, but a program variable under profiles (or
        # the reverse) is missing on one side and unexpected on the other
        (PostulateId.SA1, {"programs": {"P": prog("a.")}, "profiles": {"Q": (prog("b."),)}},
         "SA1: missing Q; unexpected Q"),
        (PostulateId.FP3, {"programs": {"P": prog("a."), "Q": prog("a."), "profile1": prog("a.")},
                           "profiles": {"profile2": (prog("b."),)}},
         "FP3: missing profile1; unexpected profile1"),
    ])
    def test_binding_problems_keep_their_message(self, pid, bindings, message):
        with pytest.raises(IncompleteBinding) as info:
            check(pid, Instance(Strategy.RANK, **bindings))
        assert str(info.value) == message

    @pytest.mark.parametrize("pid", [PostulateId.SA5, PostulateId.FP3, PostulateId.FP7])
    def test_bindings_in_any_order_evaluate_by_name(self, pid):
        # check looks each value up by its variable's name, not by position
        spec = POSTULATES[pid]
        values = [prog(f"{chr(97 + i)}. x{i} -> {chr(97 + i)}.")
                  for i in range(len(spec.program_vars))]
        values += [(prog(f"-{chr(97 + i)}."), prog("z."))
                   for i in range(len(spec.profile_vars))]
        row = bind(pid, Strategy.HULL, values)
        shuffled = Instance(Strategy.HULL, programs=dict(reversed(row.programs.items())),
                            profiles=dict(reversed(row.profiles.items())))
        assert list(shuffled.programs) != list(spec.program_vars)
        assert check(pid, shuffled) == check(pid, row)
        assert check(pid, shuffled).witness == check(pid, row).witness

    @pytest.mark.parametrize("pid", tuple(PostulateId))
    def test_evaluator_takes_the_row_order(self, pid):
        # check and bind pass values by position, so an evaluator's
        # parameters must name its row's variables in the row's order
        spec = POSTULATES[pid]
        params = list(inspect.signature(spec.evaluate).parameters)
        assert params[0] == "strategy"
        assert params[1:] == [v.lower() for v in spec.program_vars + spec.profile_vars]

    def test_bind_follows_the_row_order(self):
        p1, p2, q1, q2 = prog("a."), prog("b."), prog("c."), prog("d.")
        inst = bind(PostulateId.SA5, Strategy.HULL, (p1, p2, q1, q2))
        assert inst == Instance(Strategy.HULL,
                                programs={"P1": p1, "P2": p2, "Q1": q1, "Q2": q2})
        profile1, profile2 = (prog("a."),), (prog("b."),)
        inst = bind(PostulateId.FP3, Strategy.RANK, (p1, q1, profile1, profile2))
        assert inst == Instance(Strategy.RANK, programs={"P": p1, "Q": q1},
                                profiles={"profile1": profile1, "profile2": profile2})

    def test_violated_verdict_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(Status.VIOLATED)

    @pytest.mark.parametrize("pid, programs, status, witness", [
        (PostulateId.SA1, {"P": "a. a -> b.", "Q": "c."}, Status.HOLDS,
         {"arb(P, Q)": "a, b, c", "arb(Q, P)": "a, b, c"}),
        (PostulateId.FP4, {"constraint": "a. a -> c.", "P1": "b.", "P2": "a. -a."},
         Status.VACUOUS,
         {"cns(P1)": "b", "cns(P2)": "#bottom", "cns(constraint)": "a, c"}),
        # a conflicting pair pools to the inconsistent value, which includes
        # the empty arbitration but is not included in it
        (PostulateId.SA2, {"P": "a.", "Q": "-a."}, Status.HOLDS,
         {"arb(P, Q)": "", "conj(P, Q)": "#bottom"}),
        (PostulateId.SA3, {"P": "a.", "Q": "b."}, Status.HOLDS,
         {"conj(P, Q)": "a, b", "arb(P, Q)": "a, b"}),
        (PostulateId.SA4, {"P": "a.", "Q": "b."}, Status.HOLDS,
         {"arb(P, Q)": "a, b", "cns(P)": "a", "cns(Q)": "b"}),
        (PostulateId.SA5, {"P1": "a.", "P2": "b.", "Q1": "c.", "Q2": "c."}, Status.VACUOUS,
         {"cns(P1)": "a", "cns(P2)": "b", "cns(Q1)": "c", "cns(Q2)": "c"}),
        (PostulateId.SA7, {"P": "a.", "Q": "b."}, Status.HOLDS,
         {"disj(P, Q)": "", "arb(P, Q)": "a, b"}),
        (PostulateId.SA8, {"P": "a. -a.", "Q": "b."}, Status.VACUOUS, {"cns(P)": "#bottom"}),
        (PostulateId.SA8, {"P": "a.", "Q": "b."}, Status.HOLDS,
         {"arb(P, Q)": "a, b", "conj(P, arb(P, Q))": "a, b"}),
    ], ids=["SA1-holds", "FP4-vacuous", "SA2-conflict", "SA3-holds", "SA4-holds",
            "SA5-vacuous", "SA7-holds", "SA8-vacuous", "SA8-holds"])
    def test_witness_is_rendered_when_read(self, pid, programs, status, witness,
                                           monkeypatch):
        renders = []
        render = ClosedSet.__str__
        monkeypatch.setattr(ClosedSet, "__str__",
                            lambda c: renders.append(c) or render(c))
        inst = Instance(Strategy.RANK,
                        programs={k: prog(t) for k, t in programs.items()})
        verdict = check(pid, inst)
        assert verdict.status is status
        assert renders == []
        # equal as dicts, and in the evaluator's label order, as the tuple was
        assert list(verdict.witness.items()) == list(witness.items())
        assert len(renders) == len(witness)

    def test_witness_is_a_fresh_dict_in_label_order(self):
        verdict = Verdict(Status.VIOLATED, (("z", closed("a")), ("a", BOTTOM), ("m", closed())))
        witness = verdict.witness
        assert type(witness) is dict
        assert list(witness.items()) == [("z", "a"), ("a", "#bottom"), ("m", "")]
        witness["z"] = "changed"
        assert verdict.witness["z"] == "a"
        assert Verdict(Status.HOLDS).witness == {}

    def test_postulate_id_parsing(self):
        assert PostulateId.parse("sa5") is PostulateId.SA5
        assert PostulateId.parse("Fp3") is PostulateId.FP3
        assert PostulateId.parse("FP0") is PostulateId.FP0
        with pytest.raises(ValueError, match=r"^unknown postulate 'SA9'$"):
            PostulateId.parse("SA9")
        with pytest.raises(ValueError, match=r"^unknown postulate ' sa5'$"):
            PostulateId.parse(" sa5")

    def test_postulate_ids_are_the_row_keys(self):
        assert list(PostulateId) == list(POSTULATES)
        assert [pid.name for pid in PostulateId] == [
            *(f"SA{i}" for i in range(1, 9)), *(f"FP{i}" for i in range(9))]
        assert all(pid.value == pid.name for pid in PostulateId)
        assert [pid.family for pid in PostulateId] == ["SA"] * 8 + ["FP"] * 9
        assert repr(PostulateId.SA5) == "<PostulateId.SA5: 'SA5'>"
        assert PostulateId("FP4") is PostulateId.FP4 is PostulateId["FP4"]

    def test_postulate_ids_pickle_and_copy_as_themselves(self):
        for pid in PostulateId:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(pid, protocol)) is pid
            assert copy.deepcopy(pid) is pid
            assert copy.copy(pid) is pid


class TestHelpers:
    def test_adjoin_program_propagates_bottom(self):
        assert adjoin_program(BOTTOM, prog("a.")).is_bottom

    def test_adjoin_program_closes(self):
        assert adjoin_program(closed("a"), prog("a -> b.")) == closed("a", "b")

    def test_as_program_uses_fresh_atom(self):
        for avoid, atom in (({"a"}, "bot"), ({"bot"}, "bot0"), ({"bot", "bot0"}, "bot1")):
            p = as_program(BOTTOM, frozenset(avoid))
            assert closure(p).is_bottom
            assert p.atoms() == {atom}

    def test_as_program_consistent_roundtrip(self):
        assert closure(as_program(closed("a", "-b"), frozenset())) == closed("a", "-b")


class TestGuaranteed:
    def test_table(self):
        for strategy in ALL:
            for pid in (PostulateId.SA1, PostulateId.SA2, PostulateId.SA3,
                        PostulateId.SA4, PostulateId.SA7, PostulateId.SA8,
                        PostulateId.FP0, PostulateId.FP1, PostulateId.FP2):
                assert guaranteed(pid, strategy)
            for pid in (PostulateId.SA5, PostulateId.SA6, PostulateId.FP3,
                        PostulateId.FP5, PostulateId.FP6, PostulateId.FP7,
                        PostulateId.FP8):
                assert not guaranteed(pid, strategy)
        assert guaranteed(PostulateId.FP4, Strategy.RANK)
        assert not guaranteed(PostulateId.FP4, Strategy.HULL)
        assert not guaranteed(PostulateId.FP4, Strategy.EXTENDED_HULL)


class TestCorpus:
    def test_bundled_corpus_matches(self):
        report = run_corpus()
        assert report.all_match
        assert len(report.results) > 40

    def test_empty_corpus_succeeds(self, tmp_path: Path):
        (tmp_path / "expectations.json").write_text(json.dumps({"entries": []}))
        report = run_corpus(tmp_path)
        assert report.all_match
        assert report.results == ()

    def test_mismatch_is_reported(self, tmp_path: Path):
        (tmp_path / "p.fc").write_text("a.\n")
        (tmp_path / "q.fc").write_text("b.\n")
        (tmp_path / "expectations.json").write_text(json.dumps({
            "entries": [{
                "name": "bogus",
                "kind": "arbitration",
                "programs": {"P": "p.fc", "Q": "q.fc"},
                "expect_results": {"rk": "zzz"},
            }]
        }))
        report = run_corpus(tmp_path)
        assert not report.all_match
        assert report.to_text() == ("FAIL  bogus [rk] arbitration: expected zzz, got a, b\n"
                                    "1 evaluations: MISMATCHES FOUND")

    def test_separator_in_a_corpus_program_is_named(self, tmp_path: Path):
        # entry programs load as check's bindings do, one program a file
        (tmp_path / "p.fc").write_text("a.\n---\nb.\n")
        (tmp_path / "q.fc").write_text("b.\n")
        (tmp_path / "expectations.json").write_text(json.dumps({
            "entries": [{
                "name": "flock",
                "kind": "arbitration",
                "programs": {"P": "p.fc", "Q": "q.fc"},
                "expect_results": {"rk": "a, b"},
            }]
        }))
        where = re.escape(str(tmp_path / "p.fc"))
        with pytest.raises(SourceError, match=f"^{where}:2:1: a '---' line separates programs"):
            run_corpus(tmp_path)

    def test_value_mismatch_is_flagged(self, tmp_path: Path):
        (tmp_path / "p.fc").write_text("a.\n")
        (tmp_path / "q.fc").write_text("b.\n")
        (tmp_path / "expectations.json").write_text(json.dumps({
            "entries": [{
                "name": "bad-value",
                "kind": "postulate",
                "postulate": "SA1",
                "strategies": ["rk"],
                "programs": {"P": "p.fc", "Q": "q.fc"},
                "expect": "holds",
                "values": {"arb(P, Q)": "wrong"},
            }]
        }))
        report = run_corpus(tmp_path)
        assert not report.all_match
        assert any("expected" in note for r in report.results for note in r.notes)
