import json
from pathlib import Path

import pytest

from fcmerge import FuzzConfig, PostulateId, Strategy, run_corpus, search
from fcmerge.cli import run
from fcmerge.fuzz import FuzzReport
from fcmerge.postulates import CorpusReport

from helpers import GAP_P, GAP_Q, run_fresh


@pytest.fixture
def files(tmp_path: Path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def test_cns(files, capsys):
    path = files("p.fc", "a. a -> b.")
    assert run(["cns", path]) == 0
    assert capsys.readouterr().out.strip() == "a, b"


def test_cns_empty_program_prints_empty_line(files, capsys):
    path = files("empty.fc", "")
    assert run(["cns", path]) == 0
    assert capsys.readouterr().out == "\n"


def test_cns_bottom(files, capsys):
    path = files("p.fc", "a. -a.")
    assert run(["cns", path]) == 0
    assert capsys.readouterr().out.strip() == "#bottom"


def test_cns_json_payload(files, capsys):
    path = files("p.fc", "b. a.")
    assert run(["cns", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"command": "cns", "result": "a, b", "is_bottom": False}


def test_arbitrate_json_payload(files, capsys):
    a = files("p.fc", GAP_P)
    b = files("q.fc", GAP_Q)
    assert run(["arbitrate", "--op", "eh", "--json", a, b]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "arbitrate", "op": "eh", "result": "d, e", "is_bottom": False}


def test_merge_json_payload(files, capsys):
    constraint = files("c.fc", "a. -b.")
    member = files("m.fc", "a -> b.")
    assert run(["merge", "--json", constraint, member]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "merge", "op": "rk", "result": "a, -b", "is_bottom": False}
    bottom = files("bottom.fc", "a. -a.")
    assert run(["merge", "--op", "h", "--json", bottom, member]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "merge", "op": "h", "result": "#bottom", "is_bottom": True}


def test_cns_accepts_a_leading_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.fc"
    path.write_bytes(b"\xef\xbb\xbfa. a -> b.")
    assert run(["cns", str(path)]) == 0
    assert capsys.readouterr().out == "a, b\n"


def test_arbitrate_strategies(files, capsys):
    a = files("p.fc", GAP_P)
    b = files("q.fc", GAP_Q)
    assert run(["arbitrate", "--op", "eh", a, b]) == 0
    assert capsys.readouterr().out.strip() == "d, e"
    assert run(["arbitrate", "--op", "h", a, b]) == 0
    assert capsys.readouterr().out.strip() == "d"
    assert run(["arbitrate", a, b]) == 0  # default rk
    assert capsys.readouterr().out == "\n"


def test_revise_program_and_flock(files, capsys):
    base = files("base.fc", "a -> c. b -> -c.")
    new = files("new.fc", "a. b.")
    assert run(["revise", "--op", "rk", base, new]) == 0
    assert capsys.readouterr().out.strip() == "a.\nb."
    assert run(["revise", "--op", "h", base, new]) == 0
    assert capsys.readouterr().out.strip() == "a.\nb."  # hull is empty here
    assert run(["revise", "--op", "eh", base, new]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "a -> c.\na.\nb.\n---\na.\nb -> -c.\nb."


def test_revise_two_member_flock_text_and_json(files, capsys):
    base = files("flock.fc", "a -> c.\nb -> -c.\n---\nd.\na -> -d.\n")
    new = files("new.fc", "a. b.")
    flock = "a -> c.\na.\nb.\n---\na.\nb -> -c.\nb.\n---\na -> -d.\na.\nb."
    assert run(["revise", "--op", "eh", base, new]) == 0
    assert capsys.readouterr().out == flock + "\n"
    assert run(["revise", "--op", "eh", "--json", base, new]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "revise", "op": "eh", "kind": "flock", "result": flock}
    assert run(["revise", "--op", "rk", "--json", files("p.fc", "a -> c. b -> -c."), new]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "revise", "op": "rk", "kind": "program", "result": "a.\nb."}


def test_merge(files, capsys):
    constraint = files("c.fc", "a.")
    m1 = files("m1.fc", "a -> b.")
    m2 = files("m2.fc", "b -> c.")
    assert run(["merge", constraint, m1, m2]) == 0
    assert capsys.readouterr().out.strip() == "a, b, c"


def test_merge_empty_member_is_input_error(files, capsys):
    constraint = files("c.fc", "a.")
    empty = files("m.fc", "% nothing here\n")
    assert run(["merge", constraint, empty]) == 2
    assert "empty program" in capsys.readouterr().err


def test_check_violated_exit_code(files, capsys):
    constraint = files("c.fc", "c.")
    q = files("q.fc", "a.")
    profile = files("profile.fc", "a -> b.")
    code = run(["check", "FP7", "--constraint", constraint, "--Q", q,
                "--profile1", profile])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("violated")
    assert "merge(constraint + Q, profile) = a, b, c" in out


def test_check_holds_and_json(files, capsys):
    p = files("p.fc", "a.")
    q = files("q.fc", "b.")
    assert run(["check", "sa1", "--P", p, "--Q", q, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "check", "postulate": "SA1", "reason": None, "status": "holds",
        "strategy": "rk", "witness": {"arb(P, Q)": "a, b", "arb(Q, P)": "a, b"}}


def test_check_violated_json(files, capsys):
    constraint = files("c.fc", "c.")
    q = files("q.fc", "a.")
    profile = files("profile.fc", "a -> b.")
    assert run(["check", "FP7", "--constraint", constraint, "--Q", q,
                "--profile1", profile, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "check", "postulate": "FP7", "reason": None, "status": "violated",
        "strategy": "rk", "witness": {
            "merge(constraint, profile)": "c",
            "merge(constraint, profile) + Q": "a, c",
            "merge(constraint + Q, profile)": "a, b, c"}}


def test_check_incomplete_binding_is_usage_error(files, capsys):
    p = files("p.fc", "a.")
    assert run(["check", "SA1", "--P", p]) == 3
    assert "missing" in capsys.readouterr().err


def test_check_unknown_postulate_is_usage_error(capsys):
    assert run(["check", "SA9"]) == 3


def test_parse_error_exit_code(files, capsys):
    path = files("bad.fc", "a ->")
    assert run(["cns", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_non_ascii_atom_is_parse_error(files, capsys):
    path = files("p.fc", "café.")
    assert run(["cns", path]) == 2
    assert f"parse error: {path}:1:4:" in capsys.readouterr().err


@pytest.mark.parametrize("op, flock_is_new", [
    ("rk", False), ("h", False), ("rk", True), ("h", True), ("eh", True),
])
def test_separator_in_a_single_program_is_named(files, capsys, op, flock_is_new):
    # BASE of rk and h, and NEW of every op, is one program; without the
    # check the parser points at the separator's second '-'
    flock = files("flock.fc", "a -> c.\n  ---\nb -> -c.\n")
    other = files("facts.fc", "a. b.")
    args = [other, flock] if flock_is_new else [flock, other]
    assert run(["revise", "--op", op, *args]) == 2
    assert capsys.readouterr().err == (
        f"fcmerge: parse error: {flock}:2:3: a '---' line separates programs, but only "
        "profiles and an eh BASE hold several programs\n")


def test_separator_check_keeps_the_parse_error_without_one(files, capsys):
    path = files("bad.fc", "a -> -.\n--\n")
    assert run(["cns", path]) == 2
    assert capsys.readouterr().err == (
        f"fcmerge: parse error: {path}:1:7: expected an atom, found '.'\n")


def test_separator_in_a_check_binding_is_named(files, capsys):
    # a program binding of check is one program, as BASE and NEW are
    flock = files("flock.fc", "a -> c.\n  ---\nb -> -c.\n")
    facts = files("facts.fc", "a. b.")
    assert run(["check", "SA1", "--strategy", "rk", "--P", flock, "--Q", facts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"fcmerge: parse error: {flock}:2:3: a '---' line separates programs, but only "
        "profiles and an eh BASE hold several programs\n")


@pytest.mark.parametrize("argv", [
    ["cns", "{bad}"],
    ["revise", "--op", "rk", "{bad}", "{good}"],
    ["revise", "--op", "h", "{good}", "{bad}"],
    ["revise", "--op", "eh", "{bad}", "{good}"],
    ["arbitrate", "{good}", "{bad}"],
    ["merge", "{good}", "{good}", "{bad}"],
    ["check", "SA1", "--P", "{good}", "--Q", "{bad}"],
    ["check", "FP0", "--constraint", "{good}", "--profile1", "{bad}"],
], ids=["cns", "revise-base", "revise-new", "revise-flock", "arbitrate", "merge",
        "check-program", "check-profile"])
def test_parse_error_names_its_file(files, capsys, argv):
    # with several input files, only the path says which one is malformed
    good = files("good.fc", "a.")
    bad = files("bad.fc", "a -> .")
    assert run([arg.format(good=good, bad=bad) for arg in argv]) == 2
    assert capsys.readouterr().err == (
        f"fcmerge: parse error: {bad}:1:6: expected an atom, found '.'\n")


def test_empty_profile_names_its_file(files, capsys):
    constraint = files("a.fc", "a.")
    empty = files("empty.fc", "% no programs\n")
    assert run(["check", "FP0", "--constraint", constraint, "--profile1", empty]) == 2
    assert capsys.readouterr().err == f"fcmerge: {empty}: contains no programs\n"


def test_non_utf8_input_exit_code(files, tmp_path, capsys):
    path = tmp_path / "p.fc"
    path.write_bytes(b"a\xff.")
    assert run(["cns", str(path)]) == 2
    assert capsys.readouterr().err.startswith("fcmerge: ")
    # with several inputs, the path says which one is not UTF-8
    ok = files("ok.fc", "a.")
    message = f"fcmerge: {path}: not UTF-8 text (byte 0xff at offset 1)\n"
    assert run(["arbitrate", ok, str(path)]) == 2
    assert capsys.readouterr().err == message
    assert run(["check", "FP0", "--constraint", ok, "--profile1", str(path)]) == 2
    assert capsys.readouterr().err == message


def test_missing_file_exit_code(tmp_path, capsys):
    assert run(["cns", str(tmp_path / "nope.fc")]) == 2


def test_empty_profile_flock_exit_code(files, capsys):
    # an eh BASE is read by the same reader as a profile, with the same message
    base = files("base.fc", "% no programs\n---\n% none here either\n")
    new = files("new.fc", "a.")
    assert run(["revise", "--op", "eh", base, new]) == 2
    assert capsys.readouterr().err == f"fcmerge: {base}: contains no programs\n"


def test_size_limit_exit_code(files, capsys, monkeypatch):
    monkeypatch.setenv("FCMERGE_MAX_ENUM", "3")
    a = files("a.fc", " ".join(f"a{i} -> c." for i in range(8)))
    b = files("b.fc", "-c. a0.")
    assert run(["arbitrate", "--op", "h", a, b]) == 4
    assert "cap" in capsys.readouterr().err


# each malformed cap, with the complaint enumeration_cap raises about it
_MALFORMED_CAPS = (("abc", "an integer, got 'abc'"), ("-1", "nonnegative, got -1"))


def test_malformed_cap_ignored_by_rank_arbitration(files, capsys, monkeypatch):
    a = files("a.fc", GAP_P)
    b = files("b.fc", GAP_Q)
    for raw, _ in _MALFORMED_CAPS:
        monkeypatch.setenv("FCMERGE_MAX_ENUM", raw)
        assert run(["arbitrate", "--op", "rk", a, b]) == 0
        assert capsys.readouterr().out == "\n"  # rk keeps nothing of the gap pair


def test_malformed_cap_ignored_by_rank_merge(files, capsys, monkeypatch):
    constraint = files("c.fc", "-c.")
    m1 = files("m1.fc", "a. a -> c.")
    m2 = files("m2.fc", "b. b -> c.")
    for raw, _ in _MALFORMED_CAPS:
        monkeypatch.setenv("FCMERGE_MAX_ENUM", raw)
        assert run(["merge", "--op", "rk", constraint, m1, m2]) == 0
        assert capsys.readouterr().out.strip() == "-c"


def test_malformed_cap_fails_hull_arbitration(files, capsys, monkeypatch):
    a = files("a.fc", GAP_P)
    b = files("b.fc", GAP_Q)
    # revising by an inconsistent q searches nothing: the cap goes unread
    inconsistent = files("q.fc", "x. -x.")
    for raw, problem in _MALFORMED_CAPS:
        monkeypatch.setenv("FCMERGE_MAX_ENUM", raw)
        assert run(["arbitrate", "--op", "h", a, b]) == 3
        assert capsys.readouterr().err == f"fcmerge: FCMERGE_MAX_ENUM must be {problem}\n"
        for op in ("h", "eh"):
            assert run(["revise", "--op", op, a, inconsistent]) == 0
            assert capsys.readouterr().out == "-x.\nx.\n"


def test_usage_error_exit_code(capsys):
    assert run(["arbitrate"]) == 3
    assert run(["no-such-command"]) == 3


def test_corpus_command(capsys):
    assert run(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "all entries match" in out
    assert "FAIL" not in out


def test_corpus_json(capsys):
    assert run(["corpus", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_match"] is True


def test_corpus_mismatch_exit_code(tmp_path, capsys):
    (tmp_path / "p.fc").write_text("a.\n")
    (tmp_path / "q.fc").write_text("b.\n")
    (tmp_path / "expectations.json").write_text(json.dumps({
        "entries": [{
            "name": "bogus", "kind": "arbitration",
            "programs": {"P": "p.fc", "Q": "q.fc"},
            "expect_results": {"rk": "nope"},
        }]
    }))
    assert run(["corpus", "--directory", str(tmp_path)]) == 1


_ARBITRATION_ENTRY = {
    "name": "arb", "kind": "arbitration",
    "programs": {"P": "p.fc", "Q": "q.fc"}, "expect_results": {"rk": ""},
}
_POSTULATE_ENTRY = {
    "name": "sa1", "kind": "postulate", "postulate": "SA1", "strategies": ["rk"],
    "programs": {"P": "p.fc", "Q": "q.fc"}, "expect": "holds",
}


@pytest.mark.parametrize("table, named", [
    ("{", "expectations.json: "),
    ("{}", "missing key 'entries'"),
    (json.dumps({"entries": [{**_POSTULATE_ENTRY, "kind": "lemma"}]}),
     "entry 1 'sa1': unknown corpus entry kind 'lemma'"),
    (json.dumps({"entries": [_ARBITRATION_ENTRY, {**_POSTULATE_ENTRY, "postulate": "SA9"}]}),
     "entry 2 'sa1': unknown postulate 'SA9'"),
    (json.dumps({"entries": [{**_POSTULATE_ENTRY, "strategies": ["rk", "zz"]}]}),
     "entry 1 'sa1': unknown strategy 'zz'"),
    (json.dumps({"entries": [{**_POSTULATE_ENTRY, "expect": "maybe"}]}),
     "entry 1 'sa1': 'maybe' is not a valid Status"),
    (json.dumps({"entries": [{k: v for k, v in _POSTULATE_ENTRY.items() if k != "expect"}]}),
     "entry 1 'sa1': missing key 'expect'"),
    (json.dumps({"entries": [{k: v for k, v in _ARBITRATION_ENTRY.items() if k != "name"}]}),
     "entry 1: missing key 'name'"),
    (json.dumps({"entries": [{**_ARBITRATION_ENTRY, "programs": {"P": "p.fc"}}]}),
     "entry 1 'arb': arbitration: missing Q"),
    (json.dumps({"entries": [{**_POSTULATE_ENTRY, "programs": ["p.fc", "q.fc"]}]}),
     "entry 1 'sa1': "),
    (json.dumps({"entries": [_ARBITRATION_ENTRY, {**_POSTULATE_ENTRY,
                                                  "programs": {"P": "p.fc", "R": "q.fc"}}]}),
     "entry 2 'sa1': SA1: missing Q; unexpected R"),
    (json.dumps({"entries": [{**_ARBITRATION_ENTRY,
                              "programs": {"P": "p.fc", "Q": "q.fc", "R": "nope.fc"}}]}),
     "entry 1 'arb': arbitration: unexpected R"),
    (json.dumps({"entries": [_ARBITRATION_ENTRY, {**_ARBITRATION_ENTRY, "name": "arb2",
                                                  "profiles": {"profile1": "zz.fc"}}]}),
     "entry 2 'arb2': arbitration: unexpected profile1"),
    (json.dumps({"entries": [{**_ARBITRATION_ENTRY, "expect_results": {"rk": None}}]}),
     "entry 1 'arb': rk: expected a string, got null"),
    (json.dumps({"entries": [_ARBITRATION_ENTRY, {**_POSTULATE_ENTRY,
                                                  "values": {"arb(P, Q)": 3}}]}),
     "entry 2 'sa1': arb(P, Q): expected a string, got 3"),
    (json.dumps({"entries": [_ARBITRATION_ENTRY, {**_POSTULATE_ENTRY, "strategies": []}]}),
     "entry 2 'sa1': no strategies to evaluate"),
    (json.dumps({"entries": [_POSTULATE_ENTRY, {**_ARBITRATION_ENTRY, "expect_results": {}}]}),
     "entry 2 'arb': no strategies to evaluate"),
], ids=["invalid-json", "no-entries", "unknown-kind", "unknown-postulate",
        "unknown-strategy", "unknown-expect", "missing-expect", "missing-name",
        "arbitration-without-q", "programs-not-a-map", "wrong-binding-names",
        "arbitration-extra-program", "arbitration-with-profiles",
        "arbitration-result-not-a-string", "witness-value-not-a-string",
        "postulate-without-strategies", "arbitration-without-results"])
def test_corpus_malformed_table_is_input_error(tmp_path, capsys, table, named):
    (tmp_path / "p.fc").write_text("a.\n")
    (tmp_path / "q.fc").write_text("b.\n")
    (tmp_path / "expectations.json").write_text(table)
    assert run(["corpus", "--directory", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("fcmerge: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_corpus_witness_value_notes(tmp_path, capsys):
    (tmp_path / "p.fc").write_text("a.\n")
    (tmp_path / "q.fc").write_text("b.\n")
    entry = {**_POSTULATE_ENTRY, "name": "wit", "values": {"nope": "x", "arb(P, Q)": "b"}}
    (tmp_path / "expectations.json").write_text(json.dumps({"entries": [entry]}))
    notes = ["missing witness value 'nope'", "arb(P, Q): expected 'b', got 'a, b'"]
    assert run(["corpus", "--directory", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "\n".join([
        "FAIL  wit [rk] SA1: expected holds, got holds",
        *(f"      {note}" for note in notes),
        "1 evaluations: MISMATCHES FOUND\n"])
    assert run(["corpus", "--directory", str(tmp_path), "--json"]) == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["notes"] == notes
    assert (result["expected"], result["actual"], result["matched"]) == ("holds", "holds", False)


def test_corpus_table_not_utf8_names_its_file(tmp_path, capsys):
    table = tmp_path / "expectations.json"
    table.write_bytes(b'{"entries": [\xff]}')
    assert run(["corpus", "--directory", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"fcmerge: {table}: not UTF-8 text (byte 0xff at offset 13)\n")


def test_corpus_table_with_a_byte_order_mark_runs(tmp_path, capsys):
    (tmp_path / "p.fc").write_text("a.\n")
    (tmp_path / "q.fc").write_text("b.\n")
    arbitration = {**_ARBITRATION_ENTRY, "expect_results": {"rk": "a, b"}}
    table = json.dumps({"entries": [arbitration, _POSTULATE_ENTRY]})
    (tmp_path / "expectations.json").write_bytes(b"\xef\xbb\xbf" + table.encode())
    assert run(["corpus", "--directory", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith("2 evaluations: all entries match\n")


def test_corpus_parse_error_names_its_file(tmp_path, capsys):
    (tmp_path / "p.fc").write_text("a.\n")
    (tmp_path / "q.fc").write_text("a -> .\n")
    (tmp_path / "expectations.json").write_text(json.dumps({"entries": [_ARBITRATION_ENTRY]}))
    assert run(["corpus", "--directory", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"fcmerge: parse error: {tmp_path / 'q.fc'}:1:6: expected an atom, found '.'\n")


def test_fuzz_command(capsys):
    code = run(["fuzz", "--seed", "4", "--trials", "20",
                "--postulates", "SA1,SA2", "--strategies", "rk"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SA1 [rk]" in out


def test_fuzz_json(capsys):
    code = run(["fuzz", "--seed", "4", "--trials", "10",
                "--postulates", "FP0", "--strategies", "rk", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found_guaranteed_violation"] is False
    assert len(payload["evaluations"]) == 10


def test_fuzz_violations_of_unguaranteed_postulates_exit_zero(capsys):
    code = run(["fuzz", "--seed", "3", "--trials", "150",
                "--postulates", "SA5", "--strategies", "rk", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"]


def test_fuzz_default_strategy_is_rank(capsys):
    assert run(["fuzz", "--trials", "5", "--postulates", "SA1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {c["strategy"] for c in payload["cells"]} == {"rk"}


def test_fuzz_numeric_flags_reach_the_config(capsys):
    flags = ["--seed", "3", "--trials", "2", "--atoms", "4", "--rules", "5",
             "--body-len", "2", "--neg-prob", "0.4"]
    numeric = {"seed": 3, "trials": 2, "atoms": 4, "rules": 5, "body_len": 2, "neg_prob": 0.4}
    for argv, values in ((flags, numeric), ([], {})):  # given, then FuzzConfig's defaults
        assert run(["fuzz", *argv, "--postulates", "SA1", "--json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        expected = FuzzConfig(**values, strategies=(Strategy.RANK,),
                              postulates=(PostulateId.SA1,)).to_dict()
        assert config == expected
        # == takes 4 for 4.0, so the types are compared too
        assert {k: type(v) for k, v in config.items()} == {k: type(v) for k, v in expected.items()}


def test_json_runs_never_render_the_text_report(capsys, monkeypatch):
    # --json prints the document only, so building the text would be waste;
    # each mode prints the bytes of its own serializer
    cfg = FuzzConfig(seed=2, trials=4, strategies=(Strategy.RANK, Strategy.HULL),
                     postulates=(PostulateId.SA5, PostulateId.FP3))
    fuzz_report, corpus_report = search(cfg), run_corpus()
    cases = [
        (["fuzz", "--seed", "2", "--trials", "4", "--strategies", "rk,h",
          "--postulates", "SA5,FP3"], FuzzReport, fuzz_report.to_text(), fuzz_report.to_json()),
        (["corpus"], CorpusReport, corpus_report.to_text(),
         json.dumps(corpus_report.to_dict(), sort_keys=True, indent=2)),
    ]
    assert fuzz_report.violations  # the text report has violation lines to render
    rendered = []
    for cls in (FuzzReport, CorpusReport):
        def spy(self, to_text=cls.to_text):
            rendered.append(type(self))
            return to_text(self)
        monkeypatch.setattr(cls, "to_text", spy)
    for argv, cls, text, document in cases:
        assert run([*argv, "--json"]) == 0
        assert capsys.readouterr().out == document + "\n"
        assert rendered == []
        assert run(argv) == 0
        assert capsys.readouterr().out == text + "\n"
        assert rendered == [cls]
        rendered.clear()


def test_fuzz_config_error_exit_code(capsys):
    assert run(["fuzz", "--trials", "0"]) == 3
    assert run(["fuzz", "--postulates", "SA99"]) == 3


def test_python_dash_m_runs_the_cli():
    assert run_fresh(["-m", "fcmerge", "corpus"])
