"""Byte-identical output guard: the JSON reports of a fixed fuzz run and
of the bundled corpus, the text report of that fuzz run, and its shrunk
witnesses are pinned by their SHA-256 digests, so any change to what the
library computes or prints shows up here.  The number of questions
shrinking asks is pinned beside them."""

import hashlib
import json

import pytest

from fcmerge import (
    FuzzConfig,
    Instance,
    PostulateId,
    Status,
    Strategy,
    check,
    parse_profile,
    parse_program,
    search,
    shrink,
)
from fcmerge.cli import run
from fcmerge.fuzz import render_instance

from helpers import run_fresh

pytestmark = pytest.mark.pinned

FUZZ_ARGS = ["fuzz", "--seed", "7", "--trials", "40", "--strategies", "rk,h,eh", "--json"]
FUZZ_SHA256 = "a03ce882c1f68f2d4a74070391493f4a88ef6d2139439633b580543014355173"
CORPUS_SHA256 = "fa04c91fe098cf94c39653048cba9d9919dabb19af078580cbc2c7e6ce463eec"
SHRUNK_SHA256 = "976dfb4ae981776613b643995994a148bcd3a90d09fcc5a2ee39540c20b33291"
FUZZ_TEXT_SHA256 = "04878639a2ce4d8cc0bda39469ade56bda7750cd43f4b1d815e0b77c66745402"


JSON_REPORTS = pytest.mark.parametrize("argv, digest", [
    (FUZZ_ARGS, FUZZ_SHA256),
    (["corpus", "--json"], CORPUS_SHA256),
], ids=["fuzz", "corpus"])


@JSON_REPORTS
def test_json_report_digest(argv, digest, capsys):
    run(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@JSON_REPORTS
def test_json_report_digest_under_the_system_allocator(argv, digest):
    # literals hash by identity, so by address: in a fresh interpreter on
    # malloc every literal lands elsewhere, and every set of them iterates in
    # another order, which no report may show
    out = run_fresh(["-m", "fcmerge", *argv], PYTHONMALLOC="malloc")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_text_report_digest(capsys):
    # JSON sorts its keys, so only the text report pins the order in which
    # each witness lists its labels: 245 witness lines
    run(FUZZ_ARGS[:-1])
    out = capsys.readouterr().out
    assert sum(line.startswith("  ") and " = " in line for line in out.splitlines()) == 245
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FUZZ_TEXT_SHA256


@pytest.fixture(scope="module")
def fixed_run():
    # the fuzz run of FUZZ_ARGS, every postulate under all three strategies
    return search(FuzzConfig(seed=7, trials=40))


def test_library_json_is_the_cli_json(fixed_run):
    # FuzzReport.to_json, which the benchmark reads, prints what fuzz --json does
    text = fixed_run.to_json() + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FUZZ_SHA256


@pytest.fixture(scope="module")
def fixed_run_shrinks(fixed_run):
    # every violation of the fixed run, re-read from its rendered text and
    # shrunk while check keeps it violated: one JSON line per witness, and
    # the number of times shrinking asked check
    lines, asked = [], 0
    for v in fixed_run.violations:
        pid = PostulateId.parse(v.postulate)
        instance = Instance(
            Strategy.from_token(v.strategy),
            programs={k: parse_program(t) for k, t in v.instance["programs"].items()},
            profiles={k: parse_profile(t) for k, t in v.instance["profiles"].items()},
        )

        def violated(i, pid=pid):
            nonlocal asked
            asked += 1
            return check(pid, i).status is Status.VIOLATED

        lines.append(json.dumps(render_instance(shrink(instance, violated)), sort_keys=True))
    return lines, asked


def test_shrunk_witness_digest(fixed_run_shrinks):
    lines, _ = fixed_run_shrinks
    assert len(lines) == 69
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == SHRUNK_SHA256


def test_shrink_predicate_calls(fixed_run_shrinks):
    # pinned work: may only fall.  2,963 while a pass asked again about a
    # removal naming the same rules as one it had refused
    _, asked = fixed_run_shrinks
    assert asked == 2758
