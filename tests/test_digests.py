"""Byte-identical output guard: the JSON reports of a fixed fuzz run and
of the bundled corpus, and the shrunk witnesses of that fuzz run, are
pinned by their SHA-256 digests, so any change to what the library
computes or prints shows up here.  The number of questions shrinking
asks is pinned beside them."""

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

pytestmark = pytest.mark.pinned

FUZZ_ARGS = ["fuzz", "--seed", "7", "--trials", "40", "--strategies", "rk,h,eh", "--json"]
FUZZ_SHA256 = "a03ce882c1f68f2d4a74070391493f4a88ef6d2139439633b580543014355173"
CORPUS_SHA256 = "fa04c91fe098cf94c39653048cba9d9919dabb19af078580cbc2c7e6ce463eec"
SHRUNK_SHA256 = "976dfb4ae981776613b643995994a148bcd3a90d09fcc5a2ee39540c20b33291"


@pytest.mark.parametrize("argv, digest", [
    (FUZZ_ARGS, FUZZ_SHA256),
    (["corpus", "--json"], CORPUS_SHA256),
], ids=["fuzz", "corpus"])
def test_json_report_digest(argv, digest, capsys):
    run(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.fixture(scope="module")
def fixed_run_shrinks():
    # every violation of the fixed run, re-read from its rendered text and
    # shrunk while check keeps it violated: one JSON line per witness, and
    # the number of times shrinking asked check
    lines, asked = [], 0
    for v in search(FuzzConfig(seed=7, trials=40)).violations:
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
