"""Byte-identical output guard: the JSON reports of a fixed fuzz run and
of the bundled corpus are pinned by their SHA-256 digests, so any change
to what the library computes or prints shows up here."""

import hashlib

import pytest

from fcmerge.cli import run

FUZZ_ARGS = ["fuzz", "--seed", "7", "--trials", "40", "--strategies", "rk,h,eh", "--json"]
FUZZ_SHA256 = "a03ce882c1f68f2d4a74070391493f4a88ef6d2139439633b580543014355173"
CORPUS_SHA256 = "fa04c91fe098cf94c39653048cba9d9919dabb19af078580cbc2c7e6ce463eec"


@pytest.mark.parametrize("argv, digest", [
    (FUZZ_ARGS, FUZZ_SHA256),
    (["corpus", "--json"], CORPUS_SHA256),
], ids=["fuzz", "corpus"])
def test_json_report_digest(argv, digest, capsys):
    run(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
