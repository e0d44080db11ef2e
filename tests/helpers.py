"""Shared program fixtures and construction shorthands for the tests."""

import importlib.util
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

from fcmerge import BOTTOM, ClosedSet, Instance, Literal, Program, base, closure
from fcmerge.arbitration import _revised_closure
from fcmerge.core import CompiledProgram
from fcmerge.textio import parse_program


def run_fresh(args: list[str], **env: str) -> str:
    """What a fresh interpreter prints when run with these arguments, src/
    on its path and env added to its environment; it must exit 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src), **env})
    assert done.returncode == 0, done.stderr
    return done.stdout


def prog(text: str) -> Program:
    return parse_program(text)


def _load_workloads():
    # the benchmark's generators, imported from perfbench/ rather than copied
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_workloads = _load_workloads()


def rank_large_triple(size: int, seed: int) -> tuple[Program, Program, Program]:
    """P1, P2 and the constraint of the rank-large benchmark's triple of
    that size and seed."""
    p1, p2, c = (prog(_workloads.render_rules(r)) for r in _workloads.gen_rank_triple(size, seed))
    return p1, p2, c


def rank_large_pair(size: int, seed: int) -> tuple[Program, Program]:
    """P1 and P2 of the rank-large benchmark's triple of that size and seed."""
    return rank_large_triple(size, seed)[:2]


def lit(text: str) -> Literal:
    if text.startswith("-"):
        return Literal(text[1:], False)
    return Literal(text)


def lits(*texts: str) -> frozenset[Literal]:
    return frozenset(lit(t) for t in texts)


def closed(*texts: str) -> ClosedSet:
    return ClosedSet(lits(*texts))


def flock_meet(flock: tuple[Program, ...]) -> ClosedSet:
    """The consequences of a flock: the meet of its members' closures, the
    inconsistent value acting as top element, so an empty flock's is BOTTOM."""
    return reduce(ClosedSet.meet, map(closure, flock), BOTTOM)


def facts(p: Program) -> frozenset[Literal]:
    """The heads of the program's rules with an empty body."""
    return frozenset(r.head for r in p.rules if not r.body)


def clear_memos() -> None:
    """Empty every memo table, so that a count read from cache_info()
    does not depend on which tests ran before."""
    for memo in (closure, base, _revised_closure):
        memo.cache_clear()


def count_index_builds(monkeypatch):
    """Count every CompiledProgram built from now on, through the
    constructor; the returned function reads the count so far."""
    built = 0
    init = CompiledProgram.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(CompiledProgram, "__init__", counting)
    return lambda: built


def total_rules(instance: Instance) -> int:
    """Rules over every program and profile member of the instance."""
    count = sum(len(p) for p in instance.programs.values())
    count += sum(len(m) for profile in instance.profiles.values() for m in profile)
    return count


# a four-layer derivation chain
LAYERED = "a. u. a -> b. a -> c. b -> t. c -> s. t -> s. s -> w. u -> h."

# the taxonomy program whose base has levels P0 > P1 > P2 > empty
TAXONOMY = "m -> s. c -> m. c -> -s. n -> c. n -> s."
TAXONOMY_LEVEL1 = "c -> m. c -> -s. n -> c. n -> s."
TAXONOMY_LEVEL2 = "n -> c. n -> s."

# consistent, yet every rule is exceptional: base is (P, empty)
ALL_EXCEPTIONAL = "a -> b. b -> -c. -c -> -a. -c -> b. -a -> -b. -a -> -c."

# a pair on which the three arbitration strategies give strictly
# increasing results (empty, {d}, {d, e})
GAP_P = "a. a, b -> -c. b -> d. b -> -c. -c -> e. a, -c -> f."
GAP_Q = "b. a, b -> c. a -> e. a, e -> c. a, e -> d. c -> d. c -> f."
