"""Exceptionality, ranked bases, and three syntactic revision operators.

A rule is exceptional when its body cannot be consistently added to the
whole program.  Iterating "keep only the exceptional rules" produces a
decreasing sequence of programs, the base.  Revision by new information
adjoins it to the least exceptional level that tolerates it (rank
revision), to the intersection of all maximal tolerant subsets (hull
revision), or to each maximal tolerant subset separately, producing a
flock (extended hull revision).  Consequence-wise the three operators
form a chain: rank below hull below extended hull.

Hull and extended-hull revision enumerate maximal subsets, which takes
exponential time in the worst case, so the number of candidate rules an
enumeration may search is capped.  The FCMERGE_MAX_ENUM environment
variable (default 24) is the only way to set the cap.  Only that
enumeration reads it, at each call, so rank revision, and arbitration
and merging built on it, ignore a malformed value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

from .core import (
    MEMO_SIZE,
    PROFILE_SEPARATOR,
    ClosedSet,
    CompiledProgram,
    Program,
    Rule,
    closure,
)
from .errors import ConfigError, SizeLimitExceeded

DEFAULT_ENUM_CAP = 24
ENUM_CAP_ENV = "FCMERGE_MAX_ENUM"


def enumeration_cap() -> int:
    """The largest number of candidate rules maximal_extensions searches.

    Read from the FCMERGE_MAX_ENUM environment variable at each call, so
    a change takes effect at the next enumeration; DEFAULT_ENUM_CAP when
    the variable is unset or blank.
    """
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_ENUM_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}")
    if value < 0:
        raise ConfigError(f"{ENUM_CAP_ENV} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class Base:
    """The decreasing sequence of exceptional-rule programs, ending in
    the empty program."""

    levels: tuple[Program, ...]

    @property
    def last_index(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class Flock:
    """A nonempty ordered sequence of programs whose joint consequences
    are the intersection of the member consequences."""

    members: tuple[Program, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a flock must contain at least one program")

    @classmethod
    def of(cls, program: Program) -> Flock:
        return cls((program,))

    def __add__(self, other: Flock) -> Flock:
        return Flock(self.members + other.members)

    def __iter__(self) -> Iterator[Program]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return f"\n{PROFILE_SEPARATOR}\n".join(str(m) for m in self.members)


def exceptional_rules(program: Program) -> Program:
    """The rules whose bodies cannot be consistently added to the program.

    Every rule of an inconsistent program is exceptional; facts of a
    consistent program never are (their body is empty).

    Forward chaining is monotone: the closure of the program plus a body
    is the closure of the program plus what the body newly derives on top
    of it.  So the program is compiled once per call and each body is
    propagated on top of its closure and then undone, instead of closing
    the program afresh for every rule.  A call costs one compiled index,
    linear in the program size, plus work per rule proportional to what
    its body newly derives.
    """
    compiled = CompiledProgram(program)
    if compiled.rounds is None:
        return program
    return Program(frozenset(
        r for r in program.rules if not compiled.consistent_with(r.body)
    ))


@lru_cache(maxsize=MEMO_SIZE)
def base(program: Program) -> Base:
    """Iterate exceptional_rules from the program down to a fixpoint,
    then append the empty program unless the fixpoint already is empty."""
    levels = [program]
    while True:
        nxt = exceptional_rules(levels[-1])
        if nxt == levels[-1]:
            break
        levels.append(nxt)
    if levels[-1].rules:
        levels.append(Program())
    return Base(tuple(levels))


def rank(p: Program, q: Program) -> int:
    """Index of the first base level of p that q can consistently join.

    When either program is inconsistent the rank is the last index of the
    base, whose level is the empty program, so revision collapses to the
    new information alone.
    """
    b = base(p)
    if closure(q).is_bottom:
        return b.last_index
    # an inconsistent p has the base (p, empty), so this finds the last index
    return next(i for i, level in enumerate(b.levels) if not closure(level | q).is_bottom)


def revise_rank(p: Program, q: Program) -> Program:
    """Adjoin q to the least exceptional level of p consistent with it."""
    return base(p).levels[rank(p, q)] | q


def maximal_extensions(p: Program, q: Program) -> tuple[Program, ...]:
    """All maximal subsets of p that contain the rank level and stay
    consistent with q, in canonical text order.

    Empty exactly when q is inconsistent.  Enumeration is exponential in
    the worst case; more candidate rules than enumeration_cap() raise
    SizeLimitExceeded.
    """
    if closure(q).is_bottom:
        return ()
    required = base(p).levels[rank(p, q)].rules
    candidates = tuple(sorted(p.rules - required, key=str))
    cap = enumeration_cap()
    if len(candidates) > cap:
        raise SizeLimitExceeded(
            f"{len(candidates)} candidate rules exceed the enumeration cap of {cap}"
        )
    return _enumerate_extensions(required, candidates, q)


@lru_cache(maxsize=MEMO_SIZE)
def _enumerate_extensions(required: frozenset[Rule], candidates: tuple[Rule, ...],
                          q: Program) -> tuple[Program, ...]:
    # memoised below the cap check, so the cap is obeyed on every call.
    # One index of required | q per call, candidates switched off; each
    # subset pays only for what its switched-on rules newly derive
    compiled = CompiledProgram(Program(required) | q, candidates)
    # the search reaches each set once, every maximal extension among them.
    # It takes a candidate before leaving it out, so of two found sets
    # s < t, t comes first (they first differ where t takes a candidate s
    # leaves out), and a set is maximal iff no set kept so far contains it
    found: list[frozenset[int]] = []  # the maximal sets, in search order

    def search(chosen: tuple[int, ...], start: int) -> None:
        # invariant: chosen is q-consistent
        everything = chosen + tuple(range(start, len(candidates)))
        if compiled.consistent_with((), everything):
            s = frozenset(everything)
            if not any(s < t for t in found):
                found.append(s)
        else:
            branch(chosen, start)

    def branch(chosen: tuple[int, ...], start: int) -> None:
        # chosen + candidates[start:] is q-inconsistent; taking
        # candidates[start] keeps that set, so it is not asked again
        if compiled.consistent_with((), chosen + (start,)):
            branch(chosen + (start,), start + 1)
        search(chosen, start + 1)

    search((), 0)
    extensions = (Program(required | {candidates[i] for i in s}) for s in found)
    return tuple(sorted(extensions, key=str))


def hull(p: Program, q: Program) -> Program:
    """Intersection of all maximal extensions; the empty program when
    there are none.  Always contains the rank level of p."""
    extensions = maximal_extensions(p, q)
    if not extensions:
        return Program()
    rules = extensions[0].rules
    for ext in extensions[1:]:
        rules &= ext.rules
    return Program(rules)


def revise_hull(p: Program, q: Program) -> Program:
    return hull(p, q) | q


def revise_extended_hull(a: Union[Flock, Program], q: Program) -> Flock:
    """Revise each flock member into one program per maximal extension
    and concatenate; a member with no extensions contributes q alone.
    A bare program is treated as a singleton flock."""
    if isinstance(a, Program):
        a = Flock.of(a)
    members: list[Program] = []
    for m in a:
        extensions = maximal_extensions(m, q)
        if extensions:
            members.extend(ext | q for ext in extensions)
        else:
            members.append(q)
    return Flock(tuple(members))


def flock_closure(a: Flock) -> ClosedSet:
    """Intersection of the member closures, the inconsistent value acting
    as top element."""
    result = closure(a.members[0])
    for m in a.members[1:]:
        result = result.meet(closure(m))
    return result
