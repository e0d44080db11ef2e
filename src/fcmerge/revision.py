"""Exceptionality, ranked bases, and three syntactic revision operators.

A rule is exceptional when its body cannot be consistently added to the
whole program.  Iterating "keep only the exceptional rules" produces a
decreasing sequence of programs, the base.  Revision by new information
adjoins it to the least exceptional level that tolerates it (rank
revision), to the intersection of all maximal tolerant subsets (hull
revision), or to each maximal tolerant subset separately, producing a
flock (extended hull revision).  Consequence-wise the three operators
form a chain: rank below hull below extended hull.  The level q joins is
p itself when p | q is consistent and the empty program when q is not,
so the base is built only when q is consistent and p | q is not.

Hull and extended-hull revision enumerate maximal subsets, whose number
is exponential in the worst case, so the number of candidate rules an
enumeration may search is capped.  The FCMERGE_MAX_ENUM environment
variable (default 24) is the only way to set the cap.  Only that
enumeration reads it, at each call, so rank revision, and arbitration
and merging built on it, ignore a malformed value.  The search keeps each
intolerable minimal transversal as it is: no extension contains it, so
it meets the complement of every extension found later.
"""

from __future__ import annotations

import os
from functools import lru_cache, reduce

from .core import BOTTOM, MEMO_SIZE, ClosedSet, CompiledProgram, Program, closure
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
    return Program(frozenset(
        r for r in program.rules if not compiled.consistent_with(r.body)
    ))


@lru_cache(maxsize=MEMO_SIZE)
def base(program: Program) -> tuple[Program, ...]:
    """The levels of the base: exceptional_rules iterated from the program
    down to a fixpoint, then the empty program if the fixpoint has rules."""
    levels = [program]
    while True:
        nxt = exceptional_rules(levels[-1])
        if nxt == levels[-1]:
            break
        levels.append(nxt)
    if levels[-1].rules:
        levels.append(Program())
    return tuple(levels)


def rank(p: Program, q: Program) -> int:
    """Index of the first base level of p that q can consistently join.

    Level 0 is p itself, so when p | q is consistent the rank is 0 and
    the base is not built.  When either program is inconsistent the rank is
    the last index of the base, whose level is the empty program.  That is
    the rank whenever no earlier level is, so neither it nor q is asked about.
    """
    if not closure(p | q).is_bottom:
        return 0
    # level 0, p itself, failed above; an inconsistent p's base is (p, empty)
    levels = base(p)
    return next((i for i, level in enumerate(levels[1:-1], 1)
                 if not closure(level | q).is_bottom), len(levels) - 1)


def _rank_level(p: Program, q: Program) -> Program:
    # for a consistent q; only when p | q is not does the rank need the base
    i = rank(p, q)
    return base(p)[i] if i else p


def revise_rank(p: Program, q: Program) -> Program:
    """Adjoin q to the least exceptional level of p consistent with it."""
    # when q is inconsistent its level is the base's last, the empty program
    return q if closure(q).is_bottom else _rank_level(p, q) | q


def maximal_extensions(p: Program, q: Program) -> tuple[Program, ...]:
    """All maximal subsets of p that contain the rank level and stay
    consistent with q, in canonical text order.

    Empty exactly when q is inconsistent; the rank level alone, without
    a search, when no rule lies outside it, as when p | q is consistent
    (the base of p is built only when it is not).  More candidate rules than
    enumeration_cap() raise SizeLimitExceeded.  The search is output
    sensitive: it asks at most one tolerability question per candidate
    to grow each extension, and one per minimal transversal of the found
    extensions' complements.  Its work follows the number of extensions
    and of those transversals, not of subsets; both can be exponential.
    """
    if closure(q).is_bottom:
        return ()
    level = _rank_level(p, q)
    candidates = tuple(sorted(p.rules - level.rules, key=str))
    cap = enumeration_cap()
    if len(candidates) > cap:
        raise SizeLimitExceeded(
            f"{len(candidates)} candidate rules exceed the enumeration cap of {cap}"
        )
    if not candidates:
        return (level,)
    # one index of level | q, candidates switched off: a question switches a
    # set of them (a bitmask over positions) on, paying for what it derives.
    # Dualize and advance (Gunopulos et al., 1997): a tolerable set in no
    # found extension meets every found extension's complement, so it
    # holds a minimal transversal of them, tolerable too, as dropping rules
    # never makes forward chaining inconsistent.  Once every minimal
    # transversal is intolerable, every extension is found
    compiled = CompiledProgram(level | q, candidates)
    positions = range(len(candidates))
    found: list[int] = []
    # the minimal transversals, unasked and intolerable.  Refuted ones are
    # only appended to; what they grow into is never asked
    pending, refuted = [0], []
    while pending:
        t = s = pending.pop()
        chosen = [i for i in positions if t >> i & 1]
        if not compiled.consistent_with((), chosen):
            refuted.append(t)
            continue
        for i in positions:  # grow greedily, in canonical order, to a maximal set
            if not s >> i & 1 and compiled.consistent_with((), chosen + [i]):
                chosen.append(i)
                s |= 1 << i
        found.append(s)
        edge = ~s & ((1 << len(candidates)) - 1)
        pending = _add_edge([*pending, t], edge, refuted)
    extensions = (Program(level.rules | {candidates[i] for i in positions if s >> i & 1})
                  for s in found)
    return tuple(sorted(extensions, key=str))


def _add_edge(transversals: list[int], edge: int, refuted: list[int]) -> list[int]:
    # one Berge step: what the pending minimal transversals become once the
    # hypergraph gains the edge, a found extension's complement.  A refuted
    # one is intolerable, so it lies in no extension and meets the edge: it
    # stays as it is, and joins the pending ones that meet the edge in
    # hitting.  One, x, that misses the edge gains an element b of it, and
    # stays minimal unless a hitting one lies in x | b.  Such a one must
    # hold b, so it lies in x | b exactly when what it holds outside x is b
    grown = [x for x in transversals if x & edge]
    hitting = grown + refuted
    bits = [b for b in (1 << i for i in range(edge.bit_length())) if edge & b]
    for x in transversals:
        if not x & edge:
            blocked = {h & ~x for h in hitting}
            grown += [x | b for b in bits if b not in blocked]
    return grown


def hull(p: Program, q: Program) -> Program:
    """Intersection of all maximal extensions; the empty program when
    there are none.  Always contains the rank level of p."""
    extensions = maximal_extensions(p, q)
    if not extensions:
        return Program()
    return Program(frozenset.intersection(*(e.rules for e in extensions)))


def revise_hull(p: Program, q: Program) -> Program:
    return hull(p, q) | q


def revise_extended_hull(flock: tuple[Program, ...], q: Program) -> tuple[Program, ...]:
    """Revise each member of a nonempty flock into one program per maximal
    extension, in order; a member with no extensions contributes q alone."""
    if not flock:
        raise ValueError("a flock must contain at least one program")
    members: list[Program] = []
    for m in flock:
        members += [ext | q for ext in maximal_extensions(m, q)] or [q]
    return tuple(members)


def flock_closure(flock: tuple[Program, ...]) -> ClosedSet:
    """Intersection of the member closures, the inconsistent value acting
    as top element, so the empty flock's closure is BOTTOM."""
    return reduce(ClosedSet.meet, map(closure, flock), BOTTOM)
