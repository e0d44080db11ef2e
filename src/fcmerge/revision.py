"""Exceptionality, ranked bases, and three syntactic revision operators.

A rule is exceptional when its body cannot be consistently added to the
whole program.  Iterating "keep only the exceptional rules" produces a
decreasing sequence of programs, the base.  Revision by new information
adjoins it to the least exceptional level that tolerates it (rank
revision), to the intersection of all maximal tolerant subsets (hull
revision), or to each maximal tolerant subset separately, producing a
flock (extended hull revision).  Consequence-wise the three operators
form a chain: rank below hull below extended hull.

Hull and extended-hull revision enumerate maximal subsets, whose number
is exponential in the worst case, so FCMERGE_MAX_ENUM (default 24), its
only setting, caps the candidate rules an enumeration may search.  The
search reads it after the q check and the rank level, unless hull_closure
passes the cap the revision table is keyed by.  One search serves
maximal_extensions, hull and hull_closure, the only readers of its index
and bitmasks; dualize, which knows nothing of programs, finds extensions.
"""

from __future__ import annotations

import os
from functools import reduce
from operator import and_
from typing import Callable

from .core import BOTTOM, ClosedSet, CompiledProgram, Program, Rule, closure, memo
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
    consistent program never are (their body is empty).  One index of the
    program answers for every rule (CompiledProgram.intolerable): a body is
    propagated on top of its closure and undone, and a rule that fires in
    a consistent state is tolerated without a question of its own.
    """
    compiled = CompiledProgram(program)
    return Program(frozenset(compiled.rules[idx] for idx in compiled.intolerable()))


@memo
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


def search_extensions(p: Program, q: Program, cap: int | None = None
                      ) -> tuple[Program, tuple[Rule, ...], CompiledProgram | None, list[int]]:
    """The search behind maximal_extensions, hull and hull_closure, each
    of which reads what it needs: the rank level, the candidate rules
    outside it in canonical text order, the index the search asked (None
    when it asked nothing), and each maximal extension as a bitmask over
    the candidates, in the order found.

    No extension when q is inconsistent; the rank level alone, without a
    search, when no rule lies outside it; cap None reads enumeration_cap().
    """
    if closure(q).is_bottom:
        return Program(), (), None, []
    level = _rank_level(p, q)
    candidates = tuple(sorted(p.rules - level.rules, key=str))
    if cap is None:
        cap = enumeration_cap()
    if len(candidates) > cap:
        raise SizeLimitExceeded(
            f"{len(candidates)} candidate rules exceed the enumeration cap of {cap}"
        )
    if not candidates:
        return level, candidates, None, [0]
    # one index of level | q, candidates switched off; a question switches
    # some on, paying for what they derive.  An inert candidate changes
    # nothing when switched on: it lies in every extension, never asked about
    compiled = CompiledProgram(level | q, candidates)
    inert = sum(1 << i for i in range(len(candidates)) if compiled.inert(i))
    found, _ = dualize(compiled.consistent_with, (1 << len(candidates)) - 1 & ~inert)
    return level, candidates, compiled, [s | inert for s in found]


def _extension(level: Program, candidates: tuple[Rule, ...], s: int) -> Program:
    return Program(level.rules | {r for i, r in enumerate(candidates) if s >> i & 1})


def maximal_extensions(p: Program, q: Program) -> tuple[Program, ...]:
    """All maximal subsets of p that contain the rank level and stay
    consistent with q, in canonical text order.

    Empty exactly when q is inconsistent; the rank level alone, without
    a search, when no rule lies outside it, as when p | q is consistent
    (the base of p is built only when it is not).  More candidate rules than
    enumeration_cap() raise SizeLimitExceeded.
    """
    level, candidates, _, found = search_extensions(p, q)
    return tuple(sorted((_extension(level, candidates, s) for s in found), key=str))


def dualize(tolerable: Callable[[int], bool], live: int) -> tuple[list[int], list[int]]:
    """The maximal tolerable subsets of the bitmask live, in the order
    found, and the intolerable minimal transversals, all as bitmasks.

    tolerable is asked about subsets of live, as bitmasks, and must be
    downward closed: clearing bits never makes a set intolerable.
    Dualize and advance (Gunopulos et al., 1997): a tolerable set in no
    found set meets every found set's complement, so it holds a minimal
    transversal of them, tolerable too, which grows greedily, one live bit
    at a time from the lowest, to the next one found.  An intolerable
    transversal meets every later complement as well, so it is kept as it
    is and never asked again.  Once all are intolerable, every maximal set
    is found and they are exactly the minimal intolerable sets.  Each found
    set costs at most one question per live bit, each minimal transversal
    one: the work is output sensitive, though both counts can be exponential.
    """
    found: list[int] = []
    pending, refuted = [0], []
    while pending:
        t = s = pending.pop()
        if not tolerable(t):
            refuted.append(t)
            continue
        for b in (1 << i for i in range(live.bit_length())):
            if live & ~s & b and tolerable(s | b):
                s |= b
        found.append(s)
        pending = _add_edge([*pending, t], ~s & live, refuted)
    return found, refuted


def _add_edge(transversals: list[int], edge: int, refuted: list[int]) -> list[int]:
    # one Berge step: what the pending minimal transversals become once the
    # hypergraph gains the edge, a found set's complement.  The refuted ones
    # meet it (see dualize) and join the pending ones that do in hitting.
    # One, x, that misses the edge gains an element b of it and stays
    # minimal unless a hitting h lies in x | b, that is h & ~x == b
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
    level, candidates, _, found = search_extensions(p, q)
    return _extension(level, candidates, reduce(and_, found)) if found else Program()


def hull_closure(p: Program, q: Program, cap: int | None, extended: bool) -> ClosedSet:
    """The closure of revise_hull(p, q), or with extended the meet of those
    of revise_extended_hull((p,), q)'s members, read off the search's index
    with the hull's, or each extension's, candidates switched on."""
    level, _, compiled, found = search_extensions(p, q, cap)
    if compiled is None:  # no extension, or the rank level the only one
        return closure(level | q) if found else BOTTOM
    chosen = found if extended else [reduce(and_, found)]
    return reduce(ClosedSet.meet, map(compiled.closure_with, chosen), BOTTOM)


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
