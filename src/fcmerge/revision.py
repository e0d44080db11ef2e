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
variable (default 24) is the only way to set the cap, and each
enumeration reads it anew, unless the revision table, which is keyed by
the cap, passes the one it read.  One search serves maximal_extensions,
hull and the revision table, each reading only what it needs.  It asks
nothing about a candidate that the closure of the rank level and q makes
inert, and keeps each intolerable minimal transversal as it is: no
extension contains it, so it meets the complement of every extension
found later.
"""

from __future__ import annotations

import os
from functools import lru_cache, reduce
from operator import and_

from .core import MEMO_SIZE, CompiledProgram, Program, Rule, closure
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
    the program afresh for every rule.  Monotonicity also settles rules
    without a question of their own: a rule that fires in the closure, or
    while a body is propagated without collapse, has its body inside a
    consistent closure, so it is tolerated.  A call costs one compiled
    index, linear in the program size, plus work per rule still unsettled
    when its turn comes, proportional to what its body newly derives.
    """
    compiled = CompiledProgram(program)
    return Program(frozenset(compiled.rules[idx] for idx in compiled.intolerable()))


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


def search_extensions(p: Program, q: Program, cap: int | None = None
                      ) -> tuple[Program, tuple[Rule, ...], CompiledProgram | None, list[int]]:
    """The search behind maximal_extensions, hull and the h and eh
    revision closures, each of which reads what it needs: the rank level,
    the candidate rules outside it in canonical text order, the index the
    search asked (None when it asked nothing), and each maximal extension
    as a bitmask over the candidates, in the order found.

    No extension when q is inconsistent; the rank level alone, without a
    search, when no rule lies outside it.  The cap is enumeration_cap()
    unless given: the revision table passes the one it is keyed by.
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
    # one index of level | q, candidates switched off: a question switches a
    # set of them (a bitmask over positions) on, paying for what it derives.
    # A candidate inert in the index's closure state changes nothing when
    # switched on, so it lies in every extension and is never asked about.
    # Dualize and advance (Gunopulos et al., 1997) over the others: a
    # tolerable set in no found extension meets every found extension's
    # complement, so it holds a minimal transversal of them, tolerable too,
    # as dropping rules never makes forward chaining inconsistent.  Once
    # every minimal transversal is intolerable, every extension is found
    compiled = CompiledProgram(level | q, candidates)
    inert = sum(1 << i for i in range(len(candidates)) if compiled.inert(i))
    positions = [i for i in range(len(candidates)) if not inert >> i & 1]
    live = sum(1 << i for i in positions)
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
        found.append(s | inert)
        pending = _add_edge([*pending, t], ~s & live, refuted)
    return level, candidates, compiled, found


def _extension(level: Program, candidates: tuple[Rule, ...], s: int) -> Program:
    return Program(level.rules | {r for i, r in enumerate(candidates) if s >> i & 1})


def maximal_extensions(p: Program, q: Program) -> tuple[Program, ...]:
    """All maximal subsets of p that contain the rank level and stay
    consistent with q, in canonical text order.

    Empty exactly when q is inconsistent; the rank level alone, without
    a search, when no rule lies outside it, as when p | q is consistent
    (the base of p is built only when it is not).  More candidate rules than
    enumeration_cap() raise SizeLimitExceeded.  A candidate whose head
    closure(level | q) holds, or with a body literal opposed there, lies in
    every extension without a question.  The search is output sensitive:
    it asks at most one tolerability question per other candidate to grow
    each extension, and one per minimal transversal of the found
    extensions' complements.  Its work follows the number of extensions
    and of those transversals, not of subsets; both can be exponential.
    """
    level, candidates, _, found = search_extensions(p, q)
    return tuple(sorted((_extension(level, candidates, s) for s in found), key=str))


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
    level, candidates, _, found = search_extensions(p, q)
    return _extension(level, candidates, reduce(and_, found)) if found else Program()


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
