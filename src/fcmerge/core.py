"""Literals, rules, programs, and their forward-chaining consequences.

A belief base is a finite set of rules over literals; a fact is a rule
with an empty body.  The consequence operator fires every rule whose body
literals have all been derived and keeps going until nothing new appears.
If an atom and its negation are both derived, the consequences collapse
to the inconsistent value, represented here by the ``BOTTOM`` sentinel
rather than by materializing the set of all literals (which would depend
on an unbounded vocabulary).

Forward chaining runs on a ``CompiledProgram``: the program's watcher
index (rule heads, missing-body counts, the rules watching each literal,
found by its atom and sign) together with the state of its closure, and
rules that start switched off.  The same propagation loop yields the firing rounds that ``closure``
and ``stratify`` report, and answers "is the program plus these literals
and these switched-on rules consistent?" by propagating only what they
add on top of that closure and undoing it afterwards.

This module owns ``MEMO_SIZE``, the bound of every memo table.

All values are immutable and all operations are pure, so everything in
this module is safe to share between threads.  The one mutable object, a
``CompiledProgram``, is built inside the call that uses it and never
cached or returned, so its state lives within that call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import InconsistentProgram

# the one definition of an atom name; textio scans with it too
ATOM = r"[A-Za-z_][A-Za-z0-9_]*"
_ATOM_RE = re.compile(ATOM)

# entries per memo table, chosen by end-to-end time and memory, not by
# hit ratio.  The memos are reused at short range: replaying the benchmark
# requests (seed 3101), rank-large gets the same hits from 16 entries as
# from 65,536, and on fuzz-grid 64 entries lower the closure hit ratio
# from 0.773 to 0.759 and base's from 0.811 to 0.794 against 1,024.  Those
# extra misses cost less than the collector's passes over a thousand
# programs that are never asked for again: with 64 entries the cyclic GC
# share of fuzz-grid time fell from 8.2% to 1.3%, and both throughput and
# peak RSS improved.  128 entries matched 64 on fuzz-grid and held 4 MiB
# more on rank-large.
MEMO_SIZE = 1 << 6


@dataclass(frozen=True, slots=True)
class Literal:
    """An atom or its negation."""

    atom: str
    positive: bool = True

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.atom):
            raise ValueError(f"invalid atom name: {self.atom!r}")
        if not isinstance(self.positive, bool):
            raise ValueError(f"invalid literal sign: {self.positive!r}")

    def sort_key(self) -> tuple[str, bool]:
        # atom ascending, positive before negative
        return (self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else "-" + self.atom


@dataclass(frozen=True, slots=True)
class Rule:
    """body -> head.  A fact is a rule with an empty body.

    Duplicate body literals collapse at construction.  A body containing
    an atom and its negation is legal; such a rule simply never fires in
    a consistent context.
    """

    body: frozenset[Literal]
    head: Literal

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", frozenset(self.body))

    @classmethod
    def fact(cls, head: Literal) -> Rule:
        return cls(frozenset(), head)

    def atoms(self) -> frozenset[str]:
        return frozenset(lit.atom for lit in self.body) | {self.head.atom}

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(l) for l in sorted(self.body, key=Literal.sort_key))
        return f"{body} -> {self.head}."


@dataclass(frozen=True, slots=True)
class Program:
    """A finite set of rules with set semantics: inserting a duplicate is
    a no-op and equality ignores insertion order."""

    rules: frozenset[Rule] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", frozenset(self.rules))

    @classmethod
    def from_facts(cls, literals: Iterable[Literal]) -> Program:
        return cls(frozenset(Rule.fact(l) for l in literals))

    def atoms(self) -> frozenset[str]:
        out: set[str] = set()
        for r in self.rules:
            out.update(r.atoms())
        return frozenset(out)

    def __or__(self, other: Program) -> Program:
        return Program(self.rules | other.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        # canonical text order, so iteration is deterministic everywhere
        return iter(sorted(self.rules, key=str))

    def __str__(self) -> str:
        # distinct rules render differently: sorting the texts is __iter__'s order
        return "\n".join(sorted(map(str, self.rules)))


def _opposed(literals: frozenset[Literal]) -> bool:
    # distinct literals sharing an atom can only be an atom and its negation
    return len({l.atom for l in literals}) < len(literals)


@dataclass(frozen=True, slots=True)
class ClosedSet:
    """The result of closing a program: either a consistent set of
    literals or the inconsistent sentinel.

    ``literals is None`` encodes the inconsistent value.  It behaves as
    the top element: it contains every literal, includes every set, and
    intersecting with it is the identity.
    """

    literals: frozenset[Literal] | None

    def __post_init__(self) -> None:
        if self.literals is not None:
            lits = frozenset(self.literals)
            if _opposed(lits):
                raise ValueError("a closed set cannot hold an atom and its negation")
            object.__setattr__(self, "literals", lits)

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> ClosedSet:
        """Collapse a plain literal set: opposed literals yield BOTTOM."""
        lits = frozenset(literals)
        return BOTTOM if _opposed(lits) else cls(lits)

    @property
    def is_bottom(self) -> bool:
        return self.literals is None

    def __contains__(self, literal: Literal) -> bool:
        if self.literals is None:
            return True
        return literal in self.literals

    def __iter__(self) -> Iterator[Literal]:
        if self.literals is None:
            raise ValueError("cannot enumerate the inconsistent closure")
        return iter(sorted(self.literals, key=Literal.sort_key))

    def issubset(self, other: ClosedSet) -> bool:
        if other.literals is None:
            return True
        if self.literals is None:
            return False
        return self.literals <= other.literals

    def meet(self, other: ClosedSet) -> ClosedSet:
        """Intersection, with the inconsistent value as top element."""
        if self.literals is None:
            return other
        if other.literals is None:
            return self
        return ClosedSet(self.literals & other.literals)

    def join(self, other: ClosedSet) -> ClosedSet:
        """Union as literal sets; opposed literals collapse to BOTTOM."""
        if self.literals is None or other.literals is None:
            return BOTTOM
        return ClosedSet.of(self.literals | other.literals)

    def __str__(self) -> str:
        if self.literals is None:
            return "#bottom"
        return ", ".join(str(l) for l in self)


BOTTOM = ClosedSet(None)


# the watchers of an atom that no rule body mentions
_UNWATCHED: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


class CompiledProgram:
    """A program compiled once for forward chaining on top of its own
    closure.

    The watcher index holds, for each rule, its head and the number of
    distinct body literals still underived, and for each atom two lists:
    the rules whose body holds its negative literal and those whose body
    holds its positive one, indexed by ``Literal.positive``.  Keying by
    the atom string, whose hash is cached, keeps Literal's generated
    ``__hash__`` and ``__eq__`` out of chaining.  The rules of ``off``
    come first, at their positions in ``off``, each with one extra
    missing count: switched off.
    Construction fires the rules with nothing missing; ``rounds`` then
    holds the firing rounds (round 0 the facts, round i+1 the new heads of
    the rules whose last missing body literal was derived in round i), or
    None when they derive an atom and its negation.  Chaining runs in time
    linear in the total body size (Dowling and Gallier, 1984).

    The index is mutable: build one inside the call that uses it and do
    not cache or share it.
    """

    __slots__ = ("_heads", "_missing", "_watchers", "_signs", "rounds")

    def __init__(self, program: Program, off: Sequence[Rule] = ()) -> None:
        rules = (*off, *program.rules)
        self._heads = [r.head for r in rules]
        self._missing = [len(r.body) + 1 for r in off] + [len(r.body) for r in program.rules]
        watchers: dict[str, tuple[list[int], list[int]]] = {}
        for idx, rule in enumerate(rules):
            for lit in rule.body:
                pair = watchers.get(lit.atom)
                if pair is None:
                    pair = watchers[lit.atom] = ([], [])
                pair[lit.positive].append(idx)
        self._watchers = watchers
        self._signs: dict[str, bool] = {}  # derived atom -> derived sign
        facts = [head for head, missing in zip(self._heads, self._missing) if not missing]
        rounds: list[list[Literal]] = []
        self.rounds = rounds if self._propagate(facts, rounds) else None

    def _propagate(self, frontier: Iterable[Literal], rounds: list[list[Literal]]) -> bool:
        """Derive the frontier and everything it fires, one round at a
        time, appending each round's new literals to ``rounds``.

        Returns False as soon as an atom and its negation are both
        derived.  Each literal in ``rounds`` has had its sign recorded and
        its watchers' counts decremented, also on that early return, so
        ``rounds`` is the trail that ``consistent_with`` unwinds.
        """
        signs, watchers, missing, heads = self._signs, self._watchers, self._missing, self._heads
        while True:
            layer: list[Literal] = []
            fired: list[Literal] = []
            for lit in frontier:
                atom, positive = lit.atom, lit.positive
                sign = signs.get(atom)
                if sign is None:
                    signs[atom] = positive
                    layer.append(lit)
                    for idx in watchers.get(atom, _UNWATCHED)[positive]:
                        missing[idx] -= 1
                        if not missing[idx]:
                            fired.append(heads[idx])
                elif sign != positive:
                    rounds.append(layer)
                    return False
            # round 0 stays even when empty; a later empty round fires nothing
            if layer or not rounds:
                rounds.append(layer)
            if not fired:
                return True
            frontier = fired

    def consistent_with(self, literals: Iterable[Literal], on: Sequence[int] = ()) -> bool:
        """Whether the literals can be added to the program as facts, with
        the distinct switched-off positions ``on`` switched on, without
        collapsing its consequences.

        Forward chaining is monotone, so only what the literals and rules
        newly derive on top of the program's closure is propagated, and
        then undone: the index is back in its closure state on return.
        """
        if self.rounds is None:
            return False
        missing = self._missing
        if on:  # skipped on exceptional_rules' literals-only path, asked once per rule
            for idx in on:
                missing[idx] -= 1
            literals = chain(literals, [self._heads[idx] for idx in on if not missing[idx]])
        trail: list[list[Literal]] = []
        consistent = self._propagate(literals, trail)
        signs, watchers = self._signs, self._watchers
        for layer in trail:
            for lit in layer:
                del signs[lit.atom]
                for idx in watchers.get(lit.atom, _UNWATCHED)[lit.positive]:
                    missing[idx] += 1
        for idx in on:
            missing[idx] += 1
        return consistent


@lru_cache(maxsize=MEMO_SIZE)
def closure(program: Program) -> ClosedSet:
    """Forward-chaining consequences of a program: the union of its
    firing rounds, or BOTTOM when they derive opposed literals."""
    rounds = CompiledProgram(program).rounds
    if rounds is None:
        return BOTTOM
    return ClosedSet(frozenset(chain.from_iterable(rounds)))


def stratify(program: Program) -> tuple[frozenset[Literal], ...]:
    """Split the consequences of a consistent program into its firing
    rounds, one layer per round.

    Layer 0 is the set of facts; layer i+1 holds the heads of rules whose
    bodies are covered by layers 0..i and that are not already derived.
    Layers after the first are nonempty, they are pairwise disjoint, and
    their union is the closure.
    """
    rounds = CompiledProgram(program).rounds
    if rounds is None:
        raise InconsistentProgram(str(program))
    return tuple(frozenset(layer) for layer in rounds)


def entails(p: Program, q: Program) -> bool:
    """Consequence inclusion: every consequence of q is one of p."""
    return closure(q).issubset(closure(p))
