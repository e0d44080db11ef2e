"""Literals, rules, programs, and their forward-chaining consequences.

A belief base is a finite set of rules over literals; a fact is a rule
with an empty body.  The consequence operator fires every rule whose body
literals have all been derived and keeps going until nothing new appears.
If an atom and its negation are both derived, the consequences collapse
to the inconsistent value, represented here by the ``BOTTOM`` sentinel
rather than by materializing the set of all literals (which would depend
on an unbounded vocabulary).

This module owns the settings other modules share: ``PROFILE_SEPARATOR``,
the line that profiles and flocks render between members and ``textio``
splits on, and ``MEMO_SIZE``, the bound of every memo table.

All values are immutable and all operations are pure, so everything in
this module is safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

from .errors import InconsistentProgram

# the one definition of an atom name; textio scans with it too
ATOM = r"[A-Za-z_][A-Za-z0-9_]*"
_ATOM_RE = re.compile(ATOM)

PROFILE_SEPARATOR = "---"

# entries per memo table.  The memos are reused at short range: replaying
# the benchmark requests, 1,024 entries keep every hit ratio within 0.02
# of 65,536 entries, at 28 MiB peak RSS on fuzz-grid instead of 212 MiB
MEMO_SIZE = 1 << 10


@dataclass(frozen=True)
class Literal:
    """An atom or its negation."""

    atom: str
    positive: bool = True

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.atom):
            raise ValueError(f"invalid atom name: {self.atom!r}")

    def negated(self) -> Literal:
        return Literal(self.atom, not self.positive)

    def sort_key(self) -> tuple[str, bool]:
        # atom ascending, positive before negative
        return (self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else "-" + self.atom


@dataclass(frozen=True)
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

    @property
    def is_fact(self) -> bool:
        return not self.body

    def atoms(self) -> frozenset[str]:
        return frozenset(lit.atom for lit in self.body) | {self.head.atom}

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(l) for l in sorted(self.body, key=Literal.sort_key))
        return f"{body} -> {self.head}."


@dataclass(frozen=True)
class Program:
    """A finite set of rules with set semantics: inserting a duplicate is
    a no-op and equality ignores insertion order."""

    rules: frozenset[Rule] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", frozenset(self.rules))

    @classmethod
    def from_facts(cls, literals: Iterable[Literal]) -> Program:
        return cls(frozenset(Rule.fact(l) for l in literals))

    @property
    def facts(self) -> frozenset[Literal]:
        return frozenset(r.head for r in self.rules if r.is_fact)

    def atoms(self) -> frozenset[str]:
        out: set[str] = set()
        for r in self.rules:
            out.update(r.atoms())
        return frozenset(out)

    def __or__(self, other: Program) -> Program:
        return Program(self.rules | other.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self.rules

    def __iter__(self) -> Iterator[Rule]:
        # canonical text order, so iteration is deterministic everywhere
        return iter(sorted(self.rules, key=str))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self)


def _opposed(literals: frozenset[Literal]) -> bool:
    # distinct literals sharing an atom can only be an atom and its negation
    return len({l.atom for l in literals}) < len(literals)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Stratification:
    """Derivation layers of a consistent program: layer 0 holds the facts
    and layer i the literals first derived after i firing rounds."""

    layers: tuple[frozenset[Literal], ...]


def _rounds(program: Program) -> list[list[Literal]] | None:
    """Forward chaining, one firing round at a time.

    Unit-propagation style: each non-fact rule counts how many distinct
    body literals are still underived, and fires when the count reaches
    zero.  Round 0 holds the facts and round i+1 the new heads of the
    rules whose last missing body literal was derived in round i, so a
    literal's round is one more than the latest round of the body that
    first derives it.  Runs in time linear in the total body size.
    Returns None as soon as an atom and its negation are both derived.
    """
    heads: list[Literal] = []
    missing: list[int] = []
    watchers: dict[Literal, list[int]] = {}
    frontier: list[Literal] = []
    for rule in program.rules:
        if not rule.body:
            frontier.append(rule.head)
            continue
        idx = len(heads)
        heads.append(rule.head)
        missing.append(len(rule.body))
        for lit in rule.body:
            watchers.setdefault(lit, []).append(idx)

    rounds: list[list[Literal]] = []
    signs: dict[str, bool] = {}  # derived atom -> derived sign
    while True:
        layer: list[Literal] = []
        for lit in frontier:
            sign = signs.get(lit.atom)
            if sign is None:
                signs[lit.atom] = lit.positive
                layer.append(lit)
            elif sign != lit.positive:
                return None
        if rounds and not layer:
            return rounds
        rounds.append(layer)
        frontier = []
        for lit in layer:
            for idx in watchers.get(lit, ()):
                missing[idx] -= 1
                if not missing[idx]:
                    frontier.append(heads[idx])


@lru_cache(maxsize=MEMO_SIZE)
def closure(program: Program) -> ClosedSet:
    """Forward-chaining consequences of a program: the union of its
    firing rounds, or BOTTOM when they derive opposed literals."""
    rounds = _rounds(program)
    if rounds is None:
        return BOTTOM
    return ClosedSet(frozenset(chain.from_iterable(rounds)))


def is_consistent(program: Program) -> bool:
    return not closure(program).is_bottom


def consistent_with(literals: Iterable[Literal], program: Program) -> bool:
    """Whether the literal set can be added to the program as facts
    without collapsing its consequences."""
    return not closure(program | Program.from_facts(literals)).is_bottom


def stratify(program: Program) -> Stratification:
    """Split the consequences of a consistent program into its firing
    rounds.

    Layer 0 is the set of facts; layer i+1 holds the heads of rules whose
    bodies are covered by layers 0..i and that are not already derived.
    Layers after the first are nonempty, they are pairwise disjoint, and
    their union is the closure.
    """
    rounds = _rounds(program)
    if rounds is None:
        raise InconsistentProgram(str(program))
    return Stratification(tuple(frozenset(layer) for layer in rounds))


def entails(p: Program, q: Program) -> bool:
    """Consequence inclusion: every consequence of q is one of p."""
    return closure(q).issubset(closure(p))
