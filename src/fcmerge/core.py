"""Literals, rules, programs, and their forward-chaining consequences.

A belief base is a finite set of rules over literals; a fact is a rule
with an empty body.  The consequence operator fires every rule whose body
literals have all been derived and keeps going until nothing new appears.
If an atom and its negation are both derived, the consequences collapse
to the inconsistent value, represented here by the ``BOTTOM`` sentinel
rather than by materializing the set of all literals (which would depend
on an unbounded vocabulary).

``closure`` sweeps the rules that have not fired until a sweep fires
nothing.  Past ``SWEEP_VISITS`` rule visits per rule it compiles a
``CompiledProgram``, the watcher index that cuts ``stratify``'s rounds when
built and answers ``revision``'s questions (bitmasks of switched-off rules
to switch on) by deriving breadth first onto one flat trail, then undoing it.

This module owns the memo bounds: ``MEMO_SIZE`` entries per table and, for
``memo`` (``base``'s and the revision table's), ``MEMO_RULES`` rules beyond the newest.

There is one object per literal: ``Literal(atom, positive)``, also on
unpickling and copying, returns the one that ``LITERALS`` holds for the life
of the process.  It compares and hashes by identity and stores its text and
sort order, so the watcher index, rendering and sorting read it in C.

All values are immutable and all operations are pure, so everything in
this module is safe to share between threads; a ``memo`` table has a lock,
and two threads that build one new literal get one object, text and all.
The value types are hand-written, not dataclasses: ``import fcmerge`` loads
no ``dataclasses``.  The one mutable object, a ``CompiledProgram``, is never
cached; only ``revision``'s search hands one on, to its readers there.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache, wraps
from itertools import chain
from operator import attrgetter
from threading import Lock
from typing import Iterable, Iterator, Sequence

from .errors import InconsistentProgram

# the one definition of an atom name; textio scans with it too
ATOM = r"[A-Za-z_][A-Za-z0-9_]*"
_ATOM_RE = re.compile(ATOM)
_set = object.__setattr__  # how a frozen value type sets its fields
# the one Literal of each atom and sign, by atom: (negative, positive)
LITERALS: tuple[dict[str, Literal], dict[str, Literal]] = ({}, {})
_TEXT, _ORDER = attrgetter("_text"), attrgetter("_order")  # a literal's, read in C

# memo bounds, chosen by end-to-end time and memory, not by hit ratio: every
# rank-large hit falls within one request.  64 entries, not 1,024, cut the GC's
# share of fuzz-grid time from 8.2% to 1.3%.  The rule bound cut peak RSS over 40
# requests of 1,024 rules from 46.6 to 35.0 MiB on base, and from 31.8 to 25.2 on revisions
MEMO_SIZE = 1 << 6
MEMO_RULES = 1 << 11
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def memo(fn):
    """fn memoised like lru_cache(maxsize=MEMO_SIZE), with its leading Programs (one or two)
    looked up by their rules, not by Program.__hash__, and the least recently used leaving
    also while those beyond the newest hold over MEMO_RULES rules; exceptions are not cached."""
    table, lock, hits, misses, held = {}, Lock(), 0, 0, 0  # key -> (result, rules)
    acquire, release = lock.acquire, lock.release  # half the cost of `with lock`

    @wraps(fn)
    def wrapper(*args):
        nonlocal hits, misses, held
        if len(args) > 1 and args[1].__class__ is Program:  # the revision table's p and q
            key = args[0].rules, args[1].rules, args[2:]
        elif args[0].__class__ is Program:  # base's program
            key = args[0].rules, (), args[1:]
        else:  # no Program, no rules to count
            key = (), (), args
        if (entry := table.get(key)) is not None:
            acquire()
            try:  # to the back, unless a miss has evicted it meanwhile
                hits += 1
                if table.pop(key, None) is not None:
                    table[key] = entry
            finally:
                release()
            return entry[0]
        try:  # fn runs unlocked; the miss counts also when it raises
            entry = fn(*args), len(key[0]) + len(key[1])
        finally:
            acquire()
            try:  # stored unless fn raised or a concurrent miss stored key first
                misses += 1
                if entry is not None and table.setdefault(key, entry) is entry:
                    held += entry[1]
                    while len(table) > MEMO_SIZE or held - entry[1] > MEMO_RULES:
                        held -= table.pop(next(iter(table)))[1]
            finally:
                release()
        return entry[0]

    def cache_clear() -> None:
        nonlocal hits, misses, held
        with lock:
            table.clear()
            hits = misses = held = 0

    wrapper.cache_info = lambda: CacheInfo(hits, misses, MEMO_SIZE, len(table))
    wrapper.cache_clear = cache_clear
    return wrapper


# rule visits per rule that closure's sweeps may make before it compiles
# the program.  On the benchmark requests (seed 3101), rank-large closures
# visit 1.9 per rule at the median, 6.3 at p99 and 9.6 at most
SWEEP_VISITS = 8


class _Value:
    """Frozen fields, a dataclass's repr, and pickling and copying through the constructor."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # a private slot is derived from the fields: not shown, not pickled
    def __repr__(self) -> str:
        fields = (name for name in self.__slots__ if name[0] != "_")
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")


class Literal(_Value):
    """An atom or its negation, hash-consed: one object per (atom, sign) for
    the life of the process, so literals compare and hash by identity.  Its
    text and sort order are stored on it before it is shared."""

    __slots__ = ("atom", "positive", "_text", "_order")

    def __new__(cls, atom: str, positive: bool = True) -> Literal:
        try:  # positive indexes LITERALS as 0 or 1; only a bool finds its own sign
            lit = LITERALS[positive][atom]
            if lit.positive is positive:
                return lit
        except (LookupError, TypeError):
            pass
        if not (isinstance(atom, str) and _ATOM_RE.fullmatch(atom)):
            raise ValueError(f"invalid atom name: {atom!r}")
        if not isinstance(positive, bool):
            raise ValueError(f"invalid literal sign: {positive!r}")
        lit = object.__new__(cls)
        _set(lit, "atom", atom)
        _set(lit, "positive", positive)
        _set(lit, "_text", atom if positive else "-" + atom)
        _set(lit, "_order", lit.sort_key())
        return LITERALS[positive].setdefault(atom, lit)  # a racing thread's, if first

    def sort_key(self) -> tuple[str, bool]:
        # atom ascending, positive before negative
        return (self.atom, not self.positive)

    def __str__(self) -> str:
        return self._text


class Rule(_Value):
    """body -> head.  A fact is a rule with an empty body.

    Duplicate body literals collapse at construction.  A body containing
    an atom and its negation is legal; such a rule simply never fires in
    a consistent context.
    """

    __slots__ = ("body", "head")

    def __init__(self, body: Iterable[Literal], head: Literal) -> None:
        _set(self, "body", frozenset(body))
        _set(self, "head", head)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Rule:
            return NotImplemented
        return (self.body, self.head) == (other.body, other.head)

    def __hash__(self) -> int:
        return hash((self.body, self.head))

    @classmethod
    def fact(cls, head: Literal) -> Rule:
        return cls(frozenset(), head)

    def atoms(self) -> frozenset[str]:
        return frozenset(lit.atom for lit in self.body) | {self.head.atom}

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head._text}."
        body = ", ".join(map(_TEXT, sorted(self.body, key=_ORDER)))
        return f"{body} -> {self.head._text}."


class Program(_Value):
    """A finite set of rules with set semantics: inserting a duplicate is
    a no-op and equality ignores insertion order."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Rule] = frozenset()) -> None:
        _set(self, "rules", frozenset(rules))

    def __eq__(self, other: object) -> bool:
        return (self.rules,) == (other.rules,) if other.__class__ is Program else NotImplemented

    def __hash__(self) -> int:
        return hash((self.rules,))

    @classmethod
    def from_facts(cls, literals: Iterable[Literal]) -> Program:
        return cls(frozenset(Rule.fact(l) for l in literals))

    def atoms(self) -> frozenset[str]:
        return frozenset().union(*map(Rule.atoms, self.rules))

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


class ClosedSet(_Value):
    """The result of closing a program: either a consistent set of
    literals or the inconsistent sentinel.

    ``literals is None`` encodes the inconsistent value.  It behaves as
    the top element: it contains every literal, includes every set, and
    intersecting with it is the identity.
    """

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[Literal] | None) -> None:
        if literals is not None:
            literals = frozenset(literals)
            if _opposed(literals):
                raise ValueError("a closed set cannot hold an atom and its negation")
        _set(self, "literals", literals)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ClosedSet:
            return NotImplemented
        return (self.literals,) == (other.literals,)

    def __hash__(self) -> int:
        return hash((self.literals,))

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> ClosedSet:
        """Collapse a plain literal set: opposed literals yield BOTTOM."""
        lits = frozenset(literals)
        return BOTTOM if _opposed(lits) else _closed(lits)

    @property
    def is_bottom(self) -> bool:
        return self.literals is None

    def __contains__(self, literal: Literal) -> bool:
        return self.literals is None or literal in self.literals

    def __iter__(self) -> Iterator[Literal]:
        if self.literals is None:
            raise ValueError("cannot enumerate the inconsistent closure")
        return iter(sorted(self.literals, key=_ORDER))

    def issubset(self, other: ClosedSet) -> bool:
        return other.literals is None or self.literals is not None and self.literals <= other.literals

    def meet(self, other: ClosedSet) -> ClosedSet:
        """Intersection, with the inconsistent value as top element."""
        if self.literals is None:
            return other
        if other.literals is None:
            return self
        return _closed(self.literals & other.literals)

    def join(self, other: ClosedSet) -> ClosedSet:
        """Union as literal sets; opposed literals collapse to BOTTOM."""
        if self.literals is None or other.literals is None:
            return BOTTOM
        return ClosedSet.of(self.literals | other.literals)

    def __str__(self) -> str:
        return "#bottom" if self.literals is None else ", ".join(map(_TEXT, self))


BOTTOM = ClosedSet(None)


def _closed(literals: frozenset[Literal]) -> ClosedSet:
    # a ClosedSet of literals its caller has already found unopposed
    closed = object.__new__(ClosedSet)
    _set(closed, "literals", literals)
    return closed


class CompiledProgram:
    """A program compiled once for forward chaining on top of its own
    closure.

    The watcher index holds, for each rule, its head and the number of
    distinct body literals still underived, and for each literal the
    positions of the rules whose body holds it, in rule order.  ``rules``
    holds the rules by position, those of ``off`` first, at their positions
    in ``off``, each with one extra missing count: switched off.
    Construction fires the rules with nothing missing, one round at a time,
    and cuts ``rounds`` from the trail, the derived literals in order: round
    0 the facts, round i+1 the new heads of the rules whose last missing
    body literal was derived in round i, or None when they derive an atom
    and its negation.  A question derives breadth first onto the trail past
    the closure, then undoes that part in one pass.  Chaining runs in time
    linear in the total body size (Dowling and Gallier, 1984).

    The index is mutable: it is never cached, and only ``revision``'s
    search returns one, to its readers in that module.
    """

    __slots__ = ("rules", "_heads", "_missing", "_watchers", "_signs", "_trail", "rounds")

    def __init__(self, program: Program, off: Sequence[Rule] = ()) -> None:
        self.rules = rules = (*off, *program.rules)
        self._heads = [r.head for r in rules]
        self._missing = [len(r.body) + 1 for r in off] + [len(r.body) for r in program.rules]
        self._watchers = watchers = {}  # body literal -> positions of its rules, in order
        for idx, rule in enumerate(rules):
            for lit in rule.body:
                watchers.setdefault(lit, []).append(idx)
        self._signs: dict[str, bool] = {}  # derived atom -> derived sign
        self._trail: list[Literal] = []  # derived literals in order, the closure's first
        self.rounds: list[list[Literal]] | None = []
        fired = [head for head, missing in zip(self._heads, self._missing) if not missing]
        while fired or not self.rounds:  # round 0 stays even when empty
            start, frontier, fired = len(self._trail), fired, []
            if not self._derive(frontier, fired):
                self.rounds = None
                break
            if len(self._trail) > start or not self.rounds:
                self.rounds.append(self._trail[start:])

    def _derive(self, queue: Iterable[Literal], fired: list[Literal]) -> bool:
        """Derive the queue's literals in turn onto the trail, appending the
        head of each rule this fires to ``fired``: a queue that is its own
        ``fired`` runs breadth first to the fixpoint.  False as soon as an
        atom and its negation meet; the trail holds all that was derived."""
        signs, watchers, missing, trail = self._signs, self._watchers, self._missing, self._trail
        for lit in queue:
            atom, positive = lit.atom, lit.positive
            sign = signs.get(atom)
            if sign is None:
                signs[atom] = positive
                trail.append(lit)
                for idx in watchers.get(lit, ()):
                    missing[idx] -= 1
                    if not missing[idx]:
                        fired.append(self._heads[idx])
            elif sign != positive:
                return False
        return True

    def consistent_with(self, on: int, derived: list[Literal] | None = None) -> bool:
        """Whether switching on the switched-off positions set in the
        bitmask ``on`` keeps the program's consequences consistent; if it
        does, what they newly derive is appended to ``derived`` when it is
        given.  ``on`` sets no bit past those positions, which would fire a
        switched-on rule one body literal short.  Forward chaining is
        monotone, so only what ``on`` adds is propagated, on top of the
        program's closure, and then undone: the index is back in its
        closure state on return."""
        if self.rounds is None:
            return False
        positions, missing = [idx for idx in range(on.bit_length()) if on >> idx & 1], self._missing
        for idx in positions:
            missing[idx] -= 1
        consistent = self._ask([self._heads[idx] for idx in positions if not missing[idx]],
                               derived=derived)
        for idx in positions:
            missing[idx] += 1
        return consistent

    def closure_with(self, on: int) -> ClosedSet:
        """The closure of the program with the switched-off positions set
        in the bitmask ``on``, and no bit past them, switched on, propagated
        on top of its own closure as a ``consistent_with`` question is."""
        derived: list[Literal] = []
        if not self.consistent_with(on, derived):
            return BOTTOM
        return _closed(frozenset(chain(chain.from_iterable(self.rounds), derived)))

    def inert(self, idx: int) -> bool:
        """Whether the rule at a position changes nothing when switched on
        in any consistent state holding the closure: its head is derived
        in the closure, so firing adds nothing, or a body literal is
        opposed to a derived one, so it never fires."""
        signs, rule = self._signs, self.rules[idx]
        return (signs.get(rule.head.atom) == rule.head.positive
                or any(signs.get(l.atom) == (not l.positive) for l in rule.body))

    def intolerable(self) -> list[int]:
        """The positions of the rules whose bodies cannot be consistently
        added to the switched-on rules, in ``rules`` order.

        Only unsettled rules are asked about.  A rule is settled once it
        has fired in a consistent state, at construction or in a question
        answered consistent: its body then adds nothing to that state.
        """
        if self.rounds is None:
            return list(range(len(self.rules)))
        settled = [not m for m in self._missing]
        return [idx for idx, rule in enumerate(self.rules)
                if not settled[idx] and not self._ask(rule.body, settled)]

    def _ask(self, literals: Iterable[Literal], settled: list[bool] | None = None,
             derived: list[Literal] | None = None) -> bool:
        # derive the literals on top of the closure and undo them; when
        # they stay consistent, mark in settled every rule they fired and
        # append to derived every literal they derived
        mark, queue = len(self._trail), list(literals)
        consistent = self._derive(queue, queue)
        new = self._trail[mark:]
        del self._trail[mark:]
        if not consistent:
            settled = None
        elif derived is not None:
            derived += new
        signs, watchers, missing = self._signs, self._watchers, self._missing
        for lit in new:
            del signs[lit.atom]
            for idx in watchers.get(lit, ()):
                if settled is not None and not missing[idx]:
                    settled[idx] = True
                missing[idx] += 1
        return consistent


@lru_cache(maxsize=MEMO_SIZE)
def closure(program: Program) -> ClosedSet:
    """Forward-chaining consequences of a program: the union of its
    firing rounds, or BOTTOM when they derive opposed literals.  Sweeps
    fire the rules whose bodies are derived until one fires nothing; past
    SWEEP_VISITS rule visits per rule, the program's index takes over."""
    signs: dict[str, bool] = {}  # derived atom -> derived sign
    derived: set[Literal] = set()
    pending, budget = program.rules, SWEEP_VISITS * len(program.rules)
    while budget >= len(pending):
        budget -= len(pending)
        waiting: list[Rule] = []
        for rule in pending:
            if not rule.body <= derived:
                waiting.append(rule)
            elif signs.setdefault(rule.head.atom, rule.head.positive) is not rule.head.positive:
                return BOTTOM
            else:
                derived.add(rule.head)
        if len(waiting) == len(pending):
            return _closed(frozenset(derived))
        pending = waiting
    return CompiledProgram(program).closure_with(0)


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
