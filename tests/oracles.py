"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: whole-program scan fixpoints,
full subset enumeration, a token-object parser that scans a whole
block before parsing it, and a fuzz instance generator that builds a
fresh Literal for every draw.  These functions never call the optimized code
paths they are used to check.
"""

import random
import re
from typing import NamedTuple

from fcmerge import (
    BOTTOM,
    ClosedSet,
    FuzzConfig,
    Instance,
    Literal,
    PostulateId,
    Profile,
    Program,
    Rule,
    SourceError,
    Strategy,
)
from fcmerge.core import ATOM
from fcmerge.fuzz import atom_pool
from fcmerge.textio import PROFILE_SEPARATOR


def naive_closure(program: Program) -> ClosedSet:
    """Round-by-round rule application until nothing changes."""
    derived = {r.head for r in program.rules if not r.body}
    while True:
        added = False
        for rule in program.rules:
            if rule.head not in derived and rule.body <= derived:
                derived.add(rule.head)
                added = True
        if not added:
            break
    for l in derived:
        if Literal(l.atom, not l.positive) in derived:
            return BOTTOM
    return ClosedSet(frozenset(derived))


def naive_layers(program: Program) -> tuple[frozenset, ...]:
    """Round tags of the naive fixpoint (assumes a consistent program)."""
    derived = {r.head for r in program.rules if not r.body}
    layers = [frozenset(derived)]
    while True:
        new = {
            r.head
            for r in program.rules
            if r.body and r.head not in derived and r.body <= derived
        }
        if not new:
            return tuple(layers)
        derived |= new
        layers.append(frozenset(new))


def _consistent(program: Program) -> bool:
    return not naive_closure(program).is_bottom


def naive_exceptional(program: Program) -> Program:
    if not _consistent(program):
        return program
    bad = set()
    for rule in program.rules:
        if not _consistent(program | Program.from_facts(rule.body)):
            bad.add(rule)
    return Program(frozenset(bad))


def naive_base(program: Program) -> tuple[Program, ...]:
    levels = [program]
    while True:
        nxt = naive_exceptional(levels[-1])
        if nxt == levels[-1]:
            break
        levels.append(nxt)
    if levels[-1].rules:
        levels.append(Program())
    return tuple(levels)


def naive_rank(p: Program, q: Program) -> int:
    levels = naive_base(p)
    if not _consistent(p) or not _consistent(q):
        return len(levels) - 1
    for i, level in enumerate(levels):
        if _consistent(level | q):
            return i
    raise AssertionError("bases end in the empty program")


def brute_maximal_extensions(p: Program, q: Program) -> tuple[Program, ...]:
    """Full enumeration of all subsets of p between the rank level and p,
    filtered down to the maximal q-consistent ones."""
    if not _consistent(q):
        return ()
    required = naive_base(p)[naive_rank(p, q)].rules
    candidates = sorted(p.rules - required, key=str)
    tolerated = []
    for mask in range(1 << len(candidates)):
        subset = frozenset(
            c for i, c in enumerate(candidates) if mask & (1 << i)
        ) | required
        if _consistent(Program(subset) | q):
            tolerated.append(subset)
    maximal = [
        s for s in tolerated
        if not any(s < t for t in tolerated)
    ]
    return tuple(sorted((Program(s) for s in maximal), key=str))


class _Token(NamedTuple):
    kind: str  # atom | neg | arrow | comma | dot
    text: str
    line: int
    column: int


# tried in order at each position; columns count code points
_TOKENS = re.compile(rf"""
    (?P<newline>\n)
  | (?P<skip>[^\S\n]+|%[^\n]*)   # other whitespace, or a comment to end of line
  | (?P<arrow>->)
  | (?P<neg>-)
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<atom>{ATOM})
  | (?P<other>.)
""", re.VERBOSE)


def _scan(text: str, line_offset: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1 + line_offset
    line_start = 0
    for m in _TOKENS.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "other":
            raise SourceError(line, m.start() - line_start + 1,
                              f"unexpected character {m.group()!r}")
        elif kind != "skip":
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def fail(self, message: str) -> SourceError:
        # only called after a token was read, so at end of input the
        # last token is there to point at
        tok = self.peek() or self.tokens[-1]
        return SourceError(tok.line, tok.column, message)

    def take(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise self.fail(f"expected {expected}" +
                            (f", found {tok.text!r}" if tok else ", found end of input"))
        self.index += 1
        return tok

    def literal(self) -> Literal:
        tok = self.peek()
        if tok is None:
            raise self.fail("expected a literal, found end of input")
        positive = True
        if tok.kind == "neg":
            self.index += 1
            positive = False
        atom = self.take("atom", "an atom")
        return Literal(atom.text, positive)

    def program(self) -> Program:
        rules: set[Rule] = set()
        while self.peek() is not None:
            lits = [self.literal()]
            while self.peek() is not None and self.peek().kind == "comma":
                self.index += 1
                lits.append(self.literal())
            tok = self.peek()
            if tok is not None and tok.kind == "arrow":
                self.index += 1
                head = self.literal()
                self.take("dot", "'.'")
                rules.add(Rule(frozenset(lits), head))
            elif tok is not None and tok.kind == "dot":
                if len(lits) != 1:
                    raise self.fail("a rule body must be followed by '->'")
                self.index += 1
                rules.add(Rule.fact(lits[0]))
            else:
                raise self.fail("expected ',', '->' or '.'")
        return Program(frozenset(rules))


_SEPARATOR_LINE = re.compile(rf"^[^\S\n]*{re.escape(PROFILE_SEPARATOR)}[^\S\n]*$",
                             re.MULTILINE)


def reference_parse_program(text: str) -> Program:
    """Scan the whole text, then parse the tokens: an unexpected
    character anywhere outranks an earlier grammar error."""
    return _Parser(_scan(text)).program()


def reference_parse_programs(text: str) -> tuple[Program, ...]:
    """Each ``---``-separated block is scanned, then parsed, in order;
    positions count lines from the start of the whole text."""
    programs = []
    line_offset = 0
    for block in _SEPARATOR_LINE.split(text):
        program = _Parser(_scan(block, line_offset)).program()
        if program.rules:
            programs.append(program)
        line_offset += block.count("\n")
    return tuple(programs)


def _draw_literal(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...]) -> Literal:
    return Literal(rng.choice(pool), rng.random() >= cfg.neg_prob)


def _draw_rule(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...]) -> Rule:
    body_size = rng.randint(0, cfg.body_len)
    body = frozenset(_draw_literal(cfg, rng, pool) for _ in range(body_size))
    return Rule(body, _draw_literal(cfg, rng, pool))


def reference_gen_program(cfg: FuzzConfig, rng: random.Random,
                          pool: tuple[str, ...]) -> Program:
    """fuzz.gen_program, drawing the same values in the same order, with
    a new Literal built for every draw."""
    count = rng.randint(0, cfg.rules)
    return Program(frozenset(_draw_rule(cfg, rng, pool) for _ in range(count)))


def _draw_nonempty(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...]) -> Program:
    p = reference_gen_program(cfg, rng, pool)
    return p if p.rules else Program.from_facts([_draw_literal(cfg, rng, pool)])


def _draw_variant(p: Program, cfg: FuzzConfig, rng: random.Random,
                  pool: tuple[str, ...]) -> Program:
    c = naive_closure(p)
    if c.is_bottom:
        return p | Program(frozenset({_draw_rule(cfg, rng, pool)}))
    derived = sorted(c.literals, key=Literal.sort_key)
    if derived and rng.random() < 0.5:
        body_size = rng.randint(1, max(1, min(cfg.body_len, len(derived))))
        body = frozenset(rng.choice(derived) for _ in range(body_size))
        return p | Program(frozenset({Rule(body, rng.choice(derived))}))
    blocked = [lit for atom in pool for lit in (Literal(atom), Literal(atom, False))
               if lit not in c]
    if not blocked:
        return p
    body = frozenset({rng.choice(blocked)})
    return p | Program(frozenset({Rule(body, _draw_literal(cfg, rng, pool))}))


def _draw_profile(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...],
                  max_members: int = 3) -> Profile:
    count = rng.randint(1, max_members)
    return Profile(tuple(_draw_nonempty(cfg, rng, pool) for _ in range(count)))


def reference_gen_instance(pid: PostulateId, cfg: FuzzConfig, rng: random.Random,
                           strategy: Strategy) -> Instance:
    """fuzz.gen_instance as a straight transcription: the same draws in
    the same order, a new Literal per draw, naive_closure for consistency."""
    extended = atom_pool(2 * cfg.atoms)
    pool_p = pool_q = extended[:cfg.atoms]
    if rng.random() >= 0.5:
        pool_q = extended[cfg.atoms:]
    gen = reference_gen_program
    if pid is PostulateId.SA5:
        p1, q1 = gen(cfg, rng, pool_p), gen(cfg, rng, pool_q)
        return Instance(strategy, programs={
            "P1": p1, "P2": _draw_variant(p1, cfg, rng, pool_p),
            "Q1": q1, "Q2": _draw_variant(q1, cfg, rng, pool_q),
        })
    if pid is PostulateId.SA6:
        return Instance(strategy, programs={
            "P": gen(cfg, rng, pool_p), "Q1": gen(cfg, rng, pool_q), "Q2": gen(cfg, rng, pool_q),
        })
    if pid.family == "SA":
        p, q = gen(cfg, rng, pool_p), gen(cfg, rng, pool_q)
        return Instance(strategy, programs={"P": p, "Q": q})

    constraint = gen(cfg, rng, pool_p)
    if rng.random() < 0.5:
        constraint = constraint | Program.from_facts([_draw_literal(cfg, rng, pool_p)])
    if pid is PostulateId.FP3:
        members = tuple(_draw_nonempty(cfg, rng, pool_q) for _ in range(rng.randint(1, 2)))
        variants = tuple(_draw_variant(m, cfg, rng, pool_q) for m in members)
        return Instance(
            strategy,
            programs={"P": constraint, "Q": _draw_variant(constraint, cfg, rng, pool_p)},
            profiles={"profile1": Profile(members), "profile2": Profile(variants)},
        )
    if pid is PostulateId.FP4:
        def side() -> Program:
            if rng.random() >= 0.7:
                return _draw_nonempty(cfg, rng, pool_q)
            for _ in range(4):
                candidate = constraint | gen(cfg, rng, pool_q)
                if not naive_closure(candidate).is_bottom and candidate.rules:
                    return candidate
            return constraint if constraint.rules else _draw_nonempty(cfg, rng, pool_q)
        return Instance(strategy, programs={"constraint": constraint, "P1": side(), "P2": side()})
    if pid in (PostulateId.FP5, PostulateId.FP6):
        return Instance(strategy, programs={"constraint": constraint}, profiles={
            "profile1": _draw_profile(cfg, rng, pool_q, 2),
            "profile2": _draw_profile(cfg, rng, pool_q, 2),
        })
    if pid in (PostulateId.FP7, PostulateId.FP8):
        return Instance(strategy,
                        programs={"constraint": constraint, "Q": gen(cfg, rng, pool_q)},
                        profiles={"profile1": _draw_profile(cfg, rng, pool_q)})
    return Instance(strategy, programs={"constraint": constraint},
                    profiles={"profile1": _draw_profile(cfg, rng, pool_q)})
