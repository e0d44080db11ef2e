"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: whole-program scan fixpoints,
full subset enumeration, and a token-object parser that scans a whole
block before parsing it.  These functions never call the optimized code
paths they are used to check.
"""

import re
from typing import NamedTuple

from fcmerge import BOTTOM, ClosedSet, Literal, Program, Rule, SourceError
from fcmerge.core import ATOM, PROFILE_SEPARATOR


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
