"""Concrete text syntax for programs, profiles, flocks, and closed sets.

Grammar:

    program := stmt*
    stmt    := (body "->")? literal "."
    body    := literal ("," literal)*
    literal := "-"? atom
    atom    := core.ATOM: an ASCII letter or "_", then ASCII letters,
               digits or "_"

"%" starts a comment running to end of line; whitespace is insignificant.
Profile files separate programs with lines consisting solely of
core.PROFILE_SEPARATOR ("---"), with optional whitespace around it; core
owns the separator, and rendering profiles and flocks writes it too.
Rendering is canonical: literals sort by (atom, positive first), rules
sort by their rendered text, and parse(render(x)) == x for programs and
profiles.  The inconsistent closed set renders as "#bottom".
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .core import ATOM, PROFILE_SEPARATOR, ClosedSet, Literal, Program, Rule, Stratification
from .errors import EmptyProfile, SourceError
from .merging import Profile
from .revision import Flock


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


# a whole line holding the separator and other whitespace; no newline is
# consumed, so each block keeps the newlines that count its lines
_SEPARATOR_LINE = re.compile(rf"^[^\S\n]*{re.escape(PROFILE_SEPARATOR)}[^\S\n]*$",
                             re.MULTILINE)


def _parse_block(text: str, line_offset: int) -> Program:
    return _Parser(_scan(text, line_offset)).program()


def parse_program(text: str) -> Program:
    """Parse program text; empty input is the empty program."""
    return _parse_block(text, 0)


def parse_programs(text: str) -> tuple[Program, ...]:
    """Parse a sequence of programs separated by ``---`` lines, dropping
    blocks that contain no statements.  Used for profiles and flocks."""
    programs: list[Program] = []
    line_offset = 0
    for block in _SEPARATOR_LINE.split(text):
        program = _parse_block(block, line_offset)
        if program.rules:
            programs.append(program)
        line_offset += block.count("\n")
    return tuple(programs)


def parse_profile(text: str) -> Profile:
    """Parse a profile file; raises EmptyProfile when no program is present."""
    programs = parse_programs(text)
    if not programs:
        raise EmptyProfile("profile text contains no programs")
    return Profile(programs)


Renderable = Union[Literal, Rule, Program, Profile, Flock, ClosedSet, Stratification]


def render(value: Renderable) -> str:
    """Canonical text form.  parse_program/parse_profile invert it for
    programs and profiles."""
    if isinstance(value, Stratification):
        return " | ".join(
            ", ".join(str(l) for l in sorted(layer, key=Literal.sort_key))
            for layer in value.layers
        )
    if isinstance(value, (Literal, Rule, Program, Profile, Flock, ClosedSet)):
        return str(value)
    raise TypeError(f"cannot render {type(value).__name__}")
