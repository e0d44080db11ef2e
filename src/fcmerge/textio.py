"""Concrete text syntax for programs, profiles, flocks, and closed sets.

Grammar:

    program := stmt*
    stmt    := (body "->")? literal "."
    body    := literal ("," literal)*
    literal := "-"? atom
    atom    := [a-zA-Z_][a-zA-Z0-9_]*

"%" starts a comment running to end of line; whitespace is insignificant.
Profile files separate programs with lines consisting solely of "---".
Rendering is canonical: literals sort by (atom, positive first), rules
sort by their rendered text, and parse(render(x)) == x for programs and
profiles.  The inconsistent closed set renders as "#bottom".
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .core import ClosedSet, Literal, Program, Rule, Stratification
from .errors import EmptyProfile, SourceError
from .merging import Profile
from .revision import Flock

PROFILE_SEPARATOR = "---"

# ASCII only: str.isalpha/isalnum would let through letters and digits
# that Literal rejects
_ATOM_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ATOM_CHARS = _ATOM_START | frozenset("0123456789")


class _Token(NamedTuple):
    kind: str  # atom | neg | arrow | comma | dot
    text: str
    line: int
    column: int


def _scan(text: str, line_offset: int = 0) -> tuple[list[_Token], tuple[int, int]]:
    tokens: list[_Token] = []
    line = 1 + line_offset
    col = 1
    last_pos = (line, col)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        last_pos = (line, col)
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(_Token("arrow", "->", line, col))
                i += 2
                col += 2
            else:
                tokens.append(_Token("neg", "-", line, col))
                i += 1
                col += 1
        elif c == ",":
            tokens.append(_Token("comma", ",", line, col))
            i += 1
            col += 1
        elif c == ".":
            tokens.append(_Token("dot", ".", line, col))
            i += 1
            col += 1
        elif c in _ATOM_START:
            start = i
            startcol = col
            while i < n and text[i] in _ATOM_CHARS:
                i += 1
                col += 1
            tokens.append(_Token("atom", text[start:i], line, startcol))
        else:
            raise SourceError(line, col, f"unexpected character {c!r}")
    return tokens, last_pos


class _Parser:
    def __init__(self, tokens: list[_Token], end_pos: tuple[int, int]):
        self.tokens = tokens
        self.end_pos = end_pos
        self.index = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def fail(self, message: str) -> SourceError:
        tok = self.peek()
        if tok is not None:
            line, col = tok.line, tok.column
        elif self.tokens:
            # unexpected end of input: point at the last token
            line, col = self.tokens[-1].line, self.tokens[-1].column
        else:
            line, col = self.end_pos
        return SourceError(line, col, message)

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


def _parse_block(text: str, line_offset: int) -> Program:
    tokens, end_pos = _scan(text, line_offset)
    return _Parser(tokens, end_pos).program()


def parse_program(text: str) -> Program:
    """Parse program text; empty input is the empty program."""
    return _parse_block(text, 0)


def parse_programs(text: str) -> tuple[Program, ...]:
    """Parse a sequence of programs separated by ``---`` lines, dropping
    blocks that contain no statements.  Used for profiles and flocks."""
    programs: list[Program] = []
    block: list[str] = []
    start = 0
    lines = text.split("\n")

    def flush(start_line: int) -> None:
        chunk = "\n".join(block)
        program = _parse_block(chunk, start_line)
        if program.rules:
            programs.append(program)

    for lineno, line in enumerate(lines):
        if line.strip() == PROFILE_SEPARATOR:
            flush(start)
            block.clear()
            start = lineno + 1
        else:
            block.append(line)
    flush(start)
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
