"""Concrete text syntax for programs, profiles, flocks, layers and closed sets.

Grammar:

    program := stmt*
    stmt    := (body "->")? literal "."
    body    := literal ("," literal)*
    literal := "-"? atom
    atom    := core.ATOM: an ASCII letter or "_", then ASCII letters,
               digits or "_"

"%" starts a comment running to end of line; whitespace is insignificant.
A profile, like an eh flock, is a tuple of programs.  Their files
separate programs with lines consisting solely of PROFILE_SEPARATOR
("---"), with optional whitespace around it, and parse_profile reads
both; rendering a tuple of programs writes the separator too.

One regular expression splits a program (a profile block) into token
strings, and one loop parses them.  An unexpected character anywhere in
a program or block is reported ahead of an earlier grammar error in it;
blocks are parsed in order.  Positions count lines and code points, and
a SourceError's line and column are computed only when it is raised,
from the offset of the token it points at.  A token is looked up in
core.LITERALS first, so each literal is the one process-wide Literal.

Rendering is canonical: literals sort by (atom, positive first), rules
sort by their rendered text, and parse(render(x)) == x for programs and
profiles.  The inconsistent closed set renders as "#bottom".
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, TypeVar, Union

from .core import ATOM, LITERALS, ClosedSet, Literal, Program, Rule
from .errors import EmptyProfile, SourceError

# the line between the programs of a profile or a flock, in text
PROFILE_SEPARATOR = "---"

# every token is one match: an arrow, an atom, a comment to end of line, or
# any other single non-whitespace character (punctuation, or a character
# outside the grammar, on which parsing fails)
_TOKEN = re.compile(rf"->|{ATOM}|%[^\n]*|\S")
_ATOM_TOKEN = re.compile(ATOM)
_PUNCTUATION = frozenset(("->", "-", ",", "."))

# a whole line holding the separator and other whitespace; no newline is
# consumed, so each block keeps the newlines that count its lines
_SEPARATOR_LINE = re.compile(rf"^[^\S\n]*{re.escape(PROFILE_SEPARATOR)}[^\S\n]*$",
                             re.MULTILINE)

_T = TypeVar("_T")


class _Mismatch(Exception):
    """A grammar error at a token index; the caller places it in the text."""


def _literal(tok: str, positive: bool, index: int) -> Literal:
    try:
        return Literal(tok, positive)
    except ValueError:
        expected = "a literal" if positive and not tok else "an atom"
        found = repr(tok) if tok else "end of input"
        raise _Mismatch(index, f"expected {expected}, found {found}") from None


def _rules(tokens: list[str]) -> set[Rule]:
    """The rules of a token list that ends in the sentinel ""."""
    negative, positive = LITERALS  # looked up first: a Literal call costs a frame
    rules: set[Rule] = set()
    i = 0
    tok = tokens[0]
    while tok:
        body: list[Literal] = []
        arrow = False  # once "->" is read, the next literal is the head
        while True:
            if tok == "-":
                i += 1
                tok = tokens[i]
                lit = negative.get(tok) or _literal(tok, False, i)
            else:
                lit = positive.get(tok) or _literal(tok, True, i)
            i += 1
            tok = tokens[i]
            if arrow or (tok != "," and tok != "->"):
                break
            body.append(lit)
            arrow = tok == "->"
            i += 1
            tok = tokens[i]
        if tok != ".":
            found = repr(tok) if tok else "end of input"
            raise _Mismatch(i, f"expected '.', found {found}" if arrow
                            else "expected ',', '->' or '.'")
        if body and not arrow:
            raise _Mismatch(i, "a rule body must be followed by '->'")
        rules.add(Rule(frozenset(body), lit))  # a fact when body is empty
        i += 1
        tok = tokens[i]
    return rules


def _error_at(text: str, offset: int, message: str) -> SourceError:
    # lines count "\n" only; columns count code points
    return SourceError(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset),
                       message)


def _block_error(text: str, start: int, end: int, index: int, message: str) -> SourceError:
    """Place a grammar error at the offset of token ``index`` of the block
    text[start:end], or at its last token when ``index`` is the sentinel.
    An unexpected character anywhere in the block outranks it."""
    offsets = []
    for m in _TOKEN.finditer(text, start, end):
        tok = m.group()
        if tok[0] == "%":
            continue
        if tok not in _PUNCTUATION and not _ATOM_TOKEN.match(tok):
            return _error_at(text, m.start(), f"unexpected character {tok!r}")
        offsets.append(m.start())
    return _error_at(text, offsets[min(index, len(offsets) - 1)], message)


def _parse_block(text: str, start: int, end: int) -> Program:
    tokens = _TOKEN.findall(text, start, end)
    if text.find("%", start, end) >= 0:
        tokens = [tok for tok in tokens if tok[0] != "%"]
    tokens.append("")
    try:
        return Program(frozenset(_rules(tokens)))
    except _Mismatch as mismatch:
        index, message = mismatch.args
    raise _block_error(text, start, end, index, message)


def parse_program(text: str) -> Program:
    """Parse program text; empty input is the empty program."""
    return _parse_block(text, 0, len(text))


def parse_single_program(text: str) -> Program:
    """parse_program for text that must hold one program.  Only when that
    fails is a separator line, the likeliest cause, looked for and named."""
    try:
        return parse_program(text)
    except SourceError:
        separator = _SEPARATOR_LINE.search(text)
        if separator is None:
            raise
    raise _error_at(text, separator.start() + separator.group().index(PROFILE_SEPARATOR),
                    f"a {PROFILE_SEPARATOR!r} line separates programs, but only "
                    "profiles and an eh BASE hold several programs")


def parse_profile(text: str) -> tuple[Program, ...]:
    """The programs of a profile or an eh flock, separated by ``---``
    lines; blocks that contain no statements are dropped, and
    EmptyProfile is raised when no program is left."""
    separators = [m.span() for m in _SEPARATOR_LINE.finditer(text)]
    starts = [0] + [sep_end for _, sep_end in separators]
    ends = [sep_start for sep_start, _ in separators] + [len(text)]
    blocks = (_parse_block(text, start, end) for start, end in zip(starts, ends))
    programs = tuple(program for program in blocks if program.rules)
    if not programs:
        raise EmptyProfile("contains no programs")
    return programs


def parse_file(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """parse applied to the UTF-8 text of the file at path, less one leading
    byte-order mark.  The mark is dropped after decoding, so the offset a
    decode error reports counts the file's own bytes.  Text that is not
    UTF-8, a parse error or an empty profile names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8").removeprefix("\ufeff"))
    except UnicodeDecodeError as exc:
        raise UnicodeError(f"{path}: not UTF-8 text "
                           f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})") from None
    except SourceError as exc:
        raise SourceError(exc.line, exc.column, exc.message, str(path)) from None
    except EmptyProfile as exc:
        raise EmptyProfile(f"{path}: {exc}") from None


Renderable = Union[Program, ClosedSet, tuple[Program, ...], tuple[frozenset[Literal], ...]]


def render(value: Renderable) -> str:
    """Canonical text form.  A tuple of programs, a profile or a flock,
    renders its members in order, separated by "---" lines; a tuple of
    consistent literal sets, such as stratify's layers, renders each as a
    ClosedSet, in order, separated by "|".  parse_program/parse_profile
    invert it for programs and tuples of nonempty programs."""
    if isinstance(value, tuple) and all(isinstance(m, Program) for m in value):
        return f"\n{PROFILE_SEPARATOR}\n".join(map(str, value))
    if isinstance(value, tuple) and all(isinstance(m, frozenset) for m in value):
        return " | ".join(str(ClosedSet(layer)) for layer in value)
    if isinstance(value, (Program, ClosedSet)):
        return str(value)
    raise TypeError(f"cannot render {type(value).__name__}")
