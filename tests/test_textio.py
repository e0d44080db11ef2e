import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    BOTTOM,
    EmptyProfile,
    Literal,
    Profile,
    Program,
    Rule,
    SourceError,
    parse_profile,
    parse_program,
    render,
    stratify,
)

from helpers import LAYERED, closed, facts, lit, lits, prog
from oracles import reference_parse_program, reference_parse_programs
from strategies import programs


class TestParseProgram:
    def test_layered_chain(self):
        p = parse_program(LAYERED)
        assert len(p) == 9
        assert facts(p) == lits("a", "u")

    def test_empty_input(self):
        assert parse_program("") == Program()
        assert parse_program("   \n\t ") == Program()

    def test_body_with_negated_head(self):
        p = parse_program("a, b -> -c.")
        assert p == Program({Rule(lits("a", "b"), lit("-c"))})

    def test_comments_and_whitespace(self):
        text = "% leading comment\n  a.  % trailing\n\n a ->\n   b .\n"
        assert parse_program(text) == prog("a. a -> b.")

    def test_duplicate_rules_collapse(self):
        assert parse_program("a. a. a -> b. a->b.") == prog("a. a -> b.")

    def test_opposed_duplicate_in_body_accepted(self):
        p = parse_program("a, -a -> b.")
        assert p == Program({Rule(lits("a", "-a"), lit("b"))})

    def test_underscore_atoms(self):
        assert facts(parse_program("_x1. _x1 -> y_2.")) == lits("_x1")


def _position_ids(cases):
    # name each case by its text and position only
    return [f"{text}-{line}-{col}" for text, line, col, _ in cases]


PROGRAM_ERRORS = [
    ("a", 1, 1, "expected ',', '->' or '.'"),  # missing '.'; points at the last token
    ("a, b.", 1, 5, "a rule body must be followed by '->'"),
    ("a -> b", 1, 6, "expected '.', found end of input"),
    ("a.\n@b.", 2, 1, "unexpected character '@'"),
    ("-.", 1, 2, "expected an atom, found '.'"),   # negation without atom
    ("a ->.", 1, 5, "expected an atom, found '.'"),  # missing head
    ("a,, b -> c.", 1, 3, "expected an atom, found ','"),
    ("café.", 1, 4, "unexpected character 'é'"),  # non-ASCII letter inside an atom
    ("a\u00b2.", 1, 2, "unexpected character '²'"),  # non-ASCII digit inside an atom
    ("a\t\r@", 1, 4, "unexpected character '@'"),
    (" a -> b.\n% c\n@", 3, 1, "unexpected character '@'"),
    ("a - > b.", 1, 5, "unexpected character '>'"),
    ("a. % end\nb -> ", 2, 3, "expected a literal, found end of input"),
    ("a.\x0bb\x1c@", 1, 6, "unexpected character '@'"),
    # an unexpected character outranks an earlier grammar error
    ("a b.\n@", 2, 1, "unexpected character '@'"),
    ("a -> .\n---\n@", 3, 1, "unexpected character '@'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, line, col, message", PROGRAM_ERRORS,
                             ids=_position_ids(PROGRAM_ERRORS))
    def test_positions(self, text, line, col, message):
        with pytest.raises(SourceError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, col, message)

    def test_message_mentions_position(self):
        with pytest.raises(SourceError, match=r"^2:1: "):
            parse_program("a.\n@")


PROFILE_ERRORS = [
    ("a.\n \t---\xa0\nb -> .", 3, 6, "expected an atom, found '.'"),
    ("a.\n----\nb.", 2, 2, "expected an atom, found '-'"),  # "----" is not a separator
    ("a.\n--- x\nb.", 2, 2, "expected an atom, found '-'"),
    ("---\n\n@", 3, 1, "unexpected character '@'"),
    ("a.\r\n---\r\n\r\nb ->\r\n", 4, 3, "expected a literal, found end of input"),
    ("a.\n\x0b---\x0b\nb. c", 3, 4, "expected ',', '->' or '.'"),
    ("a.\n---\n---\nb -> c", 4, 6, "expected '.', found end of input"),
    ("\x85---\n@", 2, 1, "unexpected character '@'"),
    # an unexpected character outranks an earlier grammar error in its
    # own block only; blocks are parsed in order
    ("a b.\n@", 2, 1, "unexpected character '@'"),
    ("a -> .\n---\n@", 1, 6, "expected an atom, found '.'"),
]


class TestProfileParsing:
    def test_two_programs(self):
        assert parse_profile("a -> b.\n---\nb -> c.") == (prog("a -> b."), prog("b -> c."))

    def test_single_program_without_separator(self):
        assert len(parse_profile("a.")) == 1

    def test_separator_alone_is_empty(self):
        with pytest.raises(EmptyProfile):
            parse_profile("---")
        with pytest.raises(EmptyProfile):
            parse_profile("% nothing\n---\n   ")

    def test_trailing_separator_tolerated(self):
        assert len(parse_profile("a.\n---\n")) == 1

    def test_error_positions_are_file_global(self):
        with pytest.raises(SourceError) as err:
            parse_profile("a.\n---\nb -> .\n")
        assert err.value.line == 3

    def test_parse_profile_keeps_order(self):
        out = parse_profile("b.\n---\na.")
        assert out == (prog("b."), prog("a."))

    def test_crlf_line_endings(self):
        assert parse_profile("a.\r\n---\r\nb.\r\n") == (prog("a."), prog("b."))

    @pytest.mark.parametrize("text, line, col, message", PROFILE_ERRORS,
                             ids=_position_ids(PROFILE_ERRORS))
    def test_positions(self, text, line, col, message):
        with pytest.raises(SourceError) as err:
            parse_profile(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, col, message)


def _literal_objects(programs):
    return [l for p in programs for r in p.rules for l in (*r.body, r.head)]


class TestLiteralSharing:
    """A parse call builds one Literal object per distinct literal."""

    def test_parse_program(self):
        found = _literal_objects([parse_program("a. a -> b. -a, b -> -b. b, -b -> a. -a.")])
        assert len({id(l) for l in found}) == len(set(found)) == 4

    def test_parse_profile_shares_across_blocks(self):
        found = _literal_objects(parse_profile("a -> b. -b.\n---\nb, -a -> a.\n---\n-a -> -b."))
        assert len({id(l) for l in found}) == len(set(found)) == 4


class TestRender:
    def test_closed_set_ordering(self):
        assert render(closed("b", "a", "-c")) == "a, b, -c"
        assert render(closed("-a", "a1")) == "-a, a1"

    def test_bottom(self):
        assert render(BOTTOM) == "#bottom"

    def test_empty_closed_set(self):
        assert render(closed()) == ""

    def test_program_lines_sorted(self):
        assert render(prog("b. a. a -> b.")) == "a -> b.\na.\nb."

    def test_rule_body_sorted(self):
        assert render(prog("b, a, -a -> c.")) == "a, -a, b -> c."

    def test_profile_and_flock(self):
        profile = Profile((prog("a."), prog("b.")))
        assert render(profile) == "a.\n---\nb."
        flock = (prog("b."), prog("a."))
        # flock member order is semantic input order, never re-sorted
        assert render(flock) == "b.\n---\na."

    def test_stratification(self):
        assert render(stratify(prog("a. a -> b."))) == "a | b"

    # a tuple renders as a flock when its members are programs and as
    # layers when they are literal sets, so the members pick the case
    def test_tuple_of_programs_is_a_flock(self):
        assert render((prog("a. a -> b."), prog("-c."))) == "a -> b.\na.\n---\n-c."

    def test_multi_layer_stratification(self):
        assert render(stratify(prog(LAYERED))) == "a, u | b, c, h | s, t | w"
        assert render(stratify(prog("-a. -a -> b. b -> a1."))) == "-a | b | a1"

    def test_stratification_of_the_empty_program(self):
        assert stratify(Program()) == (frozenset(),)
        assert render(stratify(Program())) == ""

    def test_empty_tuple(self):
        assert render(()) == ""

    def test_mixed_tuple_is_unrenderable(self):
        with pytest.raises(TypeError):
            render((prog("a."), lits("a")))
        with pytest.raises(TypeError):
            render((lits("a"), prog("a.")))

    def test_unrenderable(self):
        with pytest.raises(TypeError):
            render(42)


@given(programs)
@settings(max_examples=300, deadline=None)
def test_program_round_trip(p):
    assert parse_program(render(p)) == p


@given(programs, programs)
@settings(max_examples=200, deadline=None)
def test_render_injective(p, q):
    if p != q:
        assert render(p) != render(q)


@given(programs, programs)
@settings(max_examples=100, deadline=None)
def test_profile_round_trip(p, q):
    if not p.rules or not q.rules:
        return
    profile = Profile((p, q))
    assert parse_profile(render(profile)) == profile


@given(st.text(alphabet=string.ascii_letters + string.digits + "_éß²", max_size=6))
@settings(max_examples=300, deadline=None)
def test_scanner_agrees_with_literal(name):
    # the scanner and Literal share one atom grammar
    try:
        literal = Literal(name)
    except ValueError:
        with pytest.raises(SourceError):
            parse_program(name + ".")
    else:
        assert parse_program(name + ".") == Program.from_facts([literal])


# valid statements and every kind of token, the separator, and characters
# on the edges of the grammar: the line breaks and whitespace Python's
# regular expressions know beyond ASCII, and non-ASCII letters and digits
_FRAGMENTS = [
    "a", "b", "x_1", "-", "->", ",", ".", "a.", "-b, a -> c.", "%", "% c",
    "---", " ", "\n", "\r\n", "\t", "\x0b", "\x1c", "\x85", "\xa0", "é", "²", "@",
]


def _outcome(parse, text):
    try:
        return parse(text)
    except SourceError as err:
        return (err.line, err.column, err.message)
    except EmptyProfile:
        return ()  # the reference returns no programs


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=16).map("".join))
@settings(max_examples=1000, deadline=None)
def test_parsers_match_reference(text):
    assert _outcome(parse_program, text) == _outcome(reference_parse_program, text)
    assert _outcome(parse_profile, text) == _outcome(reference_parse_programs, text)
