import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    BOTTOM,
    EmptyProfile,
    Flock,
    Literal,
    Profile,
    Program,
    Rule,
    SourceError,
    parse_profile,
    parse_program,
    parse_programs,
    render,
    stratify,
)

from helpers import LAYERED, closed, lit, lits, prog
from strategies import programs


class TestParseProgram:
    def test_layered_chain(self):
        p = parse_program(LAYERED)
        assert len(p) == 9
        assert p.facts == lits("a", "u")

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
        assert parse_program("_x1. _x1 -> y_2.").facts == lits("_x1")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("a", 1, 1),          # missing '.'; points at the last token
            ("a, b.", 1, 5),      # body without '->'
            ("a -> b", 1, 6),     # missing '.' at end of input
            ("a.\n@b.", 2, 1),    # unknown token
            ("-.", 1, 2),         # negation without atom
            ("a ->.", 1, 5),      # missing head
            ("a,, b -> c.", 1, 3),
            ("café.", 1, 4),      # non-ASCII letter inside an atom
            ("a\u00b2.", 1, 2),   # non-ASCII digit inside an atom
            ("a\t\r@", 1, 4),
            (" a -> b.\n% c\n@", 3, 1),
            ("a - > b.", 1, 5),
            ("a. % end\nb -> ", 2, 3),
            ("a.\x0bb\x1c@", 1, 6),
        ],
    )
    def test_positions(self, text, line, col):
        with pytest.raises(SourceError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == (line, col)

    def test_message_mentions_position(self):
        with pytest.raises(SourceError, match=r"^2:1: "):
            parse_program("a.\n@")


class TestProfileParsing:
    def test_two_programs(self):
        profile = parse_profile("a -> b.\n---\nb -> c.")
        assert profile.members == (prog("a -> b."), prog("b -> c."))

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

    def test_parse_programs_keeps_order(self):
        out = parse_programs("b.\n---\na.")
        assert out == (prog("b."), prog("a."))

    def test_crlf_line_endings(self):
        profile = parse_profile("a.\r\n---\r\nb.\r\n")
        assert profile.members == (prog("a."), prog("b."))

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("a.\n \t---\xa0\nb -> .", 3, 6),
            ("a.\n----\nb.", 2, 2),  # "----" is not a separator
            ("a.\n--- x\nb.", 2, 2),
            ("---\n\n@", 3, 1),
            ("a.\r\n---\r\n\r\nb ->\r\n", 4, 3),
            ("a.\n\x0b---\x0b\nb. c", 3, 4),
            ("a.\n---\n---\nb -> c", 4, 6),
            ("\x85---\n@", 2, 1),
        ],
    )
    def test_positions(self, text, line, col):
        with pytest.raises(SourceError) as err:
            parse_programs(text)
        assert (err.value.line, err.value.column) == (line, col)


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
        flock = Flock((prog("b."), prog("a.")))
        # flock member order is semantic input order, never re-sorted
        assert render(flock) == "b.\n---\na."

    def test_stratification(self):
        assert render(stratify(prog("a. a -> b."))) == "a | b"

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
