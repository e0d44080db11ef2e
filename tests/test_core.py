import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    BOTTOM,
    ClosedSet,
    InconsistentProgram,
    Literal,
    Profile,
    Program,
    Rule,
    closure,
    entails,
    stratify,
)
from fcmerge.core import CompiledProgram

from helpers import GAP_P, GAP_Q, LAYERED, TAXONOMY, closed, facts, lit, lits, prog
from oracles import naive_closure, naive_layers
from strategies import programs


class TestLiteral:
    def test_negation_is_an_involution(self):
        l = lit("-a")
        flipped = Literal(l.atom, not l.positive)
        assert flipped == lit("a") and Literal(flipped.atom, not flipped.positive) == l

    # a string is a bad atom name; anything else is a bad sign for atom "a"
    @pytest.mark.parametrize("bad", ["", "1a", "a-b", "a b", "ä", 2, 1, None])
    def test_invalid_atoms_rejected(self, bad):
        with pytest.raises(ValueError):
            Literal(bad) if isinstance(bad, str) else Literal("a", bad)

    def test_sort_order_puts_positive_first(self):
        ordered = sorted(lits("-a", "b", "a"), key=Literal.sort_key)
        assert [str(l) for l in ordered] == ["a", "-a", "b"]


class TestRule:
    def test_duplicate_body_literals_collapse(self):
        assert Rule([lit("a"), lit("a")], lit("b")) == Rule([lit("a")], lit("b"))

    def test_fact_is_empty_body(self):
        assert not Rule.fact(lit("a")).body
        assert Rule([lit("b")], lit("a")).body

    def test_opposed_body_is_legal_but_never_fires(self):
        p = Program({Rule([lit("a"), lit("-a")], lit("b")), Rule.fact(lit("a"))})
        assert closure(p) == closed("a")


class TestProgram:
    def test_set_semantics(self):
        r = Rule.fact(lit("a"))
        assert Program([r, r]) == Program([r])
        assert len(Program([r, r])) == 1

    def test_equality_ignores_insertion_order(self):
        r1, r2 = Rule.fact(lit("a")), Rule([lit("a")], lit("b"))
        assert Program([r1, r2]) == Program([r2, r1])

    def test_facts_and_atoms(self):
        p = prog("a. b -> -c.")
        assert facts(p) == lits("a")
        assert p.atoms() == {"a", "b", "c"}


class TestClosedSet:
    def test_bottom_contains_everything(self):
        assert lit("zz") in BOTTOM

    def test_consistent_variant_rejects_opposed(self):
        with pytest.raises(ValueError):
            ClosedSet(lits("a", "-a"))

    def test_of_collapses_opposed(self):
        assert ClosedSet.of(lits("a", "-a")) is BOTTOM or ClosedSet.of(lits("a", "-a")).is_bottom

    def test_subset_conventions(self):
        assert closed("a").issubset(BOTTOM)
        assert BOTTOM.issubset(BOTTOM)
        assert not BOTTOM.issubset(closed("a"))

    def test_meet_conventions(self):
        assert BOTTOM.meet(BOTTOM).is_bottom
        assert closed("a", "b").meet(BOTTOM) == closed("a", "b")
        assert closed("a", "b").meet(closed("b", "c")) == closed("b")

    def test_join_conventions(self):
        assert closed("a").join(BOTTOM).is_bottom
        assert closed("a").join(closed("-a")).is_bottom
        assert closed("a").join(closed("b")) == closed("a", "b")

    def test_iterating_bottom_fails(self):
        with pytest.raises(ValueError):
            list(BOTTOM)


class TestClosure:
    def test_layered_chain(self):
        assert closure(prog(LAYERED)) == closed("a", "u", "b", "c", "h", "t", "s", "w")

    def test_empty_program(self):
        assert closure(Program()) == closed()

    def test_opposed_facts_collapse(self):
        assert closure(prog("a. -a.")).is_bottom

    def test_derived_contradiction_collapses(self):
        p = prog("a. a -> b. b -> -a.")
        assert closure(p).is_bottom
        assert naive_closure(p).is_bottom

    def test_is_consistent(self):
        assert not closure(prog(LAYERED)).is_bottom
        assert closure(prog("a. -a.")).is_bottom
        # no facts, so nothing ever fires
        assert not closure(prog("a -> b. b -> -c. -c -> -a. -c -> b. -a -> -b. -a -> -c.")).is_bottom

    def test_consistent_with(self):
        assert not CompiledProgram(prog(TAXONOMY)).consistent_with(lits("n"))
        assert CompiledProgram(prog(LAYERED)).consistent_with(lits())
        assert CompiledProgram(prog("n -> c. n -> s.")).consistent_with(lits("n"))


class TestStratify:
    def test_layered_chain_golden(self):
        layers = stratify(prog(LAYERED))
        assert layers == (lits("a", "u"), lits("b", "c", "h"), lits("t", "s"), lits("w"))

    def test_empty_program_single_empty_layer(self):
        assert stratify(Program()) == (frozenset(),)

    def test_single_round(self):
        assert stratify(prog("a. a -> b.")) == (lits("a"), lits("b"))
        assert naive_layers(prog("a. a -> b.")) == (lits("a"), lits("b"))

    def test_inconsistent_program_rejected(self):
        with pytest.raises(InconsistentProgram):
            stratify(prog("a. -a."))
        with pytest.raises(InconsistentProgram):
            stratify(prog("a. a -> b. b -> -a."))


class TestEntails:
    def test_examples(self):
        assert entails(prog("a. a -> b."), prog("a."))
        assert entails(Program(), Program())
        assert not entails(prog("a."), prog("a. a -> b."))

    def test_bottom_entails_everything(self):
        assert entails(prog("a. -a."), prog(LAYERED))

    def test_inclusion_reading_is_reflexive(self):
        # the non-strict reading makes every program entail itself
        for text in (LAYERED, TAXONOMY, GAP_P, GAP_Q, "a. -a.", ""):
            assert entails(prog(text), prog(text))

    def test_both_directions_on_conflicting_pair(self):
        p, q = prog(GAP_P), prog(GAP_Q)
        assert not entails(p, q)
        assert not entails(q, p)


@given(programs, programs)
@settings(max_examples=200, deadline=None)
def test_closure_matches_naive_oracle(p, q):
    assert closure(p) == naive_closure(p)
    assert closure(p | q) == naive_closure(p | q)


@given(programs, programs, st.lists(st.frozensets(st.integers(0, 7)), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_switched_on_rules_match_closure(p, q, subsets):
    # p's rules, facts included, start switched off; every subset is asked
    # of the same index, so each question must leave it as it found it
    off = sorted(p.rules, key=str)
    compiled = CompiledProgram(q, off)
    for subset in subsets:
        on = [i for i in sorted(subset) if i < len(off)]
        switched_on = Program(frozenset(off[i] for i in on))
        assert compiled.consistent_with((), on) == (not closure(switched_on | q).is_bottom)


@given(programs, programs)
@settings(max_examples=200, deadline=None)
def test_closure_monotone(p, q):
    assert closure(p).issubset(closure(p | q))


@given(programs, programs)
@settings(max_examples=200, deadline=None)
def test_closure_idempotent_over_facts(q, p):
    total = closure(q | p)
    if total.is_bottom:
        # adding any facts to an inconsistent pool keeps it inconsistent
        assert closure(Program.from_facts([]) | q | p).is_bottom
    else:
        again = closure(Program.from_facts(total.literals) | p)
        assert again == total


@given(programs)
@settings(max_examples=200, deadline=None)
def test_facts_included_in_closure(p):
    c = closure(p)
    if not c.is_bottom:
        assert all(f in c for f in facts(p))


@given(programs)
@settings(max_examples=200, deadline=None)
def test_stratification_partitions_closure(p):
    if closure(p).is_bottom:
        return
    layers = stratify(p)
    seen = set()
    for layer in layers:
        assert not (layer & seen)
        seen |= layer
    assert frozenset(seen) == closure(p).literals
    chaining = [r for r in p.rules if r.body]
    assert len(seen) <= len(facts(p)) + len(chaining)
    assert all(layers[1:])


@given(programs, programs)
@settings(max_examples=300, deadline=None)
def test_stratify_matches_naive_oracle(p, q):
    program = p | q
    if naive_closure(program).is_bottom:
        with pytest.raises(InconsistentProgram):
            stratify(program)
    else:
        assert stratify(program) == naive_layers(program)


def test_gap_pair_closures():
    assert closure(prog(GAP_P)) == closed("a")
    assert closure(prog(GAP_Q)) == closed("b")


_VALUES = [
    lit("a"), lit("-a"),
    Rule(lits("a", "-b"), lit("c")), Rule.fact(lit("a")),
    prog(LAYERED), Program(),
    closed("a", "-b"), BOTTOM,
    Profile((prog("a."), prog("-a."), prog("a."))),
]


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_value_types_survive_pickle_and_deepcopy(value, duplicate):
    # the slotted value types keep their state across both round trips
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert str(twin) == str(value)
