import copy
import pickle
from itertools import chain, count
from threading import Barrier, Thread

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

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
from fcmerge import core
from fcmerge.core import LITERALS, CompiledProgram

from helpers import (GAP_P, GAP_Q, LAYERED, TAXONOMY, closed, count_index_builds, facts, lit,
                     lits, prog)
from oracles import naive_closure, naive_layers
from strategies import dense_programs, programs


class TestLiteral:
    def test_negation_is_an_involution(self):
        l = lit("-a")
        flipped = Literal(l.atom, not l.positive)
        assert flipped == lit("a") and Literal(flipped.atom, not flipped.positive) == l

    # bad atom names, then bad signs for atom "a", then atoms that are not strings
    @pytest.mark.parametrize("args", [
        *(pytest.param((atom,), id=atom) for atom in ["", "1a", "a-b", "a b", "ä"]),
        *(pytest.param(("a", sign), id=str(sign)) for sign in [2, 1, None]),
        *(pytest.param((atom,), id=f"atom {atom!r}") for atom in [5, None, b"a"]),
    ])
    def test_invalid_atoms_rejected(self, args):
        with pytest.raises(ValueError, match="^invalid "):
            Literal(*args)

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

    def test_text_has_an_arrow_only_after_a_body(self):
        # the body sorts by atom, positive first
        assert str(Rule.fact(lit("-a"))) == "-a."
        assert str(Rule(lits("c", "-a", "a"), lit("b"))) == "a, -a, c -> b."


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
        # the fact n, switched off at position 0, is asked about by switching it on
        n = [Rule.fact(lit("n"))]
        assert not CompiledProgram(prog(TAXONOMY), n).consistent_with(1)
        assert CompiledProgram(prog(LAYERED)).consistent_with(0)
        assert CompiledProgram(prog("n -> c. n -> s."), n).consistent_with(1)


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


@given(programs, programs, dense_programs, dense_programs)
@settings(max_examples=200, deadline=None)
def test_closure_matches_naive_oracle(p, q, dense_p, dense_q):
    # dense programs over three atoms collapse often, and often only late
    for a, b in ((p, q), (dense_p, dense_q)):
        assert closure(a) == naive_closure(a)
        assert closure(a | b) == naive_closure(a | b)


@given(st.one_of(programs, dense_programs), st.one_of(programs, dense_programs))
@settings(max_examples=300, deadline=None)
def test_index_rounds_match_closure(p, q):
    # closure sweeps the rules and compiles only programs too deep to
    # sweep, so the index's own consequences get an oracle here: the union
    # of its firing rounds, or None when they collapse
    for program in (p, p | q):
        rounds = CompiledProgram(program).rounds
        indexed = BOTTOM if rounds is None else ClosedSet(frozenset(chain.from_iterable(rounds)))
        assert indexed == closure(program) == naive_closure(program)


class TestWatcherIndex:
    # the index keys its watchers by literal: a body may hold both signs of
    # an atom, and a derived literal may be in no body at all
    def test_a_body_holding_an_atom_and_its_negation_never_fires(self):
        opposed = Rule(lits("a", "-a"), lit("b"))
        for facts, rounds in (("", [[]]), ("a.", [[lit("a")]]), ("-a.", [[lit("-a")]])):
            compiled = CompiledProgram(prog(facts), [opposed])
            assert compiled.rounds == rounds and compiled.rules[0] is opposed
            assert compiled.closure_with(1) == ClosedSet(chain.from_iterable(rounds))
            assert compiled.intolerable() == [0]
            switched_on = CompiledProgram(prog(facts) | Program({opposed}))
            assert switched_on.rounds == rounds
            assert switched_on.intolerable() == [switched_on.rules.index(opposed)]

    def test_a_literal_no_body_mentions_propagates(self):
        # -b's atom is in a body, z's in none; both are derived and undone
        compiled = CompiledProgram(prog("-b. b -> c."), [Rule.fact(lit("z"))])
        assert compiled.rounds == [[lit("-b")]]
        assert compiled.closure_with(1) == closed("-b", "z")
        # b -> c. only, whose body -b opposes: the program's rules are in set order
        assert compiled.intolerable() == [i for i, r in enumerate(compiled.rules) if r.body]
        assert compiled.closure_with(0) == closed("-b")
        assert compiled._signs == {"b": False}


@pytest.mark.pinned
@pytest.mark.parametrize("text, builds", [
    # depth 1: whatever the set order, the second sweep fires the last rule
    ("c0. " + " ".join(f"c0 -> d{i}." for i in range(300)), 0),
    # depth 300: a sweep advances the chain only while each next rule is
    # listed after its predecessor, so in set order it takes about 150
    # sweeps, far more than SWEEP_VISITS visits per rule allow
    ("c0. " + " ".join(f"c{i} -> c{i + 1}." for i in range(300)), 1),
    ("c0. -c300. " + " ".join(f"c{i} -> c{i + 1}." for i in range(300)), 1),
    # a chain of 60 among 2,000 rules that never fire, each one literal short
    (" ".join(["c0."] + [f"c{i} -> c{i + 1}." for i in range(60)]
              + [f"d{i} -> e{i}." for i in range(2000)]), 1),
    (LAYERED, 0),
], ids=["fan", "chain", "chain-to-conflict", "chain-beside-unfired-rules", "layered"])
def test_deep_programs_close_on_one_index(monkeypatch, text, builds):
    # work counted, not timed: shallow programs are swept without an
    # index, and a chain gives way to one index after a bounded sweep.
    # Beside the fourth chain most rules stay one body literal short of
    # firing, so a closure that switched any of them on again would show it
    p = prog(text)
    built = count_index_builds(monkeypatch)
    assert closure.__wrapped__(p) == naive_closure(p)
    assert built() == builds


@given(programs, programs, st.lists(st.frozensets(st.integers(0, 7)), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_switched_on_rules_match_closure(p, q, subsets):
    # p's rules, facts included, start switched off; every subset is asked,
    # as a bitmask, of the same index, so each question must leave it as it
    # found it
    off = sorted(p.rules, key=str)
    compiled = CompiledProgram(q, off)
    for subset in subsets:
        on = sum(1 << i for i in subset if i < len(off))
        switched_on = Program(frozenset(off[i] for i in subset if i < len(off)))
        assert compiled.consistent_with(on) == (not closure(switched_on | q).is_bottom)


@given(programs, programs, st.lists(st.frozensets(st.integers(0, 7)), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_closure_with_matches_closure(p, q, subsets):
    # the closure read off the index with a subset of p's rules switched on
    # is that program's closure.  An inert rule switched on as well changes
    # nothing: a consistent closure holds its head or opposes its body
    off = sorted(p.rules, key=str)
    compiled = CompiledProgram(q, off)
    inert = sum(1 << i for i in range(len(off)) if compiled.inert(i))
    for subset in subsets:
        on = sum(1 << i for i in subset if i < len(off))
        expected = closure(Program(frozenset(off[i] for i in subset if i < len(off))) | q)
        assert compiled.closure_with(on) == expected
        assert compiled.closure_with(inert | on) == expected


@given(programs, programs)
@settings(max_examples=300, deadline=None)
def test_intolerable_positions_match_consistent_with(p, q):
    # a position is intolerable exactly when its rule's body, added as facts,
    # collapses the closure of the switched-on rules: with none switched
    # off, and with p's rules switched off.  The index must be back in its
    # closure state afterwards: asking again, and switching p's rules on,
    # read the derived signs and missing counts that intolerable undid
    off = sorted(p.rules, key=str)
    switched_off = CompiledProgram(q, off)
    for switched_on, compiled in ((p | q, CompiledProgram(p | q)), (q, switched_off)):
        positions = compiled.intolerable()
        assert positions == [i for i, rule in enumerate(compiled.rules)
                             if closure(switched_on | Program.from_facts(rule.body)).is_bottom]
        assert compiled.intolerable() == positions
    assert switched_off.closure_with((1 << len(off)) - 1) == closure(p | q)


def _on_sets(n: int) -> st.SearchStrategy[int]:
    # bitmasks over the n switched-off positions
    return st.integers(0, (1 << n) - 1)


class IndexQuestions(RuleBasedStateMachine):
    """One index of q with p's rules switched off, asked questions in any
    order.  Each answer must equal closure of the matching program, and
    each question must leave the derived signs, missing counts, trail and
    rounds as a freshly built index holds them."""

    @initialize(pair=st.one_of(st.tuples(programs, programs),
                               st.tuples(dense_programs, dense_programs)))
    def build(self, pair):
        p, self.q = pair
        self.off = sorted(p.rules, key=str)
        self.compiled = CompiledProgram(self.q, self.off)

    def _closure_with(self, on):
        switched_on = frozenset(r for i, r in enumerate(self.off) if on >> i & 1)
        return closure(Program(switched_on) | self.q)

    @rule(data=st.data())
    def consistent_with(self, data):
        on = data.draw(_on_sets(len(self.off)))
        derived = []
        expected = self._closure_with(on)
        assert self.compiled.consistent_with(on, derived) == (not expected.is_bottom)
        if not expected.is_bottom:
            assert expected.literals == closure(self.q).literals.union(derived)

    @rule(data=st.data())
    def closure_with(self, data):
        on = data.draw(_on_sets(len(self.off)))
        assert self.compiled.closure_with(on) == self._closure_with(on)

    @precondition(lambda self: self.compiled.rules and not closure(self.q).is_bottom)
    @rule(data=st.data())
    def inert(self, data):
        # inert: the closure holds the head, or opposes a body literal
        idx = data.draw(st.integers(0, len(self.compiled.rules) - 1))
        r, closed = self.compiled.rules[idx], closure(self.q)
        assert self.compiled.inert(idx) == (
            r.head in closed or any(Literal(l.atom, not l.positive) in closed for l in r.body))

    @rule()
    def intolerable(self):
        assert self.compiled.intolerable() == [
            idx for idx, r in enumerate(self.compiled.rules)
            if closure(self.q | Program.from_facts(r.body)).is_bottom]

    @invariant()
    def back_in_its_closure_state(self):
        fresh = CompiledProgram(self.q, self.off)
        assert self.compiled._signs == fresh._signs
        assert self.compiled._missing == fresh._missing
        assert self.compiled._trail == fresh._trail
        assert self.compiled.rounds == fresh.rounds


TestIndexQuestions = IndexQuestions.TestCase
TestIndexQuestions.settings = settings(max_examples=100, stateful_step_count=10, deadline=None)


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


_FIELDS = {Literal: ("atom", "positive"), Rule: ("body", "head"), Program: ("rules",),
           ClosedSet: ("literals",)}


@pytest.mark.parametrize("value", [v for v in _VALUES if type(v) in _FIELDS],
                         ids=lambda v: type(v).__name__)
def test_value_types_hash_and_compare_their_field_tuples(value):
    # a rule, program or closed set hashes as a frozen dataclass did, by its
    # field tuple; a literal is the one object of its fields, so identity is
    # its equality and its hash, also across pickling and copying.  A value
    # of another type, even one with the same fields, is never equal
    fields = tuple(getattr(value, name) for name in _FIELDS[type(value)])
    assert value.__eq__(fields) is NotImplemented and value != fields
    for other in (Program(), ClosedSet(frozenset()), lit("a"), Rule.fact(lit("a"))):
        if type(other) is not type(value):
            assert value.__eq__(other) is NotImplemented and value != other
    if type(value) is not Literal:
        assert hash(value) == hash(fields)
        assert value == type(value)(*fields)
        return
    assert "__eq__" not in vars(Literal) and "__hash__" not in vars(Literal)
    assert Literal(*fields) is value and Literal(value.atom) is Literal(value.atom)
    for duplicate in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        assert duplicate(value) is value
    # the table finds the atom under either sign, yet a sign that is not a
    # bool still raises, and a bad atom is named before a bad sign
    with pytest.raises(ValueError, match=r"^invalid literal sign: 1$"):
        Literal(value.atom, 1)
    with pytest.raises(ValueError, match=r"^invalid literal sign: 0$"):
        Literal(value.atom, 0)
    with pytest.raises(ValueError, match=r"^invalid atom name: '1a'$"):
        Literal("1a", 1)


def test_threads_that_race_to_build_a_literal_get_one_object(monkeypatch):
    # eight threads build one literal that no test has built, and the atom
    # check holds each until all eight have missed the table: every thread
    # makes an object of its own, and all must get back the one stored first.
    # Each renders what it gets back, and the table renders what it holds the
    # moment setdefault stores or finds it, so a literal shared before its
    # text or its sort order is set fails on every run, not on a rare switch
    barrier, built, stored, pattern = Barrier(8, timeout=60), [], [], core._ATOM_RE
    other = lit("a")  # built before the gate: the gate holds every miss

    class Gate:
        def fullmatch(self, text):
            barrier.wait()
            return pattern.fullmatch(text)

    class Table(dict):
        def setdefault(self, key, value):
            first = super().setdefault(key, value)
            stored.append(render(self[key]))
            return first

    def render(literal):
        # the two-literal body is sorted, so it reads the sort order too
        return str(literal), str(Rule.fact(literal)), str(Rule({literal, other}, literal))

    def build():
        literal = Literal(atom, False)
        built.append((literal, render(literal)))

    atom = next(f"race{i}" for i in count() if f"race{i}" not in LITERALS[False])
    tables = (Table(LITERALS[False]), Table(LITERALS[True]))
    monkeypatch.setattr(core, "LITERALS", tables)
    monkeypatch.setattr(core, "_ATOM_RE", Gate())
    threads = [Thread(target=build) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    text = (f"-{atom}", f"-{atom}.", f"a, -{atom} -> -{atom}.")
    assert stored == [text] * 8
    assert [rendered for _, rendered in built] == [text] * 8
    assert all(literal is tables[False][atom] for literal, _ in built)


@pytest.mark.parametrize("value, text", [
    (lit("-a"), "Literal(atom='a', positive=False)"),
    (Rule.fact(lit("a")), "Rule(body=frozenset(), head=Literal(atom='a', positive=True))"),
    (Rule(lits("b"), lit("c")),
     "Rule(body=frozenset({Literal(atom='b', positive=True)}), "
     "head=Literal(atom='c', positive=True))"),
    (Program(), "Program(rules=frozenset())"),
    (closed("a"), "ClosedSet(literals=frozenset({Literal(atom='a', positive=True)}))"),
    (BOTTOM, "ClosedSet(literals=None)"),
], ids=["Literal", "fact", "Rule", "Program", "ClosedSet", "BOTTOM"])
def test_value_types_repr_like_dataclasses(value, text):
    assert repr(value) == text


# atoms that are prefixes of one another or differ only in case
_AWKWARD_ATOMS = st.sampled_from(("a", "a1", "a_", "ab", "A", "_a"))
_AWKWARD = st.builds(Literal, _AWKWARD_ATOMS, st.booleans())


def _text(literal):
    return literal.atom if literal.positive else "-" + literal.atom


def _rule_text(rule):
    body = ", ".join(_text(l) for l in sorted(rule.body, key=Literal.sort_key))
    return f"{body} -> {_text(rule.head)}." if body else f"{_text(rule.head)}."


def _closed_text(closed_set):
    if closed_set.is_bottom:
        return "#bottom"
    return ", ".join(_text(l) for l in sorted(closed_set.literals, key=Literal.sort_key))


@given(st.frozensets(st.builds(Rule, st.frozensets(_AWKWARD, max_size=6), _AWKWARD), max_size=6),
       st.dictionaries(_AWKWARD_ATOMS, st.booleans()))
@settings(max_examples=300, deadline=None)
def test_text_matches_a_reference_renderer(rules, signs):
    # bodies often hold an atom and its negation, whose positive comes first
    program, closed_set = Program(rules), ClosedSet(Literal(*item) for item in signs.items())
    assert [str(rule) for rule in rules] == [_rule_text(rule) for rule in rules]
    assert str(program) == "\n".join(sorted(map(_rule_text, rules)))
    assert [str(rule) for rule in program] == sorted(map(_rule_text, rules))
    for value in (closed_set, closure(program), BOTTOM):
        assert str(value) == _closed_text(value)
    assert list(closed_set) == sorted(closed_set.literals, key=Literal.sort_key)
    assert all(l.sort_key() == (l.atom, not l.positive) for l in closed_set.literals)


def test_text_sorts_by_atom_then_sign():
    body = lits("ab", "a_", "-a1", "a", "-a", "A", "_a")
    assert str(Rule(body, lit("-A"))) == "A, _a, a, -a, -a1, a_, ab -> -A."
    assert str(ClosedSet.of(body - {lit("-a")})) == "A, _a, a, -a1, a_, ab"


@pytest.mark.parametrize("value", [lit("a"), lit("-_a")], ids=str)
def test_a_literal_shows_and_pickles_its_fields_only(value):
    # the text and sort order a literal stores are derived: repr, pickling
    # and copying see the two fields, and give back the one object
    fields = (value.atom, value.positive)
    assert repr(value) == f"Literal(atom={fields[0]!r}, positive={fields[1]!r})"
    assert value.__reduce__() == (Literal, fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(value, protocol)
        assert b"_text" not in data and b"_order" not in data
        assert pickle.loads(data) is value
    assert copy.copy(value) is value and copy.deepcopy(value) is value
    assert copy.deepcopy(Rule({value}, value)).head is value
