"""Every operator is syntax-independent up to the names and signs of atoms:
renaming the atoms by a bijection, and flipping the sign of some of them,
commutes with closure, stratify, base, rank, the three revisions,
maximal_extensions, arbitrate, merge and every postulate's verdict status.
A result that depends on the order candidate rules are tried in, which
follows their text, breaks this."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from fcmerge import (
    ClosedSet,
    InconsistentProgram,
    Literal,
    PostulateId,
    Program,
    Rule,
    Status,
    Strategy,
    arbitrate,
    base,
    check,
    closure,
    maximal_extensions,
    merge,
    rank,
    revise_extended_hull,
    revise_hull,
    revise_rank,
    stratify,
)
from fcmerge.postulates import POSTULATES, bind

from strategies import dense_programs, programs, rules

_ATOMS = "abcdef"  # every atom the program strategies draw
# targets that reorder the canonical text, and "bot", the atom SA6's
# as_program would pick for the inconsistent value
_NAMES = (*_ATOMS, "bot", "bot0", "A", "Z9", "_g", "zz")
_PROGRAM_VARS = sorted({v for spec in POSTULATES.values() for v in spec.program_vars})
_PROFILE_VARS = sorted({v for spec in POSTULATES.values() for v in spec.profile_vars})

renamings = st.builds(
    lambda names, flips: {atom: (name, flip) for atom, name, flip in zip(_ATOMS, names, flips)},
    st.permutations(_NAMES), st.lists(st.booleans(), min_size=6, max_size=6))
any_programs = st.one_of(programs, dense_programs)
profiles = st.lists(st.builds(Program, st.frozensets(rules, min_size=1, max_size=4)),
                    min_size=1, max_size=2).map(tuple)


class _Renaming:
    def __init__(self, table: dict[str, tuple[str, bool]]) -> None:
        self.table = table

    def literal(self, lit: Literal) -> Literal:
        name, flip = self.table[lit.atom]
        return Literal(name, lit.positive != flip)

    def literals(self, lits: frozenset[Literal]) -> frozenset[Literal]:
        return frozenset(map(self.literal, lits))

    def program(self, p: Program) -> Program:
        return Program(frozenset(Rule(self.literals(r.body), self.literal(r.head))
                                 for r in p.rules))

    def programs(self, ps: tuple[Program, ...]) -> tuple[Program, ...]:
        return tuple(map(self.program, ps))

    def closed(self, c: ClosedSet) -> ClosedSet:
        return c if c.is_bottom else ClosedSet(self.literals(c.literals))


def _status(pid: PostulateId, strategy: Strategy, programs: dict, profiles: dict) -> Status:
    spec = POSTULATES[pid]
    values = [*(programs[v] for v in spec.program_vars), *(profiles[v] for v in spec.profile_vars)]
    return check(pid, bind(pid, strategy, values)).status


def _layers(p: Program) -> tuple[frozenset[Literal], ...] | None:
    try:
        return stratify(p)
    except InconsistentProgram:
        return None


@given(renamings, st.fixed_dictionaries({v: any_programs for v in _PROGRAM_VARS}),
       st.fixed_dictionaries({v: profiles for v in _PROFILE_VARS}))
# an example runs every postulate twice per strategy, so shrinking is slow:
# one shrunk failure is reported, not one per distinct assertion
@settings(max_examples=80, deadline=None, report_multiple_bugs=False)
def test_operators_commute_with_renaming_and_sign_flip(table, bound, groups):
    r = _Renaming(table)
    p, q = bound["P"], bound["Q"]
    rp, rq = r.program(p), r.program(q)

    assert closure(rp) == r.closed(closure(p))
    layers = _layers(p)
    assert _layers(rp) == (None if layers is None else tuple(map(r.literals, layers)))
    assert base(rp) == r.programs(base(p))
    assert rank(rp, rq) == rank(p, q)
    assert revise_rank(rp, rq) == r.program(revise_rank(p, q))
    assert revise_hull(rp, rq) == r.program(revise_hull(p, q))
    flock = (p, bound["P1"])
    assert (Counter(revise_extended_hull(r.programs(flock), rq))
            == Counter(r.programs(revise_extended_hull(flock, q))))
    assert set(maximal_extensions(rp, rq)) == set(r.programs(maximal_extensions(p, q)))

    constraint, profile1 = bound["constraint"], groups["profile1"]
    renamed = ({k: r.program(v) for k, v in bound.items()},
               {k: r.programs(v) for k, v in groups.items()})
    for strategy in Strategy:
        assert arbitrate(rp, rq, strategy) == r.closed(arbitrate(p, q, strategy))
        assert (merge(r.program(constraint), r.programs(profile1), strategy)
                == r.closed(merge(constraint, profile1, strategy)))
        for pid in POSTULATES:
            assert (_status(pid, strategy, *renamed)
                    == _status(pid, strategy, bound, groups)), (pid, strategy)
