"""Executable checkers for the arbitration (SA) and merging (FP) postulates.

Each postulate is encoded as data: a row of POSTULATES names its free
variables, programs first and then profiles, and holds its evaluator.
That row is the one place their order is written.  An evaluator takes
the strategy and then one value per variable, in row order; check
unpacks a named Instance into those arguments, and bind builds one from
values in the same order.  The corpus runner and the fuzzer share this
single evaluator.  A verdict carries the evaluated sub-expressions so
violations are self-explaining.

Results of arbitration and merging are literal sets; where a postulate
combines such a result with a program, the literals are adjoined as
facts, and the inconsistent value propagates.  The trichotomy postulate
SA6 is read disjunctively: it holds when any of its three alternatives
matches.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import reduce
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .arbitration import Strategy, arbitrate, conj, disj
from .core import BOTTOM, ClosedSet, Literal, Program, closure, entails
from .errors import CorpusError, IncompleteBinding
from .merging import Profile, merge
from .textio import parse_file, parse_profile, parse_single_program


class PostulateId(Enum):
    SA1 = "SA1"
    SA2 = "SA2"
    SA3 = "SA3"
    SA4 = "SA4"
    SA5 = "SA5"
    SA6 = "SA6"
    SA7 = "SA7"
    SA8 = "SA8"
    FP0 = "FP0"
    FP1 = "FP1"
    FP2 = "FP2"
    FP3 = "FP3"
    FP4 = "FP4"
    FP5 = "FP5"
    FP6 = "FP6"
    FP7 = "FP7"
    FP8 = "FP8"

    @property
    def family(self) -> str:
        return self.value[:2]

    @classmethod
    def parse(cls, token: str) -> PostulateId:
        try:
            return cls(token.upper())
        except ValueError:
            raise ValueError(f"unknown postulate {token!r}") from None


class Status(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    VACUOUS = "vacuous"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.status is Status.VIOLATED and not self.witness:
            raise ValueError("a violation verdict needs a witness")

    @property
    def witness_dict(self) -> dict[str, str]:
        return dict(self.witness)


@dataclass(eq=True)
class Instance:
    """Concrete bindings for a postulate's free variables."""

    strategy: Strategy
    programs: dict[str, Program] = field(default_factory=dict)
    profiles: dict[str, Profile] = field(default_factory=dict)


def _outcome(condition: bool, witness: tuple[tuple[str, str], ...]) -> Verdict:
    return Verdict(Status.HOLDS if condition else Status.VIOLATED, witness)


def _vacuous(witness: tuple[tuple[str, str], ...]) -> Verdict:
    return Verdict(Status.VACUOUS, witness)


def adjoin_program(result: ClosedSet, program: Program) -> ClosedSet:
    """Closure of the result's literals, taken as facts, pooled with the
    program.  The inconsistent value propagates."""
    if result.is_bottom:
        return BOTTOM
    return closure(program | Program.from_facts(result.literals))


def _fresh_atom(avoid: frozenset[str]) -> str:
    name = "bot"
    i = 0
    while name in avoid:
        name = f"bot{i}"
        i += 1
    return name


def as_program(result: ClosedSet, avoid: frozenset[str]) -> Program:
    """The fact program of a literal set.  The inconsistent value becomes
    a pair of opposed facts over an atom fresh for the given vocabulary,
    which keeps downstream closures vocabulary-independent."""
    if not result.is_bottom:
        return Program.from_facts(result.literals)
    atom = _fresh_atom(avoid)
    return Program.from_facts([Literal(atom), Literal(atom, False)])


# --- SA evaluators ------------------------------------------------------


def _sa1(strategy: Strategy, p: Program, q: Program) -> Verdict:
    a = arbitrate(p, q, strategy)
    b = arbitrate(q, p, strategy)
    return _outcome(a == b, (("arb(P, Q)", str(a)), ("arb(Q, P)", str(b))))


def _sa2(strategy: Strategy, p: Program, q: Program) -> Verdict:
    a = arbitrate(p, q, strategy)
    c = conj(p, q)
    return _outcome(a.issubset(c), (("arb(P, Q)", str(a)), ("conj(P, Q)", str(c))))


def _sa3(strategy: Strategy, p: Program, q: Program) -> Verdict:
    c = conj(p, q)
    if c.is_bottom:
        return _vacuous((("conj(P, Q)", str(c)),))
    a = arbitrate(p, q, strategy)
    return _outcome(c.issubset(a), (("conj(P, Q)", str(c)), ("arb(P, Q)", str(a))))


def _sa4(strategy: Strategy, p: Program, q: Program) -> Verdict:
    a = arbitrate(p, q, strategy)
    cp, cq = closure(p), closure(q)
    witness = (("arb(P, Q)", str(a)), ("cns(P)", str(cp)), ("cns(Q)", str(cq)))
    return _outcome(a.is_bottom == (cp.is_bottom and cq.is_bottom), witness)


def _sa5(strategy: Strategy, p1: Program, p2: Program, q1: Program, q2: Program) -> Verdict:
    cp1, cp2, cq1, cq2 = map(closure, (p1, p2, q1, q2))
    if cp1 != cp2 or cq1 != cq2:
        return _vacuous((("cns(P1)", str(cp1)), ("cns(P2)", str(cp2)),
                         ("cns(Q1)", str(cq1)), ("cns(Q2)", str(cq2))))
    a = arbitrate(p1, q1, strategy)
    b = arbitrate(p2, q2, strategy)
    return _outcome(a == b, (("arb(P1, Q1)", str(a)), ("arb(P2, Q2)", str(b))))


def _sa6(strategy: Strategy, p: Program, q1: Program, q2: Program) -> Verdict:
    vocabulary = p.atoms() | q1.atoms() | q2.atoms()
    joint = as_program(disj(q1, q2), vocabulary)
    lhs = arbitrate(p, joint, strategy)
    o1 = arbitrate(p, q1, strategy)
    o2 = arbitrate(p, q2, strategy)
    o3 = o1.meet(o2)
    witness = (
        ("arb(P, disj(Q1, Q2))", str(lhs)),
        ("arb(P, Q1)", str(o1)),
        ("arb(P, Q2)", str(o2)),
        ("disj(arb(P, Q1), arb(P, Q2))", str(o3)),
    )
    return _outcome(lhs in (o1, o2, o3), witness)


def _sa7(strategy: Strategy, p: Program, q: Program) -> Verdict:
    d = disj(p, q)
    a = arbitrate(p, q, strategy)
    return _outcome(d.issubset(a), (("disj(P, Q)", str(d)), ("arb(P, Q)", str(a))))


def _sa8(strategy: Strategy, p: Program, q: Program) -> Verdict:
    cp = closure(p)
    if cp.is_bottom:
        return _vacuous((("cns(P)", str(cp)),))
    a = arbitrate(p, q, strategy)
    combined = adjoin_program(a, p)
    witness = (("arb(P, Q)", str(a)), ("conj(P, arb(P, Q))", str(combined)))
    return _outcome(not combined.is_bottom, witness)


# --- FP evaluators ------------------------------------------------------


def _fp0(strategy: Strategy, constraint: Program, profile1: Profile) -> Verdict:
    m = merge(constraint, profile1, strategy)
    c = closure(constraint)
    return _outcome(c.issubset(m), (("merge", str(m)), ("cns(constraint)", str(c))))


def _fp1(strategy: Strategy, constraint: Program, profile1: Profile) -> Verdict:
    c = closure(constraint)
    if c.is_bottom:
        return _vacuous((("cns(constraint)", str(c)),))
    m = merge(constraint, profile1, strategy)
    return _outcome(not m.is_bottom, (("merge", str(m)),))


def _fp2(strategy: Strategy, constraint: Program, profile1: Profile) -> Verdict:
    pooled = closure(reduce(Program.__or__, profile1, constraint))
    if pooled.is_bottom:
        return _vacuous((("cns(constraint + profile)", str(pooled)),))
    m = merge(constraint, profile1, strategy)
    witness = (("cns(constraint + profile)", str(pooled)), ("merge", str(m)))
    return _outcome(m == pooled, witness)


def _fp3(strategy: Strategy, p: Program, q: Program,
         profile1: Profile, profile2: Profile) -> Verdict:
    # IC3 pairs the members by a bijection, so compare the multisets of closures
    cp, cq = closure(p), closure(q)
    if cp != cq or Counter(map(closure, profile1)) != Counter(map(closure, profile2)):
        return _vacuous((("cns(P)", str(cp)), ("cns(Q)", str(cq))))
    m1 = merge(p, profile1, strategy)
    m2 = merge(q, profile2, strategy)
    witness = (("merge(P, profile1)", str(m1)), ("merge(Q, profile2)", str(m2)))
    return _outcome(m1 == m2, witness)


def _fp4(strategy: Strategy, constraint: Program, p1: Program, p2: Program) -> Verdict:
    # profiles hold nonempty programs, so an empty side never forms one
    cp1, cp2 = closure(p1), closure(p2)
    applicable = (
        bool(p1.rules) and bool(p2.rules)
        and entails(p1, constraint) and entails(p2, constraint)
        and not cp1.is_bottom and not cp2.is_bottom
    )
    if not applicable:
        return _vacuous((("cns(P1)", str(cp1)), ("cns(P2)", str(cp2)),
                         ("cns(constraint)", str(closure(constraint)))))
    m = merge(constraint, (p1, p2), strategy)
    with_p1 = adjoin_program(m, p1)
    with_p2 = adjoin_program(m, p2)
    witness = (
        ("merge", str(m)),
        ("cns(merge + P1)", str(with_p1)),
        ("cns(merge + P2)", str(with_p2)),
    )
    return _outcome(with_p1.is_bottom or not with_p2.is_bottom, witness)


def _fp56_parts(strategy: Strategy, constraint: Program, profile1: Profile,
                profile2: Profile) -> tuple[ClosedSet, ClosedSet, tuple[tuple[str, str], ...]]:
    m1 = merge(constraint, profile1, strategy)
    m2 = merge(constraint, profile2, strategy)
    m12 = merge(constraint, profile1 + profile2, strategy)
    union = m1.join(m2)
    witness = (
        ("merge(profile1 + profile2)", str(m12)),
        ("merge(profile1)", str(m1)),
        ("merge(profile2)", str(m2)),
        ("union", str(union)),
    )
    return m12, union, witness


def _fp5(strategy: Strategy, constraint: Program, profile1: Profile,
         profile2: Profile) -> Verdict:
    m12, union, witness = _fp56_parts(strategy, constraint, profile1, profile2)
    return _outcome(m12.issubset(union), witness)


def _fp6(strategy: Strategy, constraint: Program, profile1: Profile,
         profile2: Profile) -> Verdict:
    m12, union, witness = _fp56_parts(strategy, constraint, profile1, profile2)
    if union.is_bottom:
        return _vacuous(witness)
    return _outcome(union.issubset(m12), witness)


def _fp78_parts(strategy: Strategy, constraint: Program, q: Program,
                profile1: Profile) -> tuple[ClosedSet, ClosedSet, tuple[tuple[str, str], ...]]:
    m = merge(constraint, profile1, strategy)
    lhs = adjoin_program(m, q)
    rhs = merge(constraint | q, profile1, strategy)
    witness = (
        ("merge(constraint, profile)", str(m)),
        ("merge(constraint, profile) + Q", str(lhs)),
        ("merge(constraint + Q, profile)", str(rhs)),
    )
    return lhs, rhs, witness


def _fp7(strategy: Strategy, constraint: Program, q: Program, profile1: Profile) -> Verdict:
    lhs, rhs, witness = _fp78_parts(strategy, constraint, q, profile1)
    return _outcome(rhs.issubset(lhs), witness)


def _fp8(strategy: Strategy, constraint: Program, q: Program, profile1: Profile) -> Verdict:
    lhs, rhs, witness = _fp78_parts(strategy, constraint, q, profile1)
    if lhs.is_bottom:
        return _vacuous(witness)
    return _outcome(lhs.issubset(rhs), witness)


@dataclass(frozen=True)
class PostulateSpec:
    program_vars: tuple[str, ...]
    profile_vars: tuple[str, ...]
    # called as evaluate(strategy, *programs, *profiles), each in the
    # order of program_vars and profile_vars
    evaluate: Callable[..., Verdict]
    # the strategies the paper guarantees the postulate for
    guaranteed_for: frozenset[Strategy] = frozenset()


_EVERY = frozenset(Strategy)

POSTULATES: dict[PostulateId, PostulateSpec] = {
    PostulateId.SA1: PostulateSpec(("P", "Q"), (), _sa1, _EVERY),
    PostulateId.SA2: PostulateSpec(("P", "Q"), (), _sa2, _EVERY),
    PostulateId.SA3: PostulateSpec(("P", "Q"), (), _sa3, _EVERY),
    PostulateId.SA4: PostulateSpec(("P", "Q"), (), _sa4, _EVERY),
    PostulateId.SA5: PostulateSpec(("P1", "P2", "Q1", "Q2"), (), _sa5),
    PostulateId.SA6: PostulateSpec(("P", "Q1", "Q2"), (), _sa6),
    PostulateId.SA7: PostulateSpec(("P", "Q"), (), _sa7, _EVERY),
    PostulateId.SA8: PostulateSpec(("P", "Q"), (), _sa8, _EVERY),
    PostulateId.FP0: PostulateSpec(("constraint",), ("profile1",), _fp0, _EVERY),
    PostulateId.FP1: PostulateSpec(("constraint",), ("profile1",), _fp1, _EVERY),
    PostulateId.FP2: PostulateSpec(("constraint",), ("profile1",), _fp2, _EVERY),
    PostulateId.FP3: PostulateSpec(("P", "Q"), ("profile1", "profile2"), _fp3),
    PostulateId.FP4: PostulateSpec(("constraint", "P1", "P2"), (), _fp4,
                                   frozenset({Strategy.RANK})),
    PostulateId.FP5: PostulateSpec(("constraint",), ("profile1", "profile2"), _fp5),
    PostulateId.FP6: PostulateSpec(("constraint",), ("profile1", "profile2"), _fp6),
    PostulateId.FP7: PostulateSpec(("constraint", "Q"), ("profile1",), _fp7),
    PostulateId.FP8: PostulateSpec(("constraint", "Q"), ("profile1",), _fp8),
}


def _binding_problem(label: str, wanted: tuple[Iterable[str], Iterable[str]],
                     programs: Iterable[str], profiles: Iterable[str]) -> str | None:
    """What is wrong with binding these program and profile names where the
    wanted ones are expected, or None when they are exactly those."""
    programs, profiles = set(programs), set(profiles)
    wanted_programs, wanted_profiles = map(set, wanted)
    missing = sorted((wanted_programs - programs) | (wanted_profiles - profiles))
    extra = sorted((programs - wanted_programs) | (profiles - wanted_profiles))
    parts = []
    if missing:
        parts.append("missing " + ", ".join(missing))
    if extra:
        parts.append("unexpected " + ", ".join(extra))
    return f"{label}: " + "; ".join(parts) if parts else None


def check(pid: PostulateId, instance: Instance) -> Verdict:
    """Evaluate one postulate on one instance.

    Bindings must cover exactly the postulate's free variables.  Size
    limits from subset enumeration propagate to the caller.
    """
    spec = POSTULATES[pid]
    problem = _binding_problem(pid.value, (spec.program_vars, spec.profile_vars),
                               instance.programs, instance.profiles)
    if problem:
        raise IncompleteBinding(problem)
    return spec.evaluate(instance.strategy,
                         *(instance.programs[v] for v in spec.program_vars),
                         *(instance.profiles[v] for v in spec.profile_vars))


def bind(pid: PostulateId, strategy: Strategy, values: Sequence) -> Instance:
    """The instance binding the postulate's variables to the values, given
    in its row's order: the programs, then the profiles."""
    spec = POSTULATES[pid]
    split = len(spec.program_vars)
    return Instance(strategy, programs=dict(zip(spec.program_vars, values[:split])),
                    profiles=dict(zip(spec.profile_vars, values[split:])))


def guaranteed(pid: PostulateId, strategy: Strategy) -> bool:
    """Whether the postulate is guaranteed to hold for the strategy, as
    its row of POSTULATES records.  Everything else can be violated."""
    return strategy in POSTULATES[pid].guaranteed_for


# --- regression corpus --------------------------------------------------


@dataclass(frozen=True)
class CorpusResult:
    name: str
    detail: str
    strategy: str
    expected: str
    actual: str
    matched: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[CorpusResult, ...]

    @property
    def all_match(self) -> bool:
        return all(r.matched for r in self.results)

    def to_dict(self) -> dict:
        return {
            "all_match": self.all_match,
            "results": [asdict(r) for r in self.results],
        }

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "PASS" if r.matched else "FAIL"
            lines.append(f"{mark}  {r.name} [{r.strategy}] {r.detail}: "
                         f"expected {r.expected}, got {r.actual}")
            for note in r.notes:
                lines.append(f"      {note}")
        verdict = "all entries match" if self.all_match else "MISMATCHES FOUND"
        lines.append(f"{len(self.results)} evaluations: {verdict}")
        return "\n".join(lines)


def load_bindings(strategy: Strategy, programs: Mapping[str, str | Path],
                  profiles: Mapping[str, str | Path]) -> Instance:
    """An instance binding each name to the program, or the profile, in
    the UTF-8 file at its path, read by textio.parse_file."""
    return Instance(strategy,
                    programs={name: parse_file(path, parse_single_program)
                              for name, path in programs.items()},
                    profiles={name: parse_file(path, parse_profile) for name, path in profiles.items()})


def _text(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key}: expected a string, got {json.dumps(value)}")
    return value


def _read_entry(entry: Mapping, root: Path) -> Iterator[CorpusResult]:
    """Check one table entry; its evaluation runs only once it is iterated."""
    kind = entry["kind"]
    if kind == "postulate":
        pid = PostulateId.parse(entry["postulate"])
        status = Status(entry["expect"]).value
        expected = tuple((Strategy.from_token(t), status) for t in entry["strategies"])
        values = {key: _text(key, v) for key, v in dict(entry.get("values", {})).items()}
        label, spec = pid.value, POSTULATES[pid]
        wanted = (spec.program_vars, spec.profile_vars)

        def evaluate(instance: Instance) -> tuple[str, tuple[str, ...]]:
            verdict = check(pid, instance)
            got = verdict.witness_dict
            return verdict.status.value, tuple(
                f"missing witness value {key!r}" if key not in got
                else f"{key}: expected {value!r}, got {got[key]!r}"
                for key, value in values.items() if got.get(key) != value)
    elif kind == "arbitration":
        label, wanted = "arbitration", (("P", "Q"), ())
        expected = tuple((Strategy.from_token(t), _text(t, result))
                         for t, result in entry["expect_results"].items())

        def evaluate(instance: Instance) -> tuple[str, tuple[str, ...]]:
            return str(arbitrate(instance.programs["P"], instance.programs["Q"],
                                 instance.strategy)), ()
    else:
        raise ValueError(f"unknown corpus entry kind {kind!r}")
    if not expected:
        raise ValueError("no strategies to evaluate")
    programs, profiles = entry.get("programs", {}), entry.get("profiles", {})
    problem = _binding_problem(label, wanted, programs, profiles)
    if problem:
        raise ValueError(problem)
    return _evaluate(entry["name"], label, expected, evaluate,
                     {name: root / rel for name, rel in programs.items()},
                     {name: root / rel for name, rel in profiles.items()})


def _evaluate(name: str, label: str, expected: tuple[tuple[Strategy, str], ...],
              evaluate: Callable[[Instance], tuple[str, tuple[str, ...]]],
              programs: dict[str, Path], profiles: dict[str, Path]) -> Iterator[CorpusResult]:
    # expected holds, per strategy, the verdict status or arbitration
    # result, for one strategy at least; evaluate gives the actual one and
    # any witness notes.  The files are read and parsed once; each strategy
    # shares the bindings
    loaded = load_bindings(expected[0][0], programs, profiles)
    for strategy, want in expected:
        actual, notes = evaluate(replace(loaded, strategy=strategy))
        yield CorpusResult(name=name, detail=label, strategy=strategy.value, expected=want,
                           actual=actual, matched=actual == want and not notes, notes=notes)


def run_corpus(location: Path | None = None) -> CorpusReport:
    """Evaluate every corpus entry and compare against its expectation.

    The default corpus ships with the package; pass a directory holding
    an ``expectations.json`` to run a different one.  A malformed table
    raises CorpusError, naming the entry at fault, before any entry is
    evaluated.
    """
    root = Path(str(resources.files("fcmerge") / "corpus") if location is None else location)
    path = root / "expectations.json"
    text = parse_file(path, str)  # the decoded text, or UnicodeError naming the file
    evaluations, where = [], str(path)
    try:
        for i, entry in enumerate(json.loads(text)["entries"], 1):
            where = f"{path}: entry {i}"  # by position until its name is read
            where += f" {entry['name']!r}"
            evaluations.append(_read_entry(entry, root))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise CorpusError(f"{where}: {problem}") from None
    return CorpusReport(tuple(r for results in evaluations for r in results))
