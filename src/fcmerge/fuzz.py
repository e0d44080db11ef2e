"""Seeded random search for postulate violations, with witness shrinking.

Randomness comes from ``random.Random`` (the Mersenne Twister), read only
through ``random`` and ``getrandbits``, under ``randrange``'s rejection rule.
Each (postulate, strategy, trial) cell seeds its own generator by a SHA-256
derivation of the master seed, so reports do not depend on evaluation order.

Generation is biased toward useful instances: half the time a pair of
programs shares its atom pool (conflicts, hence non-vacuous guarded
postulates), and syntax-sensitivity postulates receive equal-consequence
variants built by adding redundant or never-firing rules.

A witness shrinks one removal at a time: one program rule, then per
profile one member or one member rule, then every rule that mentions
one atom.  Members left without rules are dropped; a removal that would
empty a profile is not tried, nor one naming the same rules as a removal
already refused on the same instance.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

from .arbitration import Strategy
from .core import LITERALS, Literal, Program, Rule, closure
from .errors import ConfigError, PredicateNotHolding, SizeLimitExceeded
from .postulates import Instance, PostulateId, Status, Verdict, bind, check, guaranteed
from .textio import render

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# a list of flat records, each field on its line as indent=2 puts it two levels
# in; records meet at "},\n      {", which none can hold: JSON escapes newlines
_RECORDS = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def atom_pool(size: int) -> tuple[str, ...]:
    names = [_LETTERS[i] for i in range(min(size, len(_LETTERS)))]
    names += [f"x{i}" for i in range(len(_LETTERS), size)]
    return tuple(names)


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    trials: int = 100
    atoms: int = 6
    rules: int = 8
    body_len: int = 3
    neg_prob: float = 0.3
    strategies: tuple[Strategy, ...] = tuple(Strategy)
    postulates: tuple[PostulateId, ...] = tuple(PostulateId)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.atoms < 1:
            raise ConfigError("atoms must be at least 1")
        if self.rules < 0 or self.body_len < 0:
            raise ConfigError("rules and body_len must be nonnegative")
        if not 0.0 <= self.neg_prob <= 1.0:
            raise ConfigError("neg_prob must lie in [0, 1]")
        object.__setattr__(self, "strategies",
                           tuple(sorted(set(self.strategies), key=lambda s: s.value)))
        object.__setattr__(self, "postulates",
                           tuple(sorted(set(self.postulates), key=lambda p: p.value)))
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if not self.postulates:
            raise ConfigError("at least one postulate is required")

    def to_dict(self) -> dict:
        return {**vars(self),
                "strategies": [s.value for s in self.strategies],
                "postulates": [p.value for p in self.postulates]}


def _below(bits: Callable[[int], int], n: int) -> int:
    # randrange's rule on CPython 3.10-3.13; bits(0) is 0, so n == 0 must raise
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        if not n:
            raise IndexError("cannot choose from an empty sequence")
        r = bits(k)
    return r


def _literal(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...]) -> Literal:
    return Literal(pool[_below(rng.getrandbits, len(pool))], rng.random() >= cfg.neg_prob)


def _rules(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...], count: int) -> Program:
    # _literal and _below inlined, so a program costs one frame; body first, then head
    bits, draw, neg_prob = rng.getrandbits, rng.random, cfg.neg_prob
    n = len(pool)
    k, rules = n.bit_length(), []
    for _ in range(count):
        literals = []
        for _ in range(_below(bits, cfg.body_len + 1) + 1):
            i = bits(k)
            while i >= n > 0:  # an empty pool ends the loop, and pool[0] raises
                i = bits(k)
            atom, positive = pool[i], draw() >= neg_prob
            literals.append(LITERALS[positive].get(atom) or Literal(atom, positive))
        rules.append(Rule(frozenset(literals[:-1]), literals[-1]))
    return Program(frozenset(rules))


def gen_program(cfg: FuzzConfig, rng: random.Random,
                pool: tuple[str, ...] | None = None) -> Program:
    """Random program over at most cfg.atoms atoms and cfg.rules rules.
    Deterministic for a given generator state."""
    pool = atom_pool(cfg.atoms) if pool is None else pool
    return _rules(cfg, rng, pool, _below(rng.getrandbits, cfg.rules + 1))


def _nonempty(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...]) -> Program:
    p = gen_program(cfg, rng, pool)
    if not p.rules:
        p = Program.from_facts([_literal(cfg, rng, pool)])
    return p


def _pair_pools(cfg: FuzzConfig, rng: random.Random) -> tuple[tuple[str, ...], tuple[str, ...]]:
    # half the time both programs draw from one pool, so conflicts and
    # non-vacuous antecedents actually occur
    extended = atom_pool(2 * cfg.atoms)
    first = extended[:cfg.atoms]
    if rng.random() < 0.5:
        return first, first
    return first, extended[cfg.atoms:]


def _equivalent_variant(p: Program, cfg: FuzzConfig, rng: random.Random,
                        pool: tuple[str, ...]) -> Program:
    """A syntactic variant of p with identical consequences: adds a rule
    that is either redundant (body and head already derived) or inert
    (body mentions an underived literal)."""
    c = closure(p)
    if c.is_bottom:
        return p | _rules(cfg, rng, pool, 1)
    derived = list(c)
    if derived and rng.random() < 0.5:
        bits = rng.getrandbits
        body_size = 1 + _below(bits, max(1, min(cfg.body_len, len(derived))))
        body = frozenset(derived[_below(bits, len(derived))] for _ in range(body_size))
        return p | Program(frozenset({Rule(body, derived[_below(bits, len(derived))])}))
    # pool is one of _pair_pools', never empty, and c holds at most one
    # literal per atom: blocked is never empty
    blocked = [lit for atom in pool for lit in (Literal(atom, True), Literal(atom, False))
               if lit not in c]
    body = frozenset({blocked[_below(rng.getrandbits, len(blocked))]})
    return p | Program(frozenset({Rule(body, _literal(cfg, rng, pool))}))


def _gen_profile(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...],
                 max_members: int = 3) -> tuple[Program, ...]:
    count = 1 + _below(rng.getrandbits, max_members)
    return tuple(_nonempty(cfg, rng, pool) for _ in range(count))


def _gen_constraint(cfg: FuzzConfig, rng: random.Random,
                    pool: tuple[str, ...]) -> Program:
    p = gen_program(cfg, rng, pool)
    if rng.random() < 0.5:
        p = p | Program.from_facts([_literal(cfg, rng, pool)])
    return p


def _grow_entailing(cfg: FuzzConfig, rng: random.Random, pool: tuple[str, ...],
                    constraint: Program) -> Program:
    # a consistent superset entails the constraint; fall back to the
    # constraint itself when extensions keep collapsing
    for _ in range(4):
        candidate = constraint | gen_program(cfg, rng, pool)
        if not closure(candidate).is_bottom and candidate.rules:
            return candidate
    return constraint if constraint.rules else _nonempty(cfg, rng, pool)


def _draw(pid: PostulateId, cfg: FuzzConfig, rng: random.Random) -> tuple:
    """Random values for the postulate's free variables, in its row's order."""
    pool_p, pool_q = _pair_pools(cfg, rng)
    if pid is PostulateId.SA5:
        p1 = gen_program(cfg, rng, pool_p)
        q1 = gen_program(cfg, rng, pool_q)
        return (p1, _equivalent_variant(p1, cfg, rng, pool_p),
                q1, _equivalent_variant(q1, cfg, rng, pool_q))
    if pid is PostulateId.SA6:
        return (gen_program(cfg, rng, pool_p), gen_program(cfg, rng, pool_q),
                gen_program(cfg, rng, pool_q))
    if pid.family == "SA":
        return gen_program(cfg, rng, pool_p), gen_program(cfg, rng, pool_q)

    constraint = _gen_constraint(cfg, rng, pool_p)
    if pid is PostulateId.FP3:
        members = _gen_profile(cfg, rng, pool_q, 2)
        variants = tuple(_equivalent_variant(m, cfg, rng, pool_q) for m in members)
        # the constraint's variant is drawn after the members'
        return constraint, _equivalent_variant(constraint, cfg, rng, pool_p), members, variants
    if pid is PostulateId.FP4:
        def side() -> Program:
            if rng.random() < 0.7:
                return _grow_entailing(cfg, rng, pool_q, constraint)
            return _nonempty(cfg, rng, pool_q)
        return constraint, side(), side()
    if pid in (PostulateId.FP5, PostulateId.FP6):
        return (constraint, _gen_profile(cfg, rng, pool_q, 2),
                _gen_profile(cfg, rng, pool_q, 2))
    if pid in (PostulateId.FP7, PostulateId.FP8):
        return constraint, gen_program(cfg, rng, pool_q), _gen_profile(cfg, rng, pool_q)
    return constraint, _gen_profile(cfg, rng, pool_q)  # FP0-FP2


def gen_instance(pid: PostulateId, cfg: FuzzConfig, rng: random.Random,
                 strategy: Strategy) -> Instance:
    """Random bindings covering exactly the postulate's free variables."""
    return bind(pid, strategy, _draw(pid, cfg, rng))


def _stream(seed: int, pid: PostulateId, strategy: Strategy, trial: int) -> random.Random:
    key = f"{seed}:{pid.value}:{strategy.value}:{trial}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def render_instance(instance: Instance) -> dict:
    return {
        "strategy": instance.strategy.value,
        "programs": {name: str(p) for name, p in sorted(instance.programs.items())},
        "profiles": {name: render(p) for name, p in sorted(instance.profiles.items())},
    }


@dataclass(frozen=True)
class EvalRecord:
    postulate: str
    strategy: str
    trial: int
    status: str


@dataclass(frozen=True)
class Violation:
    postulate: str
    strategy: str
    trial: int
    instance: dict
    witness: dict[str, str]
    guaranteed: bool


@dataclass(frozen=True)
class CellSummary:
    postulate: str
    strategy: str
    holds: int = 0
    violated: int = 0
    vacuous: int = 0
    skipped: int = 0

    @property
    def non_vacuous(self) -> int:
        return self.holds + self.violated

    def to_dict(self) -> dict:
        return {**vars(self), "non_vacuous": self.non_vacuous}


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    cells: tuple[CellSummary, ...]
    evaluations: tuple[EvalRecord, ...]
    violations: tuple[Violation, ...]

    @property
    def guaranteed_violations(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.guaranteed)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
            "evaluations": [{**vars(e)} for e in self.evaluations],
            "violations": [{**vars(v)} for v in self.violations],
            "found_guaranteed_violation": bool(self.guaranteed_violations),
        }

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), sort_keys=True, indent=2), byte for byte; the
        cells and the evaluations, most of a report, take one C-encoder call each."""
        parts = []
        for key, value in sorted(self.to_dict().items()):
            if key in ("cells", "evaluations") and value:
                items = _RECORDS.encode(value)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                text = f"[\n    {{\n      {items}\n    }}\n  ]"
            else:
                text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
            parts.append(f'  "{key}": {text}')
        return "{\n" + ",\n".join(parts) + "\n}"

    def to_text(self) -> str:
        lines = []
        for c in self.cells:
            lines.append(
                f"{c.postulate} [{c.strategy}]: holds={c.holds} violated={c.violated} "
                f"vacuous={c.vacuous} skipped={c.skipped}"
            )
        for v in self.violations:
            flag = " (GUARANTEED POSTULATE)" if v.guaranteed else ""
            lines.append(f"violation: {v.postulate} [{v.strategy}] trial {v.trial}{flag}")
            for name, text in v.instance["programs"].items():
                lines.append(f"  {name}: {text.replace(chr(10), ' ')}")
            for name, text in v.instance["profiles"].items():
                lines.append(f"  {name}: {text.replace(chr(10), ' | ')}")
            for key, value in v.witness.items():
                lines.append(f"  {key} = {value}")
        lines.append(
            f"{len(self.evaluations)} evaluations, {len(self.violations)} violations, "
            f"{len(self.guaranteed_violations)} on guaranteed postulates"
        )
        return "\n".join(lines)


def search(cfg: FuzzConfig) -> FuzzReport:
    """Run cfg.trials random instances for every (postulate, strategy)
    pair and collect violations.  Size-limit hits are recorded as skipped
    evaluations, never as failures."""
    cells: list[CellSummary] = []
    evaluations: list[EvalRecord] = []
    violations: list[Violation] = []
    for pid in cfg.postulates:
        for strategy in cfg.strategies:
            counts: dict[str, int] = {}
            for trial in range(cfg.trials):
                rng = _stream(cfg.seed, pid, strategy, trial)
                instance = gen_instance(pid, cfg, rng, strategy)
                try:
                    verdict = check(pid, instance)
                except SizeLimitExceeded:
                    verdict = Verdict(Status.SKIPPED)
                status = verdict.status.value
                counts[status] = counts.get(status, 0) + 1
                evaluations.append(EvalRecord(pid.value, strategy.value, trial, status))
                if verdict.status is Status.VIOLATED:
                    violations.append(Violation(pid.value, strategy.value, trial,
                                                render_instance(instance), verdict.witness,
                                                guaranteed(pid, strategy)))
            # CellSummary names one count field after each Status value
            cells.append(CellSummary(pid.value, strategy.value, **counts))
    return FuzzReport(cfg, tuple(cells), tuple(evaluations), tuple(violations))


# where a rule sits: (binding name, member index or -1 for a program, rule)
_Site = tuple[str, int, Rule]


def _without(instance: Instance, sites: list[_Site]) -> Instance | None:
    """The instance without the rules at the given sites.

    Only programs that lose a rule are rebuilt; profile members left empty
    are dropped, and None stands for a profile that would be left empty.
    """
    programs, profiles = dict(instance.programs), dict(instance.profiles)
    members: dict[str, list[Program]] = {}
    for name, index, rule in sites:
        if index < 0:
            programs[name] = Program(programs[name].rules - {rule})
        else:
            kept = members.setdefault(name, list(profiles[name]))
            kept[index] = Program(kept[index].rules - {rule})
    for name, kept in members.items():
        nonempty = tuple(m for m in kept if m.rules)
        if not nonempty:
            return None
        profiles[name] = nonempty
    return Instance(instance.strategy, programs=programs, profiles=profiles)


def _removals(instance: Instance, text: Callable[[Rule], str]) -> Iterator[list[_Site]]:
    # each program rule; per profile, each member, then each member rule,
    # rules in canonical order, which sorts by text; then each atom,
    # that is every rule mentioning it.  Each list names rules of the
    # instance, so every removal shrinks it.  Lazy, because shrink
    # restarts from the first candidate it keeps
    for name in sorted(instance.programs):
        for rule in sorted(instance.programs[name].rules, key=text):
            yield [(name, -1, rule)]
    for name in sorted(instance.profiles):
        members = instance.profiles[name]
        for i, member in enumerate(members):
            yield [(name, i, rule) for rule in member.rules]
        for i, member in enumerate(members):
            for rule in sorted(member.rules, key=text):
                yield [(name, i, rule)]
    sites = [(name, -1, rule) for name, p in instance.programs.items() for rule in p.rules]
    sites += [(name, i, rule) for name, profile in instance.profiles.items()
              for i, member in enumerate(profile) for rule in member.rules]
    mentions = [(site, site[2].atoms()) for site in sites]
    for atom in sorted(frozenset().union(*(atoms for _, atoms in mentions))):
        yield [site for site, atoms in mentions if atom in atoms]


def shrink(instance: Instance, predicate: Callable[[Instance], bool]) -> Instance:
    """Greedily remove rules, profile members, and atoms while the
    predicate keeps holding.  The result is locally minimal: no single
    removal preserves the predicate.  The predicate must depend on the
    instance alone: it is asked once per distinct removal from each
    instance kept."""
    if not predicate(instance):
        raise PredicateNotHolding("predicate does not hold on the input instance")
    current = instance
    # removals only drop rules, so each rule is rendered once, here
    programs = chain(instance.programs.values(), *instance.profiles.values())
    text = {rule: str(rule) for program in programs for rule in program.rules}
    while True:
        # _removals can name the same rules twice (a one-rule member, an
        # atom in one rule); the predicate would refuse the repeat again
        tried: set[frozenset[_Site]] = set()
        for sites in _removals(current, text.__getitem__):
            key = frozenset(sites)
            if key in tried:
                continue
            tried.add(key)
            candidate = _without(current, sites)
            if candidate is not None and predicate(candidate):
                current = candidate
                break
        else:
            return current
