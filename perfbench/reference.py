"""Naive reference for rank-large requests.

A fixpoint closure that rescans every rule until nothing changes, and
rank revision, arbitration and merging written straight from their
definitions, independent of ``fcmerge``: nothing here imports the
library.  It renders results in the library's canonical text form, so
its output digest must equal the digest of the library's output.
Quadratic per closure; use it on a small sample of requests only.
"""

from __future__ import annotations

from workloads import Rules

Rule = tuple[frozenset, str]
Program = frozenset  # of Rule

BOTTOM = None


def _neg(lit: str) -> str:
    return lit[1:] if lit.startswith("-") else "-" + lit


def _sort_key(lit: str) -> tuple[str, bool]:
    return (lit.lstrip("-"), lit.startswith("-"))


def program(rules: Rules) -> Program:
    return frozenset((frozenset(body), head) for body, head in rules)


def _facts(lits) -> Program:
    return frozenset((frozenset(), lit) for lit in lits)


def layers(p: Program) -> list[set[str]]:
    """Derivation rounds: the facts, then the heads whose bodies the
    earlier rounds cover, until a round adds nothing."""
    out = [{head for body, head in p if not body}]
    derived = set(out[0])
    while True:
        new = {head for body, head in p if head not in derived and body <= derived}
        if not new:
            return out
        out.append(new)
        derived |= new


def closure(p: Program) -> frozenset | None:
    derived = set().union(*layers(p))
    if any(_neg(lit) in derived for lit in derived):
        return BOTTOM
    return frozenset(derived)


def base(p: Program) -> list[Program]:
    levels = [p]
    while True:
        cur = levels[-1]
        if closure(cur) is BOTTOM:
            nxt = cur
        else:
            nxt = frozenset(r for r in cur if closure(cur | _facts(r[0])) is BOTTOM)
        if nxt == cur:
            break
        levels.append(nxt)
    if levels[-1]:
        levels.append(frozenset())
    return levels


def revise_rank(p: Program, q: Program) -> Program:
    levels = base(p)
    if closure(p) is BOTTOM or closure(q) is BOTTOM:
        return levels[-1] | q
    for level in levels:
        if closure(level | q) is not BOTTOM:
            return level | q
    raise AssertionError("bases end in the empty program")


def meet(a, b):
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    return a & b


def _rule_text(rule: Rule) -> str:
    body, head = rule
    if not body:
        return f"{head}."
    return ", ".join(sorted(body, key=_sort_key)) + f" -> {head}."


def program_text(p: Program) -> str:
    return "\n".join(sorted(_rule_text(r) for r in p))


def _literals_text(lits) -> str:
    return ", ".join(sorted(lits, key=_sort_key))


def closed_text(c) -> str:
    return "#bottom" if c is BOTTOM else _literals_text(c)


def rank_output(p1_rules: Rules, p2_rules: Rules, c_rules: Rules) -> str:
    """What a rank-large request must return, computed naively."""
    p1, p2, c = program(p1_rules), program(p2_rules), program(c_rules)
    revised = revise_rank(p1, p2)
    closed = closure(revised)
    rounds = "inconsistent" if closed is BOTTOM else " | ".join(
        _literals_text(layer) for layer in layers(revised))
    arbitrated = meet(closure(revise_rank(p1, p2)), closure(revise_rank(p2, p1)))
    merged = closure(c | p1 | p2)
    if merged is BOTTOM:
        merged = meet(closure(revise_rank(p1, c)), closure(revise_rank(p2, c)))
    return "\n===\n".join((
        program_text(revised),
        closed_text(closed),
        rounds,
        closed_text(arbitrated),
        closed_text(merged),
    ))
