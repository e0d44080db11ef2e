"""Symmetric merging of two programs via cross-revision.

conj and disj simulate conjunction and disjunction at the level of
consequence sets.  Arbitration revises each program by the other under a
chosen strategy and intersects the resulting consequences, which makes
it commutative by construction.

Every arbitration and merge rests on revised_closure, memoised on core.memo
by the rules of p and q, the cap, read for h and eh only before the lookup
(a result cached under a larger cap never hides a lowered cap's error),
and whether the hull is extended; Strategy never enters the key."""

from __future__ import annotations

from enum import Enum

from .core import ClosedSet, Program, closure, memo
from .revision import enumeration_cap, hull_closure, revise_rank


class Strategy(Enum):
    """Which revision operator backs an arbitration or merge."""

    RANK = "rk"
    HULL = "h"
    EXTENDED_HULL = "eh"

    @classmethod
    def from_token(cls, token: str) -> Strategy:
        for s in cls:
            if s.value == token:
                return s
        raise ValueError(f"unknown strategy {token!r}; expected rk, h, or eh")


_RANK, _EXTENDED = Strategy.RANK, Strategy.EXTENDED_HULL  # read once: EnumType's hook is slow


def conj(p1: Program, p2: Program) -> ClosedSet:
    """Consequences of pooling both programs."""
    return closure(p1 | p2)


def disj(p1: Program, p2: Program) -> ClosedSet:
    """Consequences common to both programs."""
    return closure(p1).meet(closure(p2))


def revised_closure(p: Program, q: Program, strategy: Strategy) -> ClosedSet:
    """Consequences of revising p by q under the given strategy."""
    if strategy.__class__ is not Strategy:  # before the lookup: a token finds no entry
        raise TypeError(f"not a Strategy: {strategy!r}")
    cap = None if strategy is _RANK else enumeration_cap()
    return _revised_closure(p, q, cap, strategy is _EXTENDED)


@memo
def _revised_closure(p: Program, q: Program, cap: int | None, extended: bool) -> ClosedSet:
    # rank revision without a cap, else hull or extended hull revision under it
    return closure(revise_rank(p, q)) if cap is None else hull_closure(p, q, cap, extended)


def arbitrate(p1: Program, p2: Program, strategy: Strategy) -> ClosedSet:
    """Intersection of the two cross-revision consequence sets."""
    left = revised_closure(p1, p2, strategy)
    right = revised_closure(p2, p1, strategy)
    return left.meet(right)
