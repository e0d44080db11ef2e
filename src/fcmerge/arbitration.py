"""Symmetric merging of two programs via cross-revision.

conj and disj simulate conjunction and disjunction at the level of
consequence sets.  Arbitration revises each program by the other under a
chosen strategy and intersects the resulting consequences, which makes
it commutative by construction.
"""

from __future__ import annotations

from enum import Enum

from .core import ClosedSet, Program, closure
from .revision import flock_closure, revise_extended_hull, revise_hull, revise_rank


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


def conj(p1: Program, p2: Program) -> ClosedSet:
    """Consequences of pooling both programs."""
    return closure(p1 | p2)


def disj(p1: Program, p2: Program) -> ClosedSet:
    """Consequences common to both programs."""
    return closure(p1).meet(closure(p2))


def revised_closure(p: Program, q: Program, strategy: Strategy) -> ClosedSet:
    """Consequences of revising p by q under the given strategy."""
    if strategy is Strategy.RANK:
        return closure(revise_rank(p, q))
    if strategy is Strategy.HULL:
        return closure(revise_hull(p, q))
    return flock_closure(revise_extended_hull((p,), q))


def arbitrate(p1: Program, p2: Program, strategy: Strategy) -> ClosedSet:
    """Intersection of the two cross-revision consequence sets."""
    left = revised_closure(p1, p2, strategy)
    right = revised_closure(p2, p1, strategy)
    return left.meet(right)
