"""Merging a multiset of programs under an integrity constraint.

A profile is a tuple of nonempty programs.  Only its multiset of members
counts: the pooled union and the meet of member consequences do not
depend on member order.  If constraint and profile are jointly
consistent the merge is simply the closure of everything pooled
together.  Otherwise each member is revised by the constraint and the
member consequences are intersected.  Either way the result entails the
constraint, and it is consistent whenever the constraint is.
"""

from __future__ import annotations

from functools import reduce

from .arbitration import Strategy, revised_closure
from .core import BOTTOM, ClosedSet, Program, closure
from .errors import EmptyProfile

Profile = tuple[Program, ...]


def merge(constraint: Program, profile: Profile, strategy: Strategy) -> ClosedSet:
    """Merge the profile under the integrity constraint.  Raises
    EmptyProfile on an empty profile and ValueError on an empty member."""
    if not profile:
        raise EmptyProfile("a profile must contain at least one program")
    if not all(member.rules for member in profile):
        raise ValueError("profile members must be nonempty programs")
    pooled = closure(reduce(Program.__or__, profile, constraint))
    if not pooled.is_bottom:
        return pooled
    revised = (revised_closure(member, constraint, strategy) for member in profile)
    return reduce(ClosedSet.meet, revised, BOTTOM)
