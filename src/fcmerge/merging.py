"""Merging a multiset of programs under an integrity constraint.

If constraint and profile are jointly consistent the merge is simply the
closure of everything pooled together.  Otherwise each member is revised
by the constraint and the member consequences are intersected.  Either
way the result entails the constraint, and it is consistent whenever the
constraint is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator

from .arbitration import Strategy, revised_closure
from .core import BOTTOM, PROFILE_SEPARATOR, ClosedSet, Program, closure
from .errors import EmptyProfile


@dataclass(frozen=True, eq=False, slots=True)
class Profile:
    """A finite nonempty multiset of nonempty programs.

    Stored as a tuple to preserve multiplicities; equality and hashing
    are multiset-based, so member order never matters.
    """

    members: tuple[Program, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise EmptyProfile("a profile must contain at least one program")
        for m in self.members:
            if not m.rules:
                raise ValueError("profile members must be nonempty programs")

    def union_program(self) -> Program:
        out = self.members[0]
        for m in self.members[1:]:
            out = out | m
        return out

    def __add__(self, other: Profile) -> Profile:
        """Multiset sum: multiplicities accumulate."""
        return Profile(self.members + other.members)

    def __iter__(self) -> Iterator[Program]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def _key(self) -> tuple[str, ...]:
        return tuple(sorted(str(m) for m in self.members))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return f"\n{PROFILE_SEPARATOR}\n".join(str(m) for m in self.members)


def merge(constraint: Program, profile: Profile, strategy: Strategy) -> ClosedSet:
    """Merge the profile under the integrity constraint."""
    pooled = closure(constraint | profile.union_program())
    if not pooled.is_bottom:
        return pooled
    revised = (revised_closure(member, constraint, strategy) for member in profile)
    return reduce(ClosedSet.meet, revised, BOTTOM)
