"""Syntactic belief revision, arbitration, and integrity-constrained
merging over forward-chaining rule programs."""

from .arbitration import Strategy, arbitrate, conj, disj
from .core import (
    BOTTOM,
    ClosedSet,
    Literal,
    Program,
    Rule,
    closure,
    entails,
    stratify,
)
from .errors import (
    ConfigError,
    CorpusError,
    EmptyProfile,
    IncompleteBinding,
    InconsistentProgram,
    PredicateNotHolding,
    SizeLimitExceeded,
    SourceError,
)
from .fuzz import FuzzConfig, FuzzReport, gen_instance, gen_program, search, shrink
from .merging import Profile, merge
from .postulates import (
    Instance,
    PostulateId,
    Status,
    Verdict,
    check,
    guaranteed,
    run_corpus,
)
from .revision import (
    base,
    exceptional_rules,
    flock_closure,
    hull,
    maximal_extensions,
    rank,
    revise_extended_hull,
    revise_hull,
    revise_rank,
)
from .textio import parse_profile, parse_program, render

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "ClosedSet",
    "ConfigError",
    "CorpusError",
    "EmptyProfile",
    "FuzzConfig",
    "FuzzReport",
    "IncompleteBinding",
    "InconsistentProgram",
    "Instance",
    "Literal",
    "PostulateId",
    "PredicateNotHolding",
    "Profile",
    "Program",
    "Rule",
    "SizeLimitExceeded",
    "SourceError",
    "Status",
    "Strategy",
    "Verdict",
    "arbitrate",
    "base",
    "check",
    "closure",
    "conj",
    "disj",
    "entails",
    "exceptional_rules",
    "flock_closure",
    "gen_instance",
    "gen_program",
    "guaranteed",
    "hull",
    "maximal_extensions",
    "merge",
    "parse_profile",
    "parse_program",
    "rank",
    "render",
    "revise_extended_hull",
    "revise_hull",
    "revise_rank",
    "run_corpus",
    "search",
    "shrink",
    "stratify",
]
