"""Syntactic belief revision, arbitration, and integrity-constrained
merging over forward-chaining rule programs.

Importing it loads the operators, the text syntax and the errors; the first
lookup of a fuzzer or checker name here loads both ``fuzz`` and ``postulates``
and binds all their names.  The CLI imports both."""

from .arbitration import Strategy, arbitrate, conj, disj
from .core import BOTTOM, ClosedSet, Literal, Program, Rule, closure, entails, stratify
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
from .merging import Profile, merge
from .revision import (
    base,
    exceptional_rules,
    hull,
    maximal_extensions,
    rank,
    revise_extended_hull,
    revise_hull,
    revise_rank,
)
from .textio import parse_profile, parse_program, render

__version__ = "0.1.0"

# name -> module; bound here on first use, so __getattr__ runs once, not per lookup
_LAZY = dict.fromkeys("FuzzConfig FuzzReport gen_instance gen_program search shrink".split(), "fuzz")
_LAZY.update(dict.fromkeys(
    "Instance PostulateId Status Verdict check guaranteed run_corpus".split(), "postulates"))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    globals().update({n: getattr(import_module(f"{__name__}.{m}"), n) for n, m in _LAZY.items()})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# the public names bound above, less the submodules (no __module__), plus the lazy ones
__all__ = sorted([name for name, value in globals().items()
                  if name[0] != "_" and hasattr(value, "__module__")] + [*_LAZY])
