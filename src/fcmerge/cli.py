"""Command-line front end.

Exit codes: 0 success (or postulate holds), 1 violation found (check,
corpus mismatch, or fuzz violations of guaranteed postulates), 2 parse
or input error (a malformed corpus table among them), 3 usage or
configuration error, 4 enumeration size limit exceeded.  Input files
must be UTF-8; an input error names its file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .arbitration import Strategy, arbitrate
from .core import ClosedSet, closure
from .errors import (ConfigError, CorpusError, EmptyProfile, IncompleteBinding,
                     SizeLimitExceeded, SourceError)
from .fuzz import FuzzConfig, search
from .merging import merge
from .postulates import POSTULATES, PostulateId, Status, check, load_bindings, run_corpus
from .revision import revise_extended_hull, revise_hull, revise_rank
from .textio import parse_file, parse_profile, parse_single_program, render

_STRATEGY_TOKENS = [s.value for s in Strategy]
# the binding flags of check, in the order the postulates first name them
_PROGRAM_VARS = tuple(dict.fromkeys(v for s in POSTULATES.values() for v in s.program_vars))
_PROFILE_VARS = tuple(dict.fromkeys(v for s in POSTULATES.values() for v in s.profile_vars))
# the numeric fuzz flags, one per FuzzConfig field with a number for default
_FUZZ_NUMBERS = tuple(f.name for f in fields(FuzzConfig) if not isinstance(f.default, tuple))

_T = TypeVar("_T")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _emit(args: argparse.Namespace, plain: str | Callable[[], str],
          payload: dict | Callable[[], str]) -> None:
    # each is its text, or a function that returns it; payload may be the JSON document
    chosen = payload if args.json else plain
    text = chosen() if callable(chosen) else chosen
    print(text if isinstance(text, str) else json.dumps(text, sort_keys=True, indent=2))


def _emit_closed(args: argparse.Namespace, result: ClosedSet) -> int:
    payload = {"command": args.command, "result": str(result), "is_bottom": result.is_bottom}
    if "op" in args:
        payload["op"] = args.op
    _emit(args, str(result), payload)
    return 0


def _cmd_cns(args: argparse.Namespace) -> int:
    return _emit_closed(args, closure(parse_file(args.file, parse_single_program)))


def _cmd_revise(args: argparse.Namespace) -> int:
    strategy = Strategy.from_token(args.op)
    new = parse_file(args.new, parse_single_program)
    if strategy is Strategy.EXTENDED_HULL:
        result, kind = revise_extended_hull(parse_file(args.base, parse_profile), new), "flock"
    else:
        revise = revise_rank if strategy is Strategy.RANK else revise_hull
        result, kind = revise(parse_file(args.base, parse_single_program), new), "program"
    text = render(result)
    _emit(args, text, {"command": "revise", "op": args.op, "kind": kind, "result": text})
    return 0


def _cmd_arbitrate(args: argparse.Namespace) -> int:
    a, b = (parse_file(path, parse_single_program) for path in (args.a, args.b))
    return _emit_closed(args, arbitrate(a, b, Strategy.from_token(args.op)))


def _cmd_merge(args: argparse.Namespace) -> int:
    constraint = parse_file(args.constraint, parse_single_program)
    members = []
    for path in args.programs:
        member = parse_file(path, parse_single_program)
        if not member.rules:
            raise EmptyProfile(f"{path}: an empty program cannot join a profile")
        members.append(member)
    return _emit_closed(args, merge(constraint, tuple(members), Strategy.from_token(args.op)))


def _cmd_check(args: argparse.Namespace) -> int:
    pid = PostulateId.parse(args.postulate)
    instance = load_bindings(
        Strategy.from_token(args.strategy),
        {var: getattr(args, var) for var in _PROGRAM_VARS if getattr(args, var) is not None},
        {var: getattr(args, var) for var in _PROFILE_VARS if getattr(args, var) is not None},
    )
    verdict = check(pid, instance)
    witness = verdict.witness
    lines = [verdict.status.value]
    lines += [f"  {key} = {value}" for key, value in witness.items()]
    _emit(args, "\n".join(lines),
          {"command": "check", "postulate": pid.value, "strategy": args.strategy,
           "status": verdict.status.value, "witness": witness, "reason": None})
    return 1 if verdict.status is Status.VIOLATED else 0


def _parse_list(raw: str, parse: Callable[[str], _T]) -> tuple[_T, ...]:
    """Parse a comma-separated list of tokens, skipping blank ones."""
    try:
        return tuple(parse(tok.strip()) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = FuzzConfig(**{name: getattr(args, name) for name in _FUZZ_NUMBERS},
                     strategies=_parse_list(args.strategies, Strategy.from_token),
                     postulates=_parse_list(args.postulates, PostulateId.parse))
    report = search(cfg)
    _emit(args, report.to_text, report.to_json)
    return 1 if report.guaranteed_violations else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    report = run_corpus(Path(args.directory) if args.directory else None)
    _emit(args, report.to_text, report.to_dict())
    return 0 if report.all_match else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON document")
    with_op = argparse.ArgumentParser(add_help=False)
    with_op.add_argument("--op", choices=_STRATEGY_TOKENS, default=Strategy.RANK.value)
    parser = _Parser(prog="fcmerge",
                     description="belief revision, arbitration, and merging "
                                 "over forward-chaining rule programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cns", parents=[common],
                       help="print the consequences of a program")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_cns)

    p = sub.add_parser("revise", parents=[common, with_op], help="revise BASE by NEW")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(handler=_cmd_revise)

    p = sub.add_parser("arbitrate", parents=[common, with_op],
                       help="symmetric merge of two programs")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_arbitrate)

    p = sub.add_parser("merge", parents=[common, with_op],
                       help="merge programs under an integrity constraint")
    p.add_argument("constraint")
    p.add_argument("programs", nargs="+", metavar="PROG")
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("check", parents=[common],
                       help="evaluate one postulate on explicit bindings")
    p.add_argument("postulate", type=str.upper,
                   choices=[pid.value for pid in PostulateId])
    p.add_argument("--strategy", choices=_STRATEGY_TOKENS, default=Strategy.RANK.value)
    for var in (*_PROGRAM_VARS, *_PROFILE_VARS):
        p.add_argument(f"--{var}", metavar="FILE")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("fuzz", parents=[common],
                       help="random search for postulate violations")
    for name in _FUZZ_NUMBERS:
        default = getattr(FuzzConfig, name)
        p.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)
    p.add_argument("--strategies", default=Strategy.RANK.value)
    p.add_argument("--postulates",
                   default=",".join(pid.value for pid in PostulateId))
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("corpus", parents=[common],
                       help="run the regression corpus")
    p.add_argument("--directory", metavar="DIR",
                   help="alternative corpus directory (default: bundled)")
    p.set_defaults(handler=_cmd_corpus)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"fcmerge: {exc}", file=sys.stderr)
        return 3
    try:
        return args.handler(args)
    except SourceError as exc:
        print(f"fcmerge: parse error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, EmptyProfile, OSError, UnicodeError) as exc:
        print(f"fcmerge: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, IncompleteBinding) as exc:
        print(f"fcmerge: {exc}", file=sys.stderr)
        return 3
    except SizeLimitExceeded as exc:
        print(f"fcmerge: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))
