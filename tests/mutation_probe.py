"""Mutation probe: how many simple mutants of chosen functions the tests kill.

Pytest does not collect this file.  Run it from anywhere, one target or more,
each MODULE.NAME for a function or class of src/fcmerge/MODULE.py; a class
stands for each of its methods:

    python tests/mutation_probe.py core.CompiledProgram core.closure
    python tests/mutation_probe.py revision.dualize revision._add_edge \\
        --tests tests/test_revision.py

Each mutant changes one node, with the stdlib ast only: a comparison becomes
its negation (== and !=, < and >=, > and <=, is and is not, in and not in),
and and or swap, + and - swap (also in += and -=), a not is dropped, the
test of an if, a while or a conditional expression is negated (unless it is
a not or a single comparison, which other mutants negate), a conditional
expression's branches swap, a method call with one positional argument swaps
its receiver and argument (a.issubset(c) becomes c.issubset(a)), the method
names meet and join swap, an integer constant gains 1, or a string constant
that is not a statement of its own (a docstring, say) becomes "" ("_" if it
was empty).  It is written into a temporary copy of the repository, never into
the checkout, and the owning test files (tests/test_MODULE.py of each
target's module unless --tests names others) run against it, stopping at the
first failure, with Hypothesis's seed fixed and a timeout per mutant: by
default TIMEOUT_FACTOR times what the unmutated source's run took, and at
least TIMEOUT_FLOOR seconds, so a mutant that loops forever costs about three
test runs.  The report gives killed, survived and timed out per function,
then each survivor.  The probe exits 1 when any mutant survives, else 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
           ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPPED = {ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}
METHODS = {"meet": "join", "join": "meet"}  # the lattice operations of ClosedSet
# a mutant's run stops at its first failure, so it is seldom much slower than
# the unmutated one: of the 41 mutants of core's index and closure that end,
# the slowest took 1.7 times as long.  A killed mutant that runs past the
# timeout is reported as timed out, still not as a survivor
TIMEOUT_FACTOR = 3
TIMEOUT_FLOOR = 30.0


def functions(tree: ast.Module, name: str) -> list[tuple[str, ast.AST]]:
    """The named top-level function, or each method of the named class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            if isinstance(node, ast.FunctionDef):
                return [(name, node)]
            return [(f"{name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)]
    raise SystemExit(f"no function or class {name!r}")


def mutate(node: ast.AST, k: int) -> bool:
    """Apply the k-th mutation of the node in place; False when it has none."""
    if isinstance(node, ast.Compare) and k < len(node.ops):
        node.ops[k] = NEGATED[type(node.ops[k])]()
    elif type(getattr(node, "op", None)) in SWAPPED and k == 0:  # and/or, +/-, +=/-=
        node.op = SWAPPED[type(node.op)]()
    elif isinstance(node, (ast.If, ast.While, ast.IfExp)) and k == 0 and not _negated(node.test):
        node.test = ast.UnaryOp(ast.Not(), node.test)
    elif isinstance(node, ast.IfExp) and k == 1:
        node.body, node.orelse = node.orelse, node.body
    elif _one_argument_method_call(node) and k == 0:
        node.func.value, node.args[0] = node.args[0], node.func.value
    elif isinstance(node, ast.Attribute) and node.attr in METHODS and k == 0:
        node.attr = METHODS[node.attr]
    elif isinstance(node, ast.Constant) and type(node.value) is int and k == 0:
        node.value += 1
    elif isinstance(node, ast.Constant) and type(node.value) is str and k == 0:
        node.value = "" if node.value else "_"
    else:
        return False
    return True


def _one_argument_method_call(node: ast.AST) -> bool:
    # receiver.method(argument), whose receiver and argument can swap places
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and len(node.args) == 1 and not isinstance(node.args[0], ast.Starred)
            and not node.keywords)


def _negated(test: ast.AST) -> bool:
    # whether another mutant already negates the test: it is a not, or one comparison
    return (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            or isinstance(test, ast.Compare) and len(test.ops) == 1)


def mutants(source: str, name: str):
    """(function, line, description, mutated module source) for each mutant.
    A dropped not replaces the UnaryOp by its operand, in a copy of the tree."""
    for function, fn in functions(ast.parse(source), name):
        # a constant that is a statement of its own, a docstring say, changes nothing
        inert = {id(n.value) for n in ast.walk(fn)
                 if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
        for index, node in enumerate(ast.walk(fn)):
            if id(node) in inert:
                continue
            for k in count():
                tree = ast.parse(source)
                target = list(ast.walk(dict(functions(tree, name))[function]))[index]
                before = ast.unparse(target)
                if k == 0 and isinstance(target, ast.UnaryOp) and isinstance(target.op, ast.Not):
                    _replace(tree, target, target.operand)
                    after = ast.unparse(target.operand)
                elif mutate(target, k):
                    after = ast.unparse(target)
                else:
                    break
                text = f"{_short(before)} -> {_short(after)}"
                yield function, node.lineno, text, ast.unparse(tree)


def _replace(tree: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
            elif isinstance(value, list) and old in value:  # nodes compare by identity
                value[value.index(old)] = new


def _short(text: str) -> str:
    return text if len(text) <= 60 else text[:57] + "..."


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str:
    """'killed', 'survived' or 'timed out' for the copy's current source."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no example carries over
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(command, cwd=copy, timeout=timeout,
                              env={**os.environ, "PYTHONPATH": str(copy / "src")},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("targets", nargs="+", metavar="MODULE.NAME")
    parser.add_argument("--tests", nargs="+", help="test files, relative to the repository root")
    parser.add_argument("--timeout", type=float, help=(
        f"seconds per mutant (default: {TIMEOUT_FACTOR} times the unmutated run,"
        f" at least {TIMEOUT_FLOOR:g})"))
    args = parser.parse_args(argv)
    modules = {target.partition(".")[0] for target in args.targets}
    tests = args.tests or [f"tests/test_{module}.py" for module in sorted(modules)]
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info", "build"))
        scores: dict[str, dict[str, int]] = {}
        survivors: list[str] = []
        for target in args.targets:
            module, _, name = target.partition(".")
            path = copy / "src" / "fcmerge" / f"{module}.py"
            source = path.read_text()
            found = list(mutants(source, name))
            path.write_text(ast.unparse(ast.parse(source)))
            started = time.monotonic()
            if run_tests(copy, tests, None) != "survived":
                raise SystemExit(f"{target}: the tests fail on the unmutated source")
            took = time.monotonic() - started
            timeout = (max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * took) if args.timeout is None
                       else args.timeout)
            print(f"{target}: unmutated run {took:.1f} s, timeout {timeout:.0f} s per mutant",
                  flush=True)
            for function, line, text, mutant in found:
                started = time.monotonic()
                path.write_text(mutant)
                outcome = run_tests(copy, tests, timeout)
                score = scores.setdefault(f"{module}.{function}", dict.fromkeys(
                    ("killed", "survived", "timed out"), 0))
                score[outcome] += 1
                print(f"{outcome:9}  {module}.py:{line}  {function}: {text}"
                      f"  ({time.monotonic() - started:.1f} s)", flush=True)
                if outcome == "survived":
                    survivors.append(f"{module}.py:{line}  {function}: {text}")
            path.write_text(source)
    print(f"\n{'function':40} killed  survived  timed out")
    for function, score in scores.items():
        print(f"{function:40} {score['killed']:6}  {score['survived']:8}  {score['timed out']:9}")
    total = {k: sum(s[k] for s in scores.values()) for k in ("killed", "survived", "timed out")}
    print(f"{'total':40} {total['killed']:6}  {total['survived']:8}  {total['timed out']:9}")
    for line in survivors:
        print("survived:", line)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
