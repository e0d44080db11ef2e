"""Structural rules of the package source, checked on its syntax tree."""

import ast
import importlib
import json
import re
import sys
from pathlib import Path
from types import FunctionType

import pytest

import fcmerge
from fcmerge import Strategy, arbitrate

from helpers import GAP_P, GAP_Q, clear_memos, prog, run_fresh

MODULES = sorted(Path(fcmerge.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_private_name_imported_from_a_sibling():
    offenders = [
        f"{path.stem}: {alias.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("fcmerge"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


def test_textio_imports_only_core_and_errors():
    # the text syntax sits below every operator: a profile is a tuple of
    # programs, so reading and rendering one needs no operator module
    tree = _tree(Path(fcmerge.__file__).parent / "textio.py")
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert imported == {"core", "errors"}


class _EnvironReads(ast.NodeVisitor):
    """Collects module.function for every use of os.environ or os.getenv."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in ("environ", "getenv")):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "os" and any(a.name in ("environ", "getenv") for a in node.names):
            self.found.append(".".join(self.scope))


def test_environment_read_only_by_enumeration_cap():
    found = []
    for path in MODULES:
        reads = _EnvironReads(path.stem)
        reads.visit(_tree(path))
        found += reads.found
    assert found == ["revision.enumeration_cap"]


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_every_imported_name_is_used():
    # __init__ imports to re-export
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_dualize_names_nothing_from_core():
    # the enumeration's kernel sees the search only through its oracle, so
    # it can be tested on conflict families without a program.  The module
    # functions it calls, such as its Berge step, are held to the same rule
    tree = _tree(Path(fcmerge.__file__).parent / "revision.py")
    from_core = {alias.asname or alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.module == "core"
                 for alias in node.names}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"CompiledProgram", "Program", "Rule", "closure"} <= from_core
    seen, todo, named = set(), ["dualize"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.Name, ast.Attribute)):
                named.add(node.id if isinstance(node, ast.Name) else node.attr)
        todo += [n for n in named if n in functions and n not in seen]
    assert "_add_edge" in seen
    assert named & from_core == set()


def test_only_core_and_revision_know_the_index():
    # the index is mutable and its answers come as bitmasks over the
    # search's candidates: the search and every reader of those bitmasks
    # live in revision, so no other module names the index or asks it
    index = {"CompiledProgram", "consistent_with", "closure_with", "inert", "intolerable"}
    named = []
    for path in MODULES:
        if path.stem in ("core", "revision"):
            continue
        for node in ast.walk(_tree(path)):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in index:
                named.append(f"{path.stem}: {name}")
    assert named == []


LAZY_NAMES = {
    "fuzz": ("FuzzConfig", "FuzzReport", "gen_instance", "gen_program", "search", "shrink"),
    "postulates": ("Instance", "PostulateId", "Status", "Verdict", "check", "guaranteed",
                   "run_corpus"),
}


def _run_fresh(script: str) -> None:
    assert run_fresh(["-c", script]) == "ok\n"


_LAZY_SCRIPT = f"""
import sys
import fcmerge

# the two lazy modules, and what only they import: the core value types
# are hand-written, so the operators need neither dataclasses nor inspect
lazy = {{"fcmerge.fuzz", "fcmerge.postulates", "dataclasses", "inspect"}}
names = {LAZY_NAMES!r}
flat = [name for group in names.values() for name in group]
assert not lazy & set(sys.modules), "import fcmerge loaded " + str(lazy & set(sys.modules))
assert not set(flat) & set(vars(fcmerge))
missing = set(fcmerge.__all__) - set(dir(fcmerge))
assert not missing, "dir() lacks " + str(missing)
assert not set(flat) & set(vars(fcmerge)), "dir() loaded the lazy names"

p = fcmerge.parse_program("a. a -> b. b -> c.")
q = fcmerge.parse_program("-c.")
rk = fcmerge.Strategy.RANK
assert fcmerge.render(fcmerge.revise_rank(p, q)) == "-c."
assert fcmerge.render(fcmerge.arbitrate(p, q, rk)) == ""
assert fcmerge.render(fcmerge.merge(q, fcmerge.Profile((p, q)), rk)) == "-c"
assert fcmerge.render(fcmerge.arbitrate(p, q, fcmerge.Strategy.HULL)) == ""
assert not lazy & set(sys.modules), "an operator loaded " + str(lazy & set(sys.modules))

fcmerge.Status
assert set(flat) <= set(vars(fcmerge)), "one lookup left names to __getattr__"
for module, group in names.items():
    for name in group:
        assert vars(fcmerge)[name] is getattr(sys.modules["fcmerge." + module], name), name

try:
    fcmerge.nope
except AttributeError as exc:
    assert str(exc) == "module 'fcmerge' has no attribute 'nope'", exc
else:
    raise AssertionError("fcmerge.nope resolved")

star = {{}}
exec("from fcmerge import *", star)
assert sorted(set(fcmerge.__all__) - set(star)) == []
assert all(star[name] is getattr(fcmerge, name) for name in fcmerge.__all__)
print("ok")
"""


def test_fuzzer_and_checkers_load_on_first_use():
    # a caller who only revises, arbitrates or merges pays for neither the
    # fuzzer nor the checkers; the first lookup of one of their names binds
    # all of them in the package, so __getattr__ never sees them again.  A
    # fresh interpreter, since earlier tests have loaded both modules here
    _run_fresh(_LAZY_SCRIPT)
    # the 13 names are all the public names the two modules define
    home = {name: getattr(fcmerge, name).__module__ for name in fcmerge.__all__}
    assert sorted(name for name, module in home.items()
                  if module.partition(".")[2] in LAZY_NAMES) == sorted(
        name for group in LAZY_NAMES.values() for name in group)


_RACE_SCRIPT = f"""
import sys, threading
import fcmerge

names = {LAZY_NAMES!r}
flat = [(module, name) for module, group in names.items() for name in group]
barrier, got = threading.Barrier(len(flat)), {{}}

def lookup(name):
    barrier.wait(timeout=30)
    got[name] = getattr(fcmerge, name)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=lookup, args=(name,)) for _, name in flat]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
assert not any(thread.is_alive() for thread in threads)
for module, name in flat:
    home = getattr(sys.modules["fcmerge." + module], name)
    assert got[name] is home and vars(fcmerge)[name] is home, name
print("ok")
"""


def test_first_lookups_from_many_threads_bind_one_object_per_name():
    # 13 threads, one per name, all making the first lookup at once: each
    # must get the submodule's own object, never a half-loaded module's
    _run_fresh(_RACE_SCRIPT)


def test_src_stays_within_its_line_budget():
    # ROADMAP item 8: src/ stays below 2,319 lines, counted as
    # wc -l src/fcmerge/*.py counts them
    lines = sum(path.read_bytes().count(b"\n") for path in MODULES)
    assert lines < 2319, f"src/fcmerge: {lines} lines"


def test_benchmark_trajectory_files_hold_whole_result_lines():
    # ROADMAP item 7: each BENCH_*.json at the root holds perfbench/run.py
    # result lines, each with the commit, seed and workload it ran, so every
    # figure a change reports can be traced to its runs
    root = PERFBENCH.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths and len(metrics) == 5
    for path in paths:
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        assert runs, path.name
        for run in runs:
            assert re.fullmatch(r"[0-9a-f]{7,40}", run["commit"]), (path.name, run)
            assert isinstance(run["seed"], int) and run["workload"] in workloads, run
            assert isinstance(run["correct"], bool), run
            assert set(run["metrics"]) >= metrics, run
            for name in metrics:
                value = run["metrics"][name]["value"]
                assert isinstance(value, (int, float)) and value >= 0, (name, run)


def test_each_postulate_id_is_written_once():
    # the POSTULATES rows are keyed by the id strings, and PostulateId is
    # built from those keys: no module spells an id out again as a string
    # or a name, and postulates itself names no member as an attribute
    def spelled(path):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute) and path.stem == "postulates":
                yield node.attr

    written = [word for path in MODULES for word in spelled(path)
               if re.fullmatch(r"(SA|FP)\d", word)]
    assert written == [pid.value for pid in fcmerge.PostulateId]


_BOUNDS = ("MEMO_SIZE", "MEMO_RULES")


def _memos() -> tuple[list[tuple[str, str]], dict[str, list[str]]]:
    """(module.function, decorator) for every cached or memoised function,
    and for each memo bound the modules that assign it."""
    memos, owners = [], {bound: [] for bound in _BOUNDS}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if "cache" in ast.unparse(dec) or "memo" in ast.unparse(dec):
                        memos.append((f"{path.stem}.{node.name}", ast.unparse(dec)))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in owners:
                        owners[target.id].append(path.stem)
    return memos, owners


def test_every_memo_is_bounded_by_the_one_memo_size():
    # every table holds at most MEMO_SIZE entries.  base's and the revision
    # table's, whose entries keep rank-large's programs alive, are also
    # bounded by the rules they hold; only closure, the busiest, stays on
    # lru_cache: under MEMO_RULES it would miss more on rank-large
    memos, owners = _memos()
    assert owners == {bound: ["core"] for bound in _BOUNDS}
    assert dict(memos) == {
        "core.closure": "lru_cache(maxsize=MEMO_SIZE)",
        "revision.base": "memo",
        "arbitration._revised_closure": "memo",
    }
    # memo is core's, the one decorator that reads MEMO_RULES
    assert fcmerge.revision.memo is fcmerge.core.memo
    reads = [f"{path.stem}.{node.name}" for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(n, ast.Name) and n.id == "MEMO_RULES" for n in ast.walk(node))]
    assert reads == ["core.memo", "core.wrapper"]


def test_memoised_functions_are_closure_base_and_revised_closure():
    # each memo costs resident memory on every workload: a new one must
    # show that it pays for itself, and change this list.  The revision
    # table serves fuzz checks and shrinks, where 37% of revisions repeat
    memos, _ = _memos()
    assert sorted(name for name, _ in memos) == [
        "arbitration._revised_closure", "core.closure", "revision.base"]


def test_clear_memos_empties_every_memo():
    # the counts tests pin from cache_info() depend on test order unless
    # clear_memos reaches every table
    memos, _ = _memos()
    tables = [getattr(importlib.import_module(f"fcmerge.{module}"), name)
              for module, name in (memo.split(".") for memo, _ in memos)]
    arbitrate(prog(GAP_P), prog(GAP_Q), Strategy.HULL)
    assert all(table.cache_info().currsize for table in tables)
    clear_memos()
    assert [table.cache_info().currsize for table in tables] == [0] * len(tables)


def test_cli_writes_stdout_only_through_emit():
    # one writer decides between the plain and the JSON form of a result
    tree = _tree(Path(fcmerge.__file__).parent / "cli.py")
    emit = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    inside = {id(node) for node in ast.walk(emit)}
    stray = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print" and not any(k.arg == "file" for k in node.keywords)
        and id(node) not in inside
    ]
    assert stray == []


def test_value_types_are_slotted_and_frozen():
    # the value types fill the memos and every request's garbage, so none
    # carries a per-instance __dict__; and they are hashed, so no field of
    # one can be assigned or deleted
    fields = [(fcmerge.Literal("a"), ("atom", "positive")),
              (fcmerge.Rule.fact(fcmerge.Literal("a")), ("body", "head")),
              (fcmerge.Program(), ("rules",)), (fcmerge.ClosedSet(frozenset()), ("literals",))]
    for value, names in fields:
        assert not hasattr(value, "__dict__"), value
        for name in names:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1


def _used_names() -> set[str]:
    """Every name and attribute the package's modules, __init__ aside, and
    the benchmark harness's non-test modules mention."""
    callers = [path for path in MODULES if path.name != "__init__.py"]
    callers += [path for path in sorted(PERFBENCH.glob("*.py"))
                if not path.name.startswith("test_")]
    used = set()
    for path in callers:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    # a public name that only tests reach is a helper nothing calls: the
    # package's other modules and the benchmark harness must use each one
    assert sorted(set(fcmerge.__all__) - _used_names()) == []


def test_every_public_method_has_a_caller():
    # the same rule one level down: each public method, property or
    # classmethod an exported class defines must have a caller outside tests,
    # also one it takes from a base of the package, as PostulateId does
    used = _used_names()
    methods = [
        f"{cls.__name__}.{attr}"
        for cls in (getattr(fcmerge, name) for name in fcmerge.__all__)
        if isinstance(cls, type)
        for base in cls.__mro__ if base.__module__.startswith("fcmerge")
        for attr, value in vars(base).items()
        if not attr.startswith("_")
        and isinstance(value, (FunctionType, property, classmethod, staticmethod))
    ]
    assert len(methods) > 10
    assert sorted(m for m in methods if m.partition(".")[2] not in used) == []
