"""Structural rules of the package source, checked on its syntax tree."""

import ast
from pathlib import Path
from types import FunctionType

import fcmerge

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


def _memos() -> tuple[list[tuple[str, str]], list[str]]:
    """(module.function, decorator) for every cached function, and the
    modules that assign MEMO_SIZE."""
    memos, owners = [], []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if "cache" in ast.unparse(dec):
                        memos.append((f"{path.stem}.{node.name}", ast.unparse(dec)))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "MEMO_SIZE" for t in node.targets):
                owners.append(path.stem)
    return memos, owners


def test_every_memo_is_bounded_by_the_one_memo_size():
    memos, owners = _memos()
    assert owners == ["core"]
    assert memos and all(dec == "lru_cache(maxsize=MEMO_SIZE)" for _, dec in memos), memos


def test_memoised_functions_are_closure_and_base():
    # each memo costs resident memory on every workload: a new one must
    # show that it pays for itself, and change this list
    memos, _ = _memos()
    assert sorted(name for name, _ in memos) == ["core.closure", "revision.base"]


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


def test_value_dataclasses_are_slotted():
    # the value types fill the memos and every request's garbage: each
    # frozen dataclass of these modules carries no per-instance __dict__
    frozen = {}
    for path in MODULES:
        if path.stem not in ("core", "revision", "merging"):
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    if isinstance(dec, ast.Call) and ast.unparse(dec.func) == "dataclass":
                        flags = {k.arg: ast.literal_eval(k.value) for k in dec.keywords}
                        if flags.get("frozen"):
                            frozen[f"{path.stem}.{node.name}"] = flags.get("slots", False)
    assert frozen and [name for name, slotted in frozen.items() if not slotted] == []


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
    # classmethod an exported class defines must have a caller outside tests
    used = _used_names()
    methods = [
        f"{cls.__name__}.{attr}"
        for cls in (getattr(fcmerge, name) for name in fcmerge.__all__)
        if isinstance(cls, type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and isinstance(value, (FunctionType, property, classmethod, staticmethod))
    ]
    assert len(methods) > 10
    assert sorted(m for m in methods if m.partition(".")[2] not in used) == []
