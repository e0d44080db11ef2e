"""Per-layer spans recorded from outside the library.

Each traced function is replaced, in every ``fcmerge`` module namespace
that binds it, by a wrapper that counts calls and measures self time: a
span's duration minus the time its traced child spans cover.  Modules
import ``closure`` and friends by name, so wrapping only the defining
module would miss most calls.

Spans are aggregated per function rather than stored (fuzz-grid makes
over half a million closure calls a run); calls and self time stay exact.
A function or cache the library no longer has reports ``None``.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# layer.function for every wrapped function; the layer is the module.
TRACED = (
    "textio.parse_program",
    "core.closure",
    "core.stratify",
    "revision.exceptional_rules",
    "revision.base",
    "revision.rank",
    "revision.revise_rank",
    "revision.maximal_extensions",
    "revision.revise_hull",
    "revision.revise_extended_hull",
    "arbitration.arbitrate",
    "arbitration.revised_closure",
    "merging.merge",
    "postulates.check",
    "fuzz.gen_instance",
    "fuzz.shrink",
)

# Where each memo table lives: the lru_cache-wrapped original function.
CACHES = {
    "core.closure": ("core", "closure"),
    "revision.base": ("revision", "base"),
    "revision.maximal_extensions": ("revision", "_enumerate_extensions"),
    "arbitration.revised_closure": ("arbitration", "_revised_closure"),
}

# Spans whose descendants of one function are counted.
DESCENDANTS = {
    "revision.maximal_extensions": "core.closure",
    "merging.merge": "arbitration.revised_closure",
    "fuzz.shrink": "postulates.check",
}


# Units of work a call did, for the functions whose ratios need them.
WORK = {
    "core.closure": lambda args, result: len(args[0].rules),
    "textio.parse_program": lambda args, result: len(result),
    "revision.maximal_extensions": lambda args, result: len(result),
    "postulates.check": lambda args, result: result.status.value == "vacuous",
}


class Span:
    __slots__ = ("calls", "self_s", "total_s", "work", "descendants", "childless")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.work = 0
        self.descendants = 0
        self.childless = 0


def _module(layer: str):
    try:
        return importlib.import_module(f"fcmerge.{layer}")
    except ImportError:
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Wrap every function in TRACED that the library still has."""
        originals = {}
        for name in TRACED:
            layer, attr = name.split(".")
            fn = getattr(_module(layer), attr, None)
            if fn is None:
                self.missing.append(name)
            else:
                originals[name] = fn
                self.spans[name] = Span()
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "fcmerge" or n.startswith("fcmerge."))]
        for name, fn in originals.items():
            wrapper = self._wrap(name, fn)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        counted = self.spans.get(DESCENDANTS.get(name, ""))
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            before = counted.calls if counted is not None else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.self_s += dt - frame[0]
                span.total_s += dt
                if counted is not None:
                    below = counted.calls - before
                    span.descendants += below
                    span.childless += below == 0
            if work is not None:
                span.work += work(args, result)
            return result

        wrapper.traced_original = fn
        return wrapper

    def cache_hit_ratio(self, name: str) -> float | None:
        layer, attr = CACHES[name]
        fn = getattr(_module(layer), attr, None)
        fn = getattr(fn, "traced_original", fn)
        info = getattr(fn, "cache_info", None)
        if info is None:
            return None
        hits, misses = info().hits, info().misses
        return hits / (hits + misses) if hits + misses else None

    def metrics(self, wall_s: float) -> dict[str, float | None]:
        """Per-layer metrics by name; None where the function is gone or
        the workload never called it."""
        def get(name: str) -> Span | None:
            span = self.spans.get(name)
            return span if span is not None and span.calls else None

        def ratio(num: float, den: float) -> float | None:
            return num / den if den else None

        out: dict[str, float | None] = {}
        for name in TRACED:
            span = get(name)
            out[f"{name}.calls"] = span.calls if span else None
            out[f"{name}.self_s"] = span.self_s if span else None
            out[f"{name}.total_s"] = span.total_s if span else None
        for name in CACHES:
            out[f"{name}.cache_hit_ratio"] = (
                self.cache_hit_ratio(name) if get(name) else None)
        closure = get("core.closure")
        out["core.closure.rules_per_call"] = closure and closure.work / closure.calls
        parse = get("textio.parse_program")
        out["textio.parse_program.rules_per_s"] = parse and ratio(parse.work, parse.self_s)
        ext = get("revision.maximal_extensions")
        out["revision.maximal_extensions.closures_per_call"] = (
            ext and ext.descendants / ext.calls)
        out["revision.maximal_extensions.extensions_per_closure"] = (
            ext and ratio(ext.work, ext.descendants))
        merge = get("merging.merge")
        out["merging.merge.pooled_ratio"] = merge and merge.childless / merge.calls
        check = get("postulates.check")
        out["postulates.check.vacuous_ratio"] = check and check.work / check.calls
        shrink = get("fuzz.shrink")
        out["fuzz.shrink.checks_per_shrink"] = shrink and shrink.descendants / shrink.calls
        out["trace.wall_s"] = wall_s
        out["trace.untraced_remainder_s"] = wall_s - sum(s.self_s for s in self.spans.values())
        return out
