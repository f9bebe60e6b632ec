"""Span tracing of spinlogic, installed from outside the package.

:class:`Tracer` wraps every public function and method of the six traced
modules and rebinds each module attribute that holds one of them, including
names that one module imported from another (``from .ternary import
decode``).  Spans stay in memory as flat integer arrays and are written once,
at exit.  :func:`layer_metrics` turns a written trace into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
import types
from array import array

import numpy as np

MODULES = ("cli", "npn", "pc", "ternary", "spinsim", "search")

# Public search entry points whose arguments and results give the pair and
# hit counts.
SEARCH_ENTRY_POINTS = ("search.search", "search.achievable_classes")

# Which end-to-end metrics a change in each per-layer metric should move,
# and on which workloads; every module's self_s and calls, and
# tracing_overhead_s, are reported on all workloads without a prediction.
MOVES = {
    "npn.canonical_map_s": (["wall_s"], ["classify", "search_all", "search_hits"]),
    "npn.burnside_count_s": (["wall_s"], ["classify"]),
    "pc.pc_classify_all_s": (["wall_s"], ["classify"]),
    "ternary.calls": (["wall_s"], ["classify"]),
    "npn.orbit_calls": (["wall_s"], ["search_hits"]),
    "npn.orbit_s": (["wall_s"], ["search_hits"]),
    "search.orbits_per_class": (["wall_s"], ["search_hits"]),
    "search.self_s": (["wall_s", "peak_rss_mb", "items_per_s"], ["search_all", "search_hits"]),
    "search.pairs": (["wall_s", "peak_rss_mb", "items_per_s"], ["search_all", "search_hits"]),
    "search.hits": (["wall_s", "peak_rss_mb", "items_per_s"], ["search_all", "search_hits"]),
    "search.hit_ratio": (["wall_s", "peak_rss_mb", "items_per_s"], ["search_all", "search_hits"]),
    "spinsim.self_s": (["wall_s"], ["simulate"]),
    "spinsim.run_sequence_calls": (["wall_s"], ["simulate"]),
    "spinsim.run_sequence_us": (["wall_s"], ["simulate"]),
    "search.instantiate_s": (["wall_s"], ["simulate"]),
    "cli.self_s": (["wall_s"], ["simulate", "classify"]),
}


class Tracer:
    """In-memory spans: traced function, parent span (-1 at the top), and
    start and end on the ``perf_counter_ns`` clock."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        fid = len(self.names)
        self.names.append(name)
        func, parent, start, end, stack = self.func, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(func)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _search_observer(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, result) -> None:
            bound = signature.bind(*args, **kwargs).arguments
            n, m = len(bound["grid_a"]), len(bound["grid_b"])
            self._count("search.pairs", math.comb(n, 3) * math.comb(m, 3))
            if isinstance(result, dict):  # class -> pair count
                self._count("search.hits", sum(result.values()))
                self._count("search.classes", len(result))
            else:  # list of hits
                self._count("search.hits", len(result))
                self._count("search.classes", len({h.npn_class.canonical for h in result}))

        return observe

    def install(self) -> None:
        """Wrap the public callables of the traced modules and rebind every
        attribute of every loaded spinlogic module that refers to one."""
        wrapped: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"spinlogic.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if isinstance(obj, type):
                    self._wrap_methods(f"{short}.{obj.__name__}", obj)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    observe = self._search_observer(obj) if name in SEARCH_ENTRY_POINTS else None
                    wrapped[id(obj)] = (obj, self.wrap(name, obj, observe))
        for name, module in list(sys.modules.items()):
            if name != "spinlogic" and not name.startswith("spinlogic."):
                continue
            for attr, obj in list(vars(module).items()):
                found = wrapped.get(id(obj))
                if found is not None and found[0] is obj:
                    self._set(module, attr, found[1])

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self.wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(f"{prefix}.{attr}", obj.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names or [""]),
            func=np.frombuffer(self.func, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            counts=np.array(json.dumps(self.counts)),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (the union of the children, clipped to the span)."""
    parent, start, end = (np.asarray(x, dtype=np.int64) for x in (parent, start, end))
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    p = parent[kids]
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    keep = hi > lo
    p, lo, hi = p[keep], lo[keep], hi[keep]
    if p.size == 0:
        return own
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    # Running maximum of the children's ends within each parent.  Shifting
    # each parent's group above the previous one lets one accumulate serve
    # every group; all values are integer nanoseconds, so this is exact.
    group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
    base, width = start.min(), int(end.max() - start.min()) + 1
    shifted = group * width + (hi - base)
    reach = np.maximum.accumulate(shifted)
    before = np.concatenate(([-1], reach[:-1])) - group * width + base
    first = np.concatenate(([True], p[1:] != p[:-1]))
    covered = hi - np.where(first, lo, np.maximum(lo, before))
    covered = np.clip(covered, 0, None)
    return own - np.bincount(p, weights=covered, minlength=own.size).astype(np.int64)


def _outer_total(func: np.ndarray, parent: np.ndarray, dur: np.ndarray, fid: int) -> int:
    """Summed duration of spans of ``fid`` not nested inside another span of it."""
    total = 0
    for span in np.flatnonzero(func == fid):
        up = parent[span]
        while up >= 0 and func[up] != fid:
            up = parent[up]
        if up < 0:
            total += int(dur[span])
    return total


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        func, parent = data["func"], data["parent"]
        start, end = data["start"], data["end"]
        counts = json.loads(str(data["counts"]))
    dur = end - start
    own = self_times(parent, start, end)
    module_of = np.array([n.split(".", 1)[0] for n in names])[func]
    metrics: dict[str, float] = {}
    for short in MODULES:
        mine = module_of == short
        metrics[f"{short}.self_s"] = own[mine].sum() / 1e9
        metrics[f"{short}.calls"] = int(mine.sum())

    def fid(name: str) -> int:
        return names.index(name) if name in names else -1

    def seconds(name: str) -> float:
        return _outer_total(func, parent, dur, fid(name)) / 1e9

    def calls(name: str) -> int:
        return int((func == fid(name)).sum())

    for name in ("npn.canonical_map", "npn.burnside_count", "pc.pc_classify_all", "npn.orbit"):
        metrics[f"{name}_s"] = seconds(name)
    metrics["npn.orbit_calls"] = calls("npn.orbit")
    runs = calls("spinsim.run_sequence")
    metrics["spinsim.run_sequence_calls"] = runs
    metrics["spinsim.run_sequence_us"] = seconds("spinsim.run_sequence") / runs * 1e6 if runs else 0.0
    metrics["search.instantiate_s"] = seconds("search.SequenceTemplate.instantiate")
    pairs, hits, classes = (counts.get(f"search.{k}", 0) for k in ("pairs", "hits", "classes"))
    metrics["search.pairs"] = pairs
    metrics["search.hits"] = hits
    metrics["search.hit_ratio"] = hits / pairs if pairs else 0.0
    metrics["search.orbits_per_class"] = metrics["npn.orbit_calls"] / classes if classes else 0.0
    return metrics
