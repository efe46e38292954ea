"""In-memory span tracer that wraps the library's public functions.

Modules import functions by name (``from .jets import jet_mul``), so a
function is wrapped at every module attribute that binds it: wrapping
``fastslow.jets.jet_mul`` alone would miss the calls made through
``fastslow.embedding.jet_mul``.  A span records its name, start, end and
parent; self time is the span's duration minus its direct child spans.
Spans are recorded only while ``active`` is set, so the benchmark's own
checks between operations leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("jets", "model", "embedding", "singularities", "dynamics",
          "specfiles", "cli")


def _mul_pairs(tr, args, kwargs, result):
    a, b = args[0], args[1]
    tr.counts["jets.jet_mul.pairs"] += len(a.coeffs) * len(b.coeffs)


def _parse_bytes(tr, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tr.counts["specfiles.parse_mapspec.bytes"] += len(text.encode("utf-8"))


def _orbit_steps(tr, args, kwargs, result):
    tr.counts["dynamics.map_steps"] += len(result.points) - 1


def _track_steps(tr, args, kwargs, result):
    tr.counts["dynamics.map_steps"] += len(result) - 1


# counters taken at the span boundary, from arguments or results
HOOKS = {
    "jets.jet_mul": _mul_pairs,
    "specfiles.parse_mapspec": _parse_bytes,
    "dynamics.iterate_map_orbit": _orbit_steps,
    "dynamics.track_slow_manifold": _track_steps,
}


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}" if argv else "cli.execute_command"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.outer = array("b")   # 1 if no enclosing span has the same name
        self.start = array("q")
        self.end = array("q")
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.current_tag = self.tag_id("")
        self.counts: dict[str, int] = {name: 0 for name in
                                       ("jets.jet_mul.pairs",
                                        "specfiles.parse_mapspec.bytes",
                                        "dynamics.map_steps")}
        self.active = False
        self._stack = [-1]
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str):
        tr = self
        hook = HOOKS.get(name)
        fixed = None if name == "cli.execute_command" else self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else tr.name_id(_cli_name(args, kwargs))
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.tag.append(tr.current_tag)
            tr.outer.append(tr._depth[nid] == 0)
            tr.start.append(0)
            tr.end.append(0)
            tr._stack.append(idx)
            tr._depth[nid] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr._depth[nid] -= 1
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every public function of each layer, plus the
        ``FastSlowMapSpec`` constructor and ``recenter``, at every binding
        inside the package.  Returns the number of bindings patched."""
        targets: dict[object, str] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fastslow.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fastslow" or key.startswith("fastslow."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        cls = sys.modules["fastslow.model"].FastSlowMapSpec
        for attr, name in (("__init__", "model.FastSlowMapSpec"),
                           ("recenter", "model.recenter")):
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))
        return len(self._patches)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "tag": np.frombuffer(self.tag, dtype=np.int32),
                "outer": np.frombuffer(self.outer, dtype=np.int8),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names or [""]),
                            tags=np.array(self.tags), **self.arrays())


class SpanSummary:
    """Per-name totals over the recorded spans."""

    def __init__(self, tr: Tracer):
        a = tr.arrays()
        self.names, self.tags = tr.names, tr.tags
        self.name, self.tag = a["name"], a["tag"]
        self.outer = a["outer"].astype(bool)
        self.dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def _mask(self, name: str, tag: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(name)
        if tag is not None:
            mask &= self.tag == (self.tags.index(tag) if tag in self.tags else -1)
        return mask

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def inclusive_s(self, name: str, tag: str | None = None) -> float:
        """Time inside the named function, counting nested calls once."""
        return float(self.dur[self._mask(name, tag) & self.outer].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def layer_self_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def layer_inclusive_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return float(self.dur[np.isin(self.name, ids) & self.outer].sum())
