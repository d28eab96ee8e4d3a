"""Outside-in tracer for crcodes.

The tracer wraps the public functions of each crcodes module, the methods
and property getters of its public classes, and ``cli.Workspace._get``.  The
wrappers are rebound in every ``crcodes`` namespace that imported the
originals, so nested calls such as ``verify_antipodal_cover_array`` calling
``check_distance_regular`` are caught too.  Each call becomes one span (name,
start, end, parent) held in flat in-memory arrays; the spans are written out
once the traced command has finished.

A generator function's span covers only the creation of the generator: its
body runs, and is timed, inside the span of whoever consumes it.  The tracer
keeps one span stack, so it traces single-threaded runs only.

Run as a script to trace one crcodes command in this process:

    python3 bench/tracer.py METRICS.json SPANS.npz -- verify --m 4 --format json

The command's own output goes to stdout and its exit code is returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

LAYERS = ("cli", "gf2", "field", "codes", "regularity", "transitivity", "graphs")
SUITES = ("cr", "up", "designs", "duals", "ct", "graph", "cover", "extended")

# per-layer metric -> (unit, better, how it is computed)
#   ("self", layer)      summed self time of the layer's spans
#   ("incl", span)       time inside the outermost calls of one span name
#   ("calls", span)      number of calls of one span name
#   ("count", counter)   work count taken from return values or arguments
#   ("hit_ratio", None)  Workspace cache hits / lookups
#   ("spans", None)      number of spans recorded
#   ("overhead", None)   traced wall minus the median of the untraced samples
#                        taken before and after it (set by run.py)
METRICS: Dict[str, tuple] = {
    "graphs.self_s": ("s", "lower", ("self", "graphs")),
    "graphs.all_distances.s": ("s", "lower", ("incl", "graphs.all_distances")),
    "graphs.check_distance_regular.s": ("s", "lower", ("incl", "graphs.check_distance_regular")),
    "graphs.check_antipodal.s": ("s", "lower", ("incl", "graphs.check_antipodal")),
    "graphs.fold.s": ("s", "lower", ("incl", "graphs.fold")),
    "graphs.verify_cover.s": ("s", "lower", ("incl", "graphs.verify_cover")),
    "graphs.dist_bytes": ("B_computed", "lower", ("count", "graphs.dist_bytes")),
    "graphs.vertices": ("count", "lower", ("count", "graphs.vertices")),
    "graphs.export_graph.s": ("s", "lower", ("incl", "graphs.export_graph")),
    "graphs.export_bytes": ("B_computed", "lower", ("count", "graphs.export_bytes")),
    "regularity.self_s": ("s", "lower", ("self", "regularity")),
    "regularity.enumerate_cosets.s": ("s", "lower", ("incl", "regularity.enumerate_cosets")),
    "regularity.cosets": ("count", "lower", ("count", "regularity.cosets")),
    "regularity.weight4_codewords.s": ("s", "lower", ("incl", "regularity.weight4_codewords")),
    "regularity.verify_design.s": ("s", "lower", ("incl", "regularity.verify_design")),
    "regularity.design_blocks": ("count", "lower", ("count", "regularity.design_blocks")),
    "regularity.verify_completely_regular.s": (
        "s", "lower", ("incl", "regularity.verify_completely_regular")),
    "transitivity.self_s": ("s", "lower", ("self", "transitivity")),
    "transitivity.orbits_on_cosets.s": ("s", "lower", ("incl", "transitivity.orbits_on_cosets")),
    "transitivity.orbits_on_cosets.calls": (
        "count", "lower", ("calls", "transitivity.orbits_on_cosets")),
    "transitivity.act_on_coset.calls": ("count", "lower", ("calls", "transitivity.act_on_coset")),
    "codes.self_s": ("s", "lower", ("self", "codes")),
    "codes.syndrome.calls": ("count", "lower", ("calls", "codes.LinearCode.syndrome")),
    "codes.syndrome.s": ("s", "lower", ("incl", "codes.LinearCode.syndrome")),
    "codes.dual_spectrum.s": ("s", "lower", ("incl", "codes.dual_spectrum")),
    "codes.build_chain.s": ("s", "lower", ("incl", "codes.build_chain")),
    "field.self_s": ("s", "lower", ("self", "field")),
    "gf2.self_s": ("s", "lower", ("self", "gf2")),
    "cli.self_s": ("s", "lower", ("self", "cli")),
    **{f"cli.suite.{name}.s": ("s", "lower", ("incl", f"cli.suite_{name}")) for name in SUITES},
    "cli.workspace.lookups": ("count", "lower", ("count", "cli.workspace.lookups")),
    "cli.workspace.hit_ratio": ("ratio", "higher", ("hit_ratio", None)),
    "trace.spans": ("count", "lower", ("spans", None)),
    "trace.overhead_s": ("s", "lower", ("overhead", None)),
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# span name -> (counter, amount taken from (args, kwargs, result))
_WORK_COUNTS: Dict[str, tuple] = {
    "regularity.enumerate_cosets": ("regularity.cosets", lambda a, k, r: len(r)),
    "regularity.verify_design": (
        "regularity.design_blocks", lambda a, k, r: len(_first_arg(a, k, "words"))),
    "graphs.build_coset_graph": ("graphs.vertices", lambda a, k, r: r.vertex_count),
    "graphs.all_distances": ("graphs.dist_bytes", lambda a, k, r: r.nbytes),
    "graphs.export_graph": ("graphs.export_bytes", lambda a, k, r: len(r)),
}


class Tracer:
    """Wraps crcodes from outside and records one span per wrapped call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, measure: Optional[tuple] = None) -> Callable:
        nid = self._intern(name)
        stack = self._stack
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        end = self.end
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measure is not None:
                counts[measure[0]] += measure[1](args, kwargs, result)
            return result

        return traced

    def _wrap_get(self, fn: Callable) -> Callable:
        traced = self.wrap("cli.Workspace._get", fn)
        counts = self.counts

        @functools.wraps(fn)
        def get(ws, key, builder):
            counts["cli.workspace.lookups"] += 1
            counts["cli.workspace.hits"] += key in ws._cache
            return traced(ws, key, builder)

        return get

    def install(self) -> None:
        """Wrap every layer and rebind the wrappers in all crcodes namespaces.

        The wrappers stay in place: a traced command runs in a process of its
        own, which ends with it.
        """
        replaced: Dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"crcodes.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, _WORK_COUNTS.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        workspace = importlib.import_module("crcodes.cli").Workspace
        workspace._get = self._wrap_get(vars(workspace)["_get"])
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "crcodes" and not mod_name.startswith("crcodes."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(name, obj.fget), obj.fset,
                                              obj.fdel, obj.__doc__))

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        spans = self.arrays()
        nid, parent = spans["name_id"], spans["parent"]
        start, end = spans["start"], spans["end"]
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0],
                            dtype=np.int64)
        layer_self = np.bincount(layer_of[nid], weights=self_time, minlength=len(LAYERS))

        def outermost_seconds(span: str) -> float:
            if span not in self._ids:
                return 0.0
            mask = nid == self._ids[span]
            s, e = start[mask], end[mask]
            if not len(s):
                return 0.0
            # spans are stored in start order, so a call nested in another
            # call of the same name starts before the running maximum end
            reach = np.maximum.accumulate(e)
            outer = np.ones(len(s), dtype=bool)
            outer[1:] = s[1:] >= reach[:-1]
            return float((e - s)[outer].sum())

        out: Dict[str, float] = {}
        for metric, (_unit, _better, (kind, arg)) in METRICS.items():
            if kind == "self":
                out[metric] = float(layer_self[LAYERS.index(arg)])
            elif kind == "incl":
                out[metric] = outermost_seconds(arg)
            elif kind == "calls":
                out[metric] = int((nid == self._ids[arg]).sum()) if arg in self._ids else 0
            elif kind == "spans":
                out[metric] = len(nid)
            elif kind == "count":
                out[metric] = int(self.counts[arg])
            elif kind == "hit_ratio":
                lookups = self.counts["cli.workspace.lookups"]
                out[metric] = self.counts["cli.workspace.hits"] / lookups if lookups else 0.0
        return out


def trace_command(argv: Sequence[str]) -> tuple:
    """Run ``crcodes.cli.main(argv)`` under a fresh tracer; return (code, tracer)."""
    tracer = Tracer()
    tracer.install()
    return importlib.import_module("crcodes.cli").main(list(argv)), tracer


def main(argv: Sequence[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py METRICS.json SPANS.npz -- CRCODES-ARGS...", file=sys.stderr)
        return 64
    metrics_path, spans_path, command = Path(argv[0]), Path(argv[1]), argv[3:]
    code, tracer = trace_command(command)
    sys.stdout.flush()
    np.savez(spans_path, **tracer.arrays())
    metrics_path.write_text(json.dumps(tracer.metrics()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
