"""In-memory span tracer around the library's public functions.

`Tracer.install()` replaces every public function of the layer modules,
in every garside module that binds the name, with a wrapper. While
`enabled` is true a wrapper records one span (name, parent, start, end)
per call in flat arrays, so nothing inside the library changes and
tracing costs only the patched call when it is off. `uninstall()` puts
the original functions back.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
import types
from array import array
from collections import Counter

# Layers are the library modules whose public functions are timed.
LAYERS = ("kernel", "structures", "parabolic", "cosets", "automaton", "growth")
# Modules whose global names are rebound: every module that calls a layer
# function during a benchmark item (cli.parse_element calls normalize).
PATCHED = LAYERS + ("cli",)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counters taken at function boundaries: span name -> (counter, f(args, kwargs, result)).
HOOKS = {
    "kernel.normalize": ("kernel.letters_in", lambda a, k, r: len(_arg(a, k, 1, "word"))),
    "kernel.multiply": (
        "kernel.letters_in",
        lambda a, k, r: len(_arg(a, k, 0, "x").body) + len(_arg(a, k, 1, "y").body),
    ),
    "kernel.invert": ("kernel.letters_in", lambda a, k, r: len(_arg(a, k, 0, "x").body)),
    "cosets.projection": ("cosets.members", lambda a, k, r: len(r.members)),
    "growth.transfer_counts": ("growth.terms", lambda a, k, r: len(r)),
    "structures.build_braid": ("structures.simples", lambda a, k, r: r.n_simples),
    "structures.build_dihedral": ("structures.simples", lambda a, k, r: r.n_simples),
    "structures.build_free_abelian": ("structures.simples", lambda a, k, r: r.n_simples),
    "structures.load_table": ("structures.simples", lambda a, k, r: r.n_simples),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.name_id)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                tracer.counts[hook[0]] += hook[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"garside.{m}") for m in PATCHED]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules + [importlib.import_module("garside")]:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        self.enabled = False
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    # -- reading the spans ---------------------------------------------------

    def calls(self) -> Counter[str]:
        return Counter(self.names[i] for i in self.name_id)

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name."""
        child = [0.0] * len(self.name_id)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            out[name] = out.get(name, 0.0) + self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path) -> None:
        """All spans as gzipped CSV; times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_us,end_us\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[nid]},"
                    f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f}\n"
                )
