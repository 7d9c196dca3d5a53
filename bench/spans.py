"""Tracing from outside the program: every public function of each togglekit
module is wrapped, under its own name and under every name that another
module bound to it with ``from ... import``.  Open spans stay in memory on
a stack per thread; when a span closes, its time and the work counts read
at the layer boundary go into counters, and nothing else is kept.

A layer is a module.  Its self time is the time its spans were open minus
the time their child spans (in the same thread) were open.  Work that
``search`` hands to its worker threads shows up as root spans in those
threads, so ``search`` self time includes the main thread's wait for them.

One private function is wrapped as well: ``search._inverse_toggle_batch``,
whose input rows are the candidate tuples the search runs through the
propagator chain (``search.space``).  A search that prunes tuples before
that chain lowers the count; if the function is renamed, it reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("rotcore", "seqmodel", "toggling", "averaging", "catalog", "profiles",
          "ddsim", "search", "virtualmas", "cli")


def _rows(result) -> int:
    """Quaternion or vector rows in a rotcore result: 1 for a scalar call."""
    shape = getattr(result, "shape", ())
    rows = 1
    for d in shape[:-1]:
        rows *= d
    return max(rows, 1)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                        for name in LAYERS}
        self.layer_calls = Counter()
        self.layer_self = defaultdict(float)
        self.func_total = defaultdict(float)
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = [self.package] + list(self.modules.values())
        for layer, mod in self.modules.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for target in targets:
                    if vars(target).get(name) is fn:
                        self._patches.append((target, name, fn))
                        setattr(target, name, wrapped)
        search = self.modules["search"]
        batch = getattr(search, "_inverse_toggle_batch", None)
        if batch is not None:
            @functools.wraps(batch)
            def counted_batch(toggled, *args, **kwargs):
                with self._lock:
                    self.counts["search.space"] += len(toggled)
                return batch(toggled, *args, **kwargs)

            self._patches.append((search, "_inverse_toggle_batch", batch))
            search._inverse_toggle_batch = counted_batch
        seq_cls = self.modules["seqmodel"].RotationSequence
        post_init = seq_cls.__post_init__

        def counted_post_init(obj):
            post_init(obj)
            with self._lock:
                self.counts["seqmodel.sequences_built"] += 1

        self._patches.append((seq_cls, "__post_init__", post_init))
        seq_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # -- the wrapper ----------------------------------------------------------

    def _post(self, layer: str, name: str, result) -> None:
        """Work counts taken at the layer boundary (caller holds the lock)."""
        c = self.counts
        if layer == "rotcore":
            c["rotcore.rows"] += _rows(result)
        elif layer == "search" and name == "enumerate_balanced":
            c["search.found"] += len(result)
        elif layer == "search" and name == "dedupe":
            c["search.unique"] += len(result)
        elif layer == "ddsim" and name == "centroid_map":
            c["ddsim.map_cells"] += result.values.size

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        qualname = f"{layer}.{name}"
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]   # time spent in child spans
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with tracer._lock:
                    tracer.layer_calls[layer] += 1
                    tracer.layer_self[layer] += dur - frame[0]
                    tracer.func_total[qualname] += dur
                    if result is not None:
                        tracer._post(layer, name, result)

        return traced
