"""Module-boundary tracing for the flagorbits layers, from outside the program.

Every public function defined in a layer module is found by introspection
and wrapped.  The wrapper is patched only into the namespaces of the *other*
layer modules (where they imported it), so a call becomes a span exactly
when it crosses a module boundary; calls inside one module stay plain.  The
benchmark's own calls into the entry points go through `entry()`, which
returns the wrapped function while tracing is on.

Self time is thread CPU time (`time.thread_time`): sweep runs pattern checks
on a thread pool, and CPU time charges that work to the layer that ran it
rather than to the caller blocked on the pool.  Each thread keeps its own
span stack; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter

LAYERS = ("perms", "bruhat", "orbit_graph", "patterns", "smoothness", "geometry", "poly")

# Functions whose calls from inside their own module are counted too (no
# span), because the per-layer metrics name them: orbit_graph calls
# neighbors from within itself on the classify path, for one.
COUNT_EVERY_CALL = (
    "perms.parse_perm",
    "bruhat.bruhat_leq",
    "orbit_graph.neighbors",
    "poly.determinant",
    "poly.exact_rank",
)


class _ThreadStats:
    __slots__ = ("stack", "spans", "self_s", "calls", "true")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.spans: Counter[str] = Counter()  # per layer
        self.self_s: Counter[str] = Counter()  # per layer
        self.calls: Counter[str] = Counter()  # per function
        self.true: Counter[str] = Counter()  # per function, calls returning True


class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.summary()` afterwards."""

    def __init__(self, package: str = "flagorbits") -> None:
        self.modules = {}
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                pass  # a layer that no longer exists reports zero calls
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals = {}
        for layer, mod in self.modules.items():
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                originals[id(fn)] = fn
                self._wrapped[id(fn)] = self._wrap(layer, name, fn)
                if f"{layer}.{name}" in COUNT_EVERY_CALL:
                    self._patches.append((mod, name, fn))
                    setattr(mod, name, self._count(f"{layer}.{name}", fn))
        for layer, mod in self.modules.items():
            for name, value in list(vars(mod).items()):
                fn = originals.get(id(value))
                if fn is not None and fn.__module__ != mod.__name__:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, self._wrapped[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()
        self._wrapped.clear()

    def entry(self, fn):
        """The traced version of an entry point while installed, else fn."""
        return self._wrapped.get(id(fn), fn)

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = _ThreadStats()
            self._threads.append(st)
        return st

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._stats()
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.self_s[layer] += dt - child
                if stack:
                    stack[-1] += dt
                st.spans[layer] += 1
                st.calls[key] += 1
            if result is True:
                st.true[key] += 1
            return result

        return traced

    def _count(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            st = self._stats()
            st.calls[key] += 1
            if result is True:
                st.true[key] += 1
            return result

        return counted

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Merged per-thread counters.  Layer calls are spans (calls from
        outside the layer); function calls also include the calls from inside
        for COUNT_EVERY_CALL.  Missing names read as zero."""
        out = {"layer_calls": Counter(), "layer_self_s": Counter(), "calls": Counter(),
               "true": Counter()}
        for st in self._threads:
            out["layer_calls"].update(st.spans)
            out["layer_self_s"].update(st.self_s)
            out["calls"].update(st.calls)
            out["true"].update(st.true)
        return out
