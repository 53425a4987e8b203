"""Per-layer spans recorded from outside the package.

A layer is one module of ``catalan_stanley``.  ``Tracer.install`` wraps every
public function of each layer (the names in the module's ``__all__``, or its
public callables where it has none) and the public methods of its public
classes, and rebinds each wrapper at every binding site in the package:
``from .x import f`` in another module makes a second binding that internal
calls go through, and missing it would drop their spans.  ``uninstall``
puts every original back.

A call opens a span only when it crosses into the layer from outside it;
calls inside the same layer run unwrapped.  A layer's ``busy_s`` is the time
during which any of its spans is open, its ``self_s`` the time during which
one of its spans is the innermost open span, and ``calls`` the number of
spans.  Counters are read from the values that cross the boundary.
Everything stays in memory and is summarised by ``metrics``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from collections.abc import Iterator

PACKAGE = "catalan_stanley"
LAYERS = ("tree", "enumeration", "series", "stats", "asymptotics", "verify", "cli")
COUNTERS = (
    "enumeration.trees_out",
    "enumeration.draws_out",
    "series.terms_out",
    "stats.pmf_entries",
    "cli.bytes_out",
    "cli.failed",
    "verify.checks",
    "verify.failed",
)
# Dunder methods that do a layer's work when called from another layer.
_WRAPPED_DUNDERS = ("__eq__", "__hash__", "__next__")


def metric_names() -> list[str]:
    names = [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "busy_s", "self_s")]
    return names + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.stack: list[str] = []
        self.calls: Counter = Counter()
        self.busy_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._opened: dict[str, float] = {}
        self._mark = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._series_types: tuple[type, ...] = ()
        self._table_type: type | tuple = ()

    # --- spans ----------------------------------------------------------

    def _enter(self, layer: str) -> None:
        now = time.perf_counter()
        if self.stack:
            self.self_s[self.stack[-1]] += now - self._mark
        self._mark = now
        self.stack.append(layer)
        self.calls[layer] += 1
        if not self._depth[layer]:
            self._opened[layer] = now
        self._depth[layer] += 1

    def _exit(self, layer: str) -> None:
        now = time.perf_counter()
        self.self_s[layer] += now - self._mark
        self._mark = now
        self.stack.pop()
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.busy_s[layer] += now - self._opened[layer]

    def _wrap(self, layer: str, name: str, fn):
        stack = self.stack
        count = self._counter_for(layer, name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1] == layer:
                return fn(*args, **kwargs)
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, kwargs, result)
                if isinstance(result, Iterator):
                    result = _LayerIterator(self, layer, result)
                return result
            except Exception:
                if layer == "cli":
                    self.counts["cli.failed"] += 1
                raise
            finally:
                self._exit(layer)

        return span

    # --- counters -------------------------------------------------------
    # Each runs inside the span it counts for, so any call it makes into the
    # same layer is unwrapped.

    def _counter_for(self, layer: str, name: str):
        counts = self.counts
        if layer == "enumeration":
            if name.endswith("__next__"):
                return lambda a, k, res: counts.update({"enumeration.trees_out": 1})
            if name == "plane_trees":
                return lambda a, k, res: counts.update({"enumeration.trees_out": len(res)})
            if name == "sample_tree":
                return lambda a, k, res: counts.update({"enumeration.draws_out": 1})
            if name in ("sample_trees", "sample_reduced_sizes"):
                return lambda a, k, res: counts.update({"enumeration.draws_out": len(res)})
        if layer == "series":
            return self._count_terms
        if layer == "stats":
            return self._count_pmf
        if layer == "verify" and name == "run_verification":
            return lambda a, k, res: counts.update(
                {"verify.checks": len(res.checks), "verify.failed": res.num_failed}
            )
        if layer == "cli" and name == "run":
            return self._count_cli
        return None

    def _count_terms(self, args, kwargs, result) -> None:
        if isinstance(result, self._series_types):
            if hasattr(result, "items"):
                terms = len(result.items())
            else:
                terms = sum(1 for c in result.coefficients() if c)
            self.counts["series.terms_out"] += terms

    def _count_pmf(self, args, kwargs, result) -> None:
        if isinstance(result, self._table_type):
            self.counts["stats.pmf_entries"] += len(result.support)

    def _count_cli(self, args, kwargs, status) -> None:
        # every op hands cli.run a fresh buffer, and the output is ASCII
        out = kwargs.get("out", args[1] if len(args) > 1 else None)
        if out is not None:
            self.counts["cli.bytes_out"] += out.tell()
        if status != 0:
            self.counts["cli.failed"] += 1

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        # counters for types a later version may drop simply stay at 0
        series = modules[f"{PACKAGE}.series"]
        self._series_types = tuple(
            getattr(series, name)
            for name in ("TruncatedSeries", "BivariateSeries")
            if hasattr(series, name)
        )
        self._table_type = getattr(modules[f"{PACKAGE}.stats"], "DistributionTable", ())
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = modules[f"{PACKAGE}.{layer}"]
            for name in _public_names(module):
                obj = getattr(module, name)
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__:
                        self._wrap_methods(layer, obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, value, hit[1])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _WRAPPED_DUNDERS:
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(layer, label, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, label, attr)
            else:  # properties, slots, data
                continue
            self._rebind(cls, name, attr, wrapped)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy_s[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out


class _LayerIterator:
    """Iterator returned from a layer: each step is a span of that layer."""

    def __init__(self, tracer: Tracer, layer: str, inner: Iterator):
        self._tracer, self._layer, self._inner = tracer, layer, inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer, layer = self._tracer, self._layer
        if tracer.stack and tracer.stack[-1] == layer:
            return next(self._inner)
        tracer._enter(layer)
        try:
            item = next(self._inner)
        finally:
            tracer._exit(layer)
        if layer == "enumeration":
            tracer.counts["enumeration.trees_out"] += 1
        return item


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    ]
