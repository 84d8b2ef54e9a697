"""Span tracer for the wreathz layer modules, installed from outside `src/`.

`Tracer.install` wraps every public function and method defined in the six
layer modules (`wreath`, `trees`, `vectors`, `embeddings`, `oracles`,
`compression`) and rebinds each wrapped function in every imported `wreathz`
module namespace that holds it, so calls between modules are timed too.
`Tracer.uninstall` puts every original object back.

"Public" means a name without a leading underscore, or a dunder written in
the module's own source (so `SparseVector.__add__` and `WreathElement.__mul__`
count, while dataclass-generated `__eq__`/`__hash__` do not).  Generator
functions are left alone: a wrapper would only time the generator's creation.

Spans nest through an explicit stack.  A span's self time is its duration
minus the durations of its direct child spans, so the self times of all
spans add up to at most the time the outermost spans cover.  Only aggregates
are kept unless the caller passes a `spans` list to collect every closed
span as `(key, inclusive_s, self_s)`.
"""

from __future__ import annotations

import functools
import inspect
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

LAYERS = ("wreath", "trees", "vectors", "embeddings", "oracles", "compression")


@dataclass
class FnStat:
    """Aggregate of the spans of one wrapped function."""

    layer: str
    fn: Callable
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0  # outermost calls only, so recursion is not counted twice
    depth: int = 0


def _add_len(counter: str):
    def hook(tracer: "Tracer", args, kwargs, result):
        tracer.counters[counter] += len(result)

    return hook


def _add_result(counter: str):
    def hook(tracer: "Tracer", args, kwargs, result):
        tracer.counters[counter] += result

    return hook


def _keep_sample_call(tracer: "Tracer", args, kwargs, result):
    tracer.sample_calls.append((args, kwargs))


# Counters that need the call's result or arguments, keyed like FnStat keys.
HOOKS = {
    "embeddings.cocycle": _add_len("embeddings.cocycle_coords"),
    "embeddings.sigma": _add_len("embeddings.sigma_coords"),
    "trees.geodesic": _add_len("trees.geodesic_vertices"),
    "oracles.cayley_bfs": _add_len("oracles.cayley_elements"),
    "oracles.tree_bfs_dist": _add_result("oracles.tree_bfs_dist_sum"),
    "compression.sample_pairs": _keep_sample_call,
}


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def wreathz_modules() -> dict:
    """Every imported module of the wreathz package, by name."""
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == "wreathz" or name.startswith("wreathz.")
    }


class Tracer:
    """Wraps the layer modules while installed; records spans while `recording`."""

    def __init__(self, spans: list | None = None):
        self.stats: dict[str, FnStat] = {}
        self.counters: Counter = Counter()
        self.sample_calls: list = []
        self.spans = spans
        self.recording = False
        self._stack: list[list[float]] = []
        self._wrappers: dict[Callable, Callable] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- wrapping --------------------------------------------------------

    def _wrapped(self, fn: Callable, key: str, layer: str) -> Callable:
        """One wrapper per original function, so aliases such as
        `__rmul__ = __mul__` share it."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        stat = self.stats.setdefault(key, FnStat(layer, fn))
        hook = HOOKS.get(key)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            outer = stat.depth == 0
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stack.pop()
                own = elapsed - frame[0]
                stat.calls += 1
                stat.self_s += own
                if outer:
                    stat.inclusive_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if tracer.spans is not None:
                    tracer.spans.append((key, elapsed, own))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        self._wrappers[fn] = traced
        return traced

    def _wrapped_attr(self, desc, key: str, layer: str, source: str):
        """Wrapped replacement for a class attribute, or None to leave it."""

        def ours(fn) -> bool:
            return (
                inspect.isfunction(fn)
                and fn.__code__.co_filename == source
                and not inspect.isgeneratorfunction(fn)
            )

        if isinstance(desc, (classmethod, staticmethod)):
            return type(desc)(self._wrapped(desc.__func__, key, layer)) if ours(desc.__func__) else None
        if isinstance(desc, property):
            if not ours(desc.fget):
                return None
            return property(self._wrapped(desc.fget, key, layer), desc.fset, desc.fdel, desc.__doc__)
        return self._wrapped(desc, key, layer) if ours(desc) else None

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = wreathz_modules()
        for layer in LAYERS:
            mod = modules[f"wreathz.{layer}"]
            for name, obj in list(vars(mod).items()):
                if not _public(name) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    self._wrapped(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    for attr, desc in list(vars(obj).items()):
                        if not _public(attr):
                            continue
                        new = self._wrapped_attr(desc, f"{layer}.{name}.{attr}", layer, mod.__file__)
                        if new is not None:
                            self._patches.append((obj, attr, desc))
                            setattr(obj, attr, new)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, self._wrappers[obj])

    def uninstall(self):
        self.recording = False
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    # --- results ---------------------------------------------------------

    def _inclusive(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.inclusive_s if stat else 0.0

    def _calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def walk_steps(self) -> int:
        """Total random-walk length of the recorded `sample_pairs` calls,
        replaying the documented first draw of each per-index generator."""
        if not self.sample_calls:
            return 0
        signature = inspect.signature(self.stats["compression.sample_pairs"].fn)
        total = 0
        for args, kwargs in self.sample_calls:
            arguments = signature.bind(*args, **kwargs).arguments
            scale, count, seed = arguments["scale"], arguments["count"], arguments["seed"]
            total += sum(random.Random(f"{seed}/{i}").randrange(scale + 1) for i in range(count))
        return total

    def metrics(self, wall: float, scale: float = 1.0, overhead: float = 1.0) -> dict[str, float]:
        """Per-layer metrics over the recorded spans.  `wall` is the traced
        wall-clock time.  Times are multiplied by `scale` (rates divided) to
        put them at the runner's reference speed; `overhead` is the traced
        over the untraced time of the same rounds."""

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in self.stats.values() if s.layer == layer]
            self_s = sum(s.self_s for s in mine)
            out[f"{layer}.calls"] = sum(s.calls for s in mine)
            out[f"{layer}.self_s"] = self_s * scale
            out[f"{layer}.self_share"] = ratio(self_s, wall)
        steps = self.walk_steps()
        out["compression.walk_steps"] = steps
        out["compression.walk_steps_per_s"] = ratio(steps, self._inclusive("compression.sample_pairs") * scale)
        out["oracles.tree_bfs_calls"] = self._calls("oracles.tree_bfs_dist")
        out["oracles.tree_bfs_s"] = self._inclusive("oracles.tree_bfs_dist") * scale
        out["oracles.tree_bfs_dist_sum"] = self.counters["oracles.tree_bfs_dist_sum"]
        elements = self.counters["oracles.cayley_elements"]
        out["oracles.cayley_elements"] = elements
        out["oracles.cayley_elements_per_s"] = ratio(elements, self._inclusive("oracles.cayley_bfs") * scale)
        out["oracles.properness_s"] = self._inclusive("oracles.properness_cross_check") * scale
        out["embeddings.cocycle_coords"] = self.counters["embeddings.cocycle_coords"]
        out["embeddings.sigma_coords"] = self.counters["embeddings.sigma_coords"]
        out["trees.geodesic_vertices"] = self.counters["trees.geodesic_vertices"]
        mul = "wreath.WreathElement.__mul__"
        out["wreath.mul_calls"] = self._calls(mul)
        out["wreath.mul_us"] = 1e6 * scale * ratio(self._inclusive(mul), self._calls(mul))
        out["vectors.add_calls"] = self._calls("vectors.SparseVector.__add__")
        out["vectors.eq_calls"] = self._calls("vectors.SparseVector.__eq__")
        out["trace_overhead"] = overhead
        return out
