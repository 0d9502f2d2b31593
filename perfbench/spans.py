"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``aparam`` layer at every
name an ``aparam`` module binds them under.  The modules use
``from .x import f`` bindings and call their own functions through module
globals, so patching each module's namespace catches both cross-layer and
same-layer calls.  Nothing in the package itself changes.

A span is (name, start, end, parent, item id).  A span's self time is its
duration minus the durations of its children; because spans nest strictly,
the self times of all spans add up to the durations of the root spans, which
are the benchmark's item spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("repcore", "relevance", "lfun", "globlfun", "chars", "glbranch", "cli")
BENCH = "bench"  # the benchmark's own code: item glue and counter hooks


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_id = -1
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str, layer: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return idx

    def open(self, name_idx: int) -> int:
        i = len(self.start)
        self.fn.append(name_idx)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, hook):
        idx = self.name_id(f"{layer}.{fn.__name__}", layer)
        hook_idx = self.name_id(f"{BENCH}.hook", BENCH)
        calls = f"{layer}.calls"
        counts, open_, close = self.counts, self.open, self.close

        def run_hook(value):
            # counting can cost as much as a small call: charge it to the bench
            j = open_(hook_idx)
            hook(self, value)
            close(j)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                counts[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = open_(idx)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    if hook:
                        run_hook(value)
                    yield value

            return gen_wrapper

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            i = open_(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook:
                run_hook(result)
            return result

        return wrapper

    def install(self, hooks: dict[str, object]) -> None:
        """Wrap every public function of every layer; ``hooks`` maps names to counters."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"aparam.{layer}"]
            for name, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(value)] = self._wrap(value, layer, hooks.get(f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "aparam" and not modname.startswith("aparam."):
                continue
            for name, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """Self time per layer and per span name, and the summed root duration."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            d = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            else:
                root += d
        by_name = [0.0] * len(self.names)
        fn = self.fn
        for i in range(n):
            by_name[fn[i]] += end[i] - start[i] - child[i]
        per_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS + (BENCH,)}
        per_name: dict[str, float] = {}
        for k, t in enumerate(by_name):
            per_layer[self.layer_of[k]] += t
            per_name[self.names[k]] = t
        return per_layer, per_name, root

    def write(self, path, limit: int) -> int:
        """Write the first ``limit`` spans as tab-separated text; return how many."""
        n = min(limit, len(self.start))
        t0 = self.start[0] if n else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\titem\tname\tstart_us\tend_us\n")
            for i in range(n):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.item[i]}\t{self.names[self.fn[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )
        return n
