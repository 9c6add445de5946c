"""Per-layer call counts and self times for the zdgame modules.

``install()`` wraps every module-level function that a layer module
defines, in every ``zdgame`` namespace and module-level dict that binds
it, so calls through ``from .payoffs import _cofactors`` or through a
dispatch table are counted too.  It also counts constructions of the
record types named in ``COUNTED_TYPES``.

A sweep makes ~10^7 wrapped calls, too many to keep one span each, so the
spans are folded in memory as they close: per function its calls, calls
that raised, inclusive time and self time (inclusive time minus the
inclusive time of the wrapped calls it made), and per caller -> callee
edge its calls.  ``Tracer.write`` stores them as JSON at the end.
Times include the wrappers' own cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "adaptive", "gradients", "payoffs", "zd", "tables", "verify", "game", "_linalg")
COUNTED_TYPES = (("adaptive", "PathStep"), ("tables", "CellReport"))
OUTSIDE = -1  # caller index of calls made from outside the wrapped functions


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.edges: dict[tuple[int, int], int] = {}
        self.made: dict[str, int] = {}
        self._stack = [OUTSIDE]
        self._child = [0.0]

    def wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        for column in (self.calls, self.raised):
            column.append(0)
        for column in (self.self_s, self.total_s):
            column.append(0.0)
        calls, raised, self_s, total_s = self.calls, self.raised, self.self_s, self.total_s
        edges, stack, child = self.edges, self._stack, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (stack[-1], idx)
            edges[key] = edges.get(key, 0) + 1
            stack.append(idx)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[idx] += elapsed - child.pop()
                total_s[idx] += elapsed
                child[-1] += elapsed
                calls[idx] += 1

        return traced

    def counted(self, cls, name: str):
        made = self.made
        made[name] = 0

        class Counted(cls):
            __slots__ = ()

            def __new__(klass, *args, **kwargs):
                made[name] += 1
                return super().__new__(klass, *args, **kwargs)

        Counted.__name__ = cls.__name__
        Counted.__qualname__ = cls.__qualname__
        return Counted

    def report(self) -> dict:
        return {
            "functions": [
                {"name": n, "calls": c, "raised": r, "self_s": s, "total_s": t}
                for n, c, r, s, t in zip(self.names, self.calls, self.raised,
                                         self.self_s, self.total_s)
            ],
            "edges": [
                {"caller": self.names[a] if a != OUTSIDE else None, "callee": self.names[b],
                 "calls": n}
                for (a, b), n in sorted(self.edges.items())
            ],
            "made": self.made,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.report(), fh)


def install() -> Tracer:
    """Wrap the layer functions of the imported zdgame package in place."""
    tracer = Tracer()
    replace = {}
    for layer in LAYERS:
        module = importlib.import_module(f"zdgame.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and id(obj) not in replace:
                replace[id(obj)] = tracer.wrap(obj, f"{layer}.{name}")
    for layer, name in COUNTED_TYPES:
        cls = getattr(importlib.import_module(f"zdgame.{layer}"), name, None)
        if cls is not None:
            replace[id(cls)] = tracer.counted(cls, f"{layer}.{name}")
    namespaces = [m for n, m in list(sys.modules.items()) if n == "zdgame" or n.startswith("zdgame.")]
    for module in namespaces:
        for table in [vars(module)] + [v for v in vars(module).values() if type(v) is dict]:
            for key, value in list(table.items()):
                if id(value) in replace:
                    table[key] = replace[id(value)]
    return tracer
