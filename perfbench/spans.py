"""Outside-in span tracer for moodsig and the arithmetic over its spans.

`Tracer.install` wraps every public function and public method that the
moodsig modules define, and rebinds each name wherever the package looks it
up: in the defining module, in every module that imported it by name (as
`tasks` does with `fit` and `mrsf`, and `cli` with `kde2d` and `emit_plot`)
and in module-level dicts such as `cli.COMMANDS`. Patching only the defining
module would record nothing for callers that imported the name.

Each call becomes one span (name, start, end, parent), kept in memory and
written out once the traced run ends. Layers are the modules; a span's
layer is the first component of its name.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time

LAYERS = ("cli", "tasks", "encode", "sigcore", "forest", "metrics", "spectrum", "synth")


class Tracer:
    """Records one span per call of a wrapped function, in call order."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.kept = {}
        self._stack = [-1]

    def wrap(self, name, fn, keep=None):
        """Return `fn` wrapped so that each call records a span.

        `keep(args, kwargs, result)`, when given, returns an object stored
        under `name` for counting after the run; it must be cheap, since it
        runs inside the caller's span."""
        names, start, end, parent, stack = (
            self.names, self.start, self.end, self.parent, self._stack)
        kept = self.kept.setdefault(name, []) if keep else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if kept is not None:
                kept.append(keep(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package, keep=None):
        """Wrap the public functions and methods of every module of
        `package` and rebind every reference to them inside the package."""
        keep = keep or {}
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, keep.get(name))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{layer}.{attr}.{meth}"
                            setattr(obj, meth, self.wrap(name, fn, keep.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]

    def dump(self):
        """The spans as a JSON-ready document."""
        index = {n: i for i, n in enumerate(dict.fromkeys(self.names))}
        return {
            "names": list(index),
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
            ],
        }


class SpanTree:
    """Spans in start order; a parent always precedes its children."""

    def __init__(self, names, start, end, parent):
        self.names = list(names)
        self.parent = list(parent)
        self.duration = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(self.parent):
            if not -1 <= p < i:
                raise ValueError(f"span {i} has parent {p}, which does not precede it")

    @classmethod
    def load(cls, doc):
        """Inverse of `Tracer.dump`."""
        names = [doc["names"][s[0]] for s in doc["spans"]]
        return cls(names, [s[1] for s in doc["spans"]],
                   [s[2] for s in doc["spans"]], [s[3] for s in doc["spans"]])

    def self_times(self):
        """Each span's duration minus the durations of its direct children.

        Calls are synchronous, so children of one span never overlap and
        their summed duration is the part of the parent they cover."""
        own = list(self.duration)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.duration[i]
        return own

    def layer_self(self):
        """Self time summed per layer (first component of the span name)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, t in zip(self.names, self.self_times()):
            layer = name.partition(".")[0]
            totals[layer] = totals.get(layer, 0.0) + t
        return totals

    def within(self, names):
        """Per span, whether it or one of its ancestors is named in `names`."""
        names = set(names)
        flags = []
        for name, p in zip(self.names, self.parent):
            flags.append(name in names or (p >= 0 and flags[p]))
        return flags

    def inclusive(self, names):
        """Wall time spent inside calls named in `names`, with calls nested
        in another such call (recursion, predict inside predict) counted once."""
        names = set(names)
        inside = self.within(names)
        return sum(
            (d for d, n, p in zip(self.duration, self.names, self.parent)
             if n in names and not (p >= 0 and inside[p])),
            0.0,
        )

    def count(self, names):
        names = set(names)
        return sum(n in names for n in self.names)

    def children_of(self, names):
        """Number of spans whose direct parent is named in `names`."""
        names = set(names)
        return sum(p >= 0 and self.names[p] in names for p in self.parent)

    def self_within(self, names, layer):
        """Self time of `layer` spans inside calls named in `names`."""
        inside = self.within(names)
        return sum(
            (t for t, n, flag in zip(self.self_times(), self.names, inside)
             if flag and n.partition(".")[0] == layer),
            0.0,
        )
