"""Span tracer that wraps a package's public functions from the outside.

`Tracer.install` replaces every public function of the given modules, and the
hand-written constructor of every public non-dataclass class, with a wrapper
that records one span per call: (name, start, end, parent). Because modules
bind names such as ``forward_batch`` at import, the wrapper is written into
every module namespace that holds the original object, not only the defining
one. Spans stay in memory (flat arrays) until the run ends.

A span's self time is its duration minus the durations of its direct child
spans. A *folded* span records no children: every call made under it counts
in its own self time. The benchmark folds dataset generation and artifact
writing so that each reads as one layer.

The tracer never changes arguments or results, so a traced run computes the
same bytes as an untraced one.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from array import array

NO_PARENT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [NO_PARENT]
        self._fold_idx = None
        self._stopped = False

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @property
    def recording(self) -> bool:
        return self._fold_idx is None and not self._stopped

    def open(self, name: str, fold: bool = False) -> int:
        """Start a span as a child of the innermost open span."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(idx)
        if fold:
            self._fold_idx = idx
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        """End span `idx`, and any span a callee left open inside it."""
        now = self.clock()
        while True:
            top = self._stack.pop()
            self.end[top] = now
            if top == self._fold_idx:
                self._fold_idx = None
            if top == idx:
                return

    def stop(self) -> None:
        """Stop recording; wrappers pass calls straight through from now on."""
        if len(self._stack) != 1:
            raise RuntimeError("tracer stopped with %d open spans" % (len(self._stack) - 1))
        self._stopped = True

    def wrap(self, fn, name: str, fold: bool = False, probe=None):
        """A wrapper that records a span named `name` around each call of fn.

        `probe(counters, args, kwargs)` runs before the span opens, so its
        cost lands in the caller's self time rather than in fn's.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(tracer.counters, args, kwargs)
            idx = tracer.open(name, fold)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, modules, rename=None, fold=(), probes=None) -> dict:
        """Wrap the public callables of `modules` and patch every namespace.

        Span names are ``<module>.<function>``, with the module's last dotted
        component. `rename` maps such a name to another span name and also
        selects private functions to wrap; `fold` and `probes` are keyed by
        the final span name. Returns {span name: number of namespaces patched}.
        """
        rename = dict(rename or {})
        probes = dict(probes or {})
        wrappers = {}  # id(original) -> (original, wrapper, span name)
        patched: dict[str, int] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (short, attr)
                if attr.startswith("_") and qual not in rename:
                    continue
                span = rename.get(qual, qual)
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(obj, span, span in fold,
                                                        probes.get(span)), span)
                elif (inspect.isclass(obj) and "__init__" in vars(obj)
                      and not dataclasses.is_dataclass(obj)
                      and not issubclass(obj, BaseException)):
                    init = vars(obj)["__init__"]
                    setattr(obj, "__init__",
                            self.wrap(init, span, span in fold, probes.get(span)))
                    patched[span] = 1
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    patched[entry[2]] = patched.get(entry[2], 0) + 1
        return patched

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """{span name: {"calls": n, "self_s": seconds}}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if dur[i] != dur[i]:
                raise RuntimeError("span %s never closed" % self.names[self.name_id[i]])
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.name_id[i]], {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path) -> None:
        """Write the raw spans: a header line of names, then one line per
        span as `name_id parent start end`."""
        with open(path, "w") as fh:
            fh.write("\t".join(self.names) + "\n")
            for i in range(len(self.start)):
                fh.write("%d %d %r %r\n" % (self.name_id[i], self.parent[i],
                                            self.start[i], self.end[i]))
