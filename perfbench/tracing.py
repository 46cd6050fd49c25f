"""Span tracing installed from outside the program, for the traced run.

The tracer replaces a function at every place a caller looks it up: the
module that defines it and every ``nsab`` module that imported it by name
(``nsab.evolution.reconstruct`` as well as ``nsab.field.reconstruct``), or
the class attribute for methods.  Each call records a span (operation,
name, start, end, parent) in memory.  A target whose module or attribute no
longer exists is recorded as absent instead of failing, so the benchmark
keeps working when a later change deletes or renames a layer.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """A function or method to wrap: ``qualname`` is ``f`` or ``Class.f``."""

    module: str
    qualname: str
    span: str
    hook: object = None  # factory returning hook(tracer, args, kwargs, result)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.spans = []  # (op, name index, start, end, parent span index)
        self.counters = defaultdict(float)
        self.absent = []
        self.op = -1
        self._ids = {}
        self._stack = []
        self._patches = []

    def count(self, key, amount=1):
        self.counters[key] += amount

    def wrap(self, span, fn, hook=None):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (self.op, nid, t0, t1, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        for t in targets:
            self._install_one(t)

    def _install_one(self, t):
        try:
            module = importlib.import_module(t.module)
        except ImportError:
            self._mark_absent(t.span)
            return
        owner_name, _, attr = t.qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self._mark_absent(t.span)
            return
        wrapper = self.wrap(t.span, original, t.hook() if t.hook else None)
        if owner_name:
            self._patch(owner, attr, original, wrapper)
            return
        package = t.module.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, key, original, wrapper)

    def _mark_absent(self, span):
        if span not in self.absent:
            self.absent.append(span)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self):
        """Spans and counters as plain data, times in seconds."""
        return {"names": self.names, "absent": self.absent,
                "counters": dict(self.counters),
                "spans": [list(s) for s in self.spans if s is not None]}


class SpanStats:
    """Per-name durations, self times and busy time of recorded spans.

    A span's self time is its duration minus the durations of its direct
    children (calls run one at a time, so children never overlap).  Busy
    time of a set of names counts only spans with no ancestor in the set,
    so nested calls are not counted twice.
    """

    def __init__(self, tracer, ops):
        self.tracer = tracer
        self.ops = set(ops)
        raw = tracer.spans
        child = [0.0] * len(raw)
        for s in raw:
            if s is not None and s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        self._raw = raw
        self._by_name = defaultdict(list)
        for i, s in enumerate(raw):
            if s is not None and s[0] in self.ops:
                d = s[3] - s[2]
                self._by_name[tracer.names[s[1]]].append((i, d, d - child[i]))

    @property
    def n_ops(self):
        return len(self.ops)

    def durations(self, name):
        return [d for _, d, _ in self._by_name.get(name, ())]

    def self_times(self, name):
        return [st for _, _, st in self._by_name.get(name, ())]

    def calls(self, name):
        return len(self._by_name.get(name, ()))

    def busy(self, names):
        ids = {self.tracer.names.index(n) for n in names if n in self.tracer.names}
        total = 0.0
        for n in names:
            for i, d, _ in self._by_name.get(n, ()):
                p = self._raw[i][4]
                while p >= 0 and self._raw[p][1] not in ids:
                    p = self._raw[p][4]
                if p < 0:
                    total += d
        return total
