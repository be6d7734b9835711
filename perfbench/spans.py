"""In-memory span tracer that wraps pentabell's public functions.

Every call to a wrapped function records one span: function, start, end,
parent span and operation id.  Spans stay in memory until the run ends;
`summary()` reduces them to call counts, inclusive time and self time per
function, and `write()` stores the raw spans as an .npz file.

Functions are wrapped at every import site (a module attribute that is the
same function object), because several modules bind names directly, e.g.
`theta.project_psd` and `simkit.behavior_of`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "pentabell"
LAYERS = ("numerics", "graphs", "theta", "scenarios", "quantum", "simkit", "cli")


class Tracer:
    """Span recorder.

    `counters` maps a wrapped function name ("theta.lovasz_theta") to a
    callable (arguments, result, exception) -> {counter: increment}, so
    work counts are taken at the same boundary as the span.
    """

    def __init__(self, counters=None):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.current_op = -1
        self._stack = [-1]
        self._counters = counters or {}
        self._patched = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name, fn):
        nid = self._id(name)
        counter = self._counters.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(nid)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self._exit(idx)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, inc in counter(bound.arguments, result, error).items():
                        self.counts[key] = self.counts.get(key, 0) + inc

        return wrapper

    def install(self):
        """Replace every public function of the layers at all import sites."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}}; self time is the span's
        duration minus the time its child spans cover."""
        k = len(self.names)
        if not len(self.start):
            return {}
        ids, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        ids, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int32),
            start=start,
            end=end,
        )
