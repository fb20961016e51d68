"""Patching and in-memory spans for timing lmtsim from outside.

``Patches`` swaps functions and methods of lmtsim modules for wrapped
versions and puts the originals back on exit, so no file of the program
changes and an untraced run executes the original code.  ``PhaseClock``
adds up the time of a few coarse calls (set-up, output writing).
``SpanRecorder`` records one span (name, start, end, parent, run id) per
wrapped call in flat arrays and derives inclusive and self times from them.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np


class Patches:
    """Context manager that wraps lmtsim callables and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, target: str, make) -> int:
        """Replace ``target`` of ``module`` by ``make(original)``.

        ``target`` is ``func``, ``Class.method``, or ``*.method`` for every
        class defined in the module that defines ``method`` itself.  Class
        and static methods keep their kind.  Returns how many callables were
        wrapped; a name the module no longer has wraps nothing.
        """
        mod = importlib.import_module(module)
        owner_name, _, attr = target.rpartition(".")
        if owner_name == "*":
            owners = [c for c in vars(mod).values()
                      if isinstance(c, type) and c.__module__ == mod.__name__]
        elif owner_name:
            owners = [getattr(mod, owner_name, None)]
        else:
            owners = [mod]
        wrapped = 0
        for owner in owners:
            raw = vars(owner).get(attr) if owner is not None else None
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            elif callable(raw):
                new = make(raw)
            else:
                continue
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            wrapped += 1
        return wrapped

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class PhaseClock:
    """Seconds spent inside the outermost call of each named phase."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._depth = 0

    def reset(self) -> None:
        self.seconds = {}

    def timer(self, phase: str):
        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                # a hook called from inside another hook is counted once
                if self._depth:
                    return fn(*args, **kwargs)
                self._depth += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[phase] = (self.seconds.get(phase, 0.0)
                                           + perf_counter() - t0)
                    self._depth -= 1
            return timed
        return make


class SpanRecorder:
    """Spans of wrapped calls, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.run_id = 0
        self.reset()

    def reset(self) -> None:
        self.name = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, name_of=None):
        """Wrapper factory recording one span per call.

        ``name_of(args, kwargs)``, when given, returns a suffix that is
        appended to ``name`` (for example the baseline method of a call).
        """
        fixed = None if name_of else self._id(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(self.start)
                self.name.append(fixed if name_of is None
                                 else self._id(f"{name}.{name_of(args, kwargs)}"))
                self.parent.append(self._stack[-1])
                self.run.append(self.run_id)
                self.end.append(0.0)
                self._stack.append(idx)
                self.start.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end[idx] = perf_counter()
                    self._stack.pop()
            return traced
        return make

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - children, minlength=k)
        stats = {n: (int(calls[i]), float(incl[i]), float(own[i]))
                 for i, n in enumerate(self.names)}
        return stats

    def dump(self, path: str) -> None:
        """Write the recorded spans as a NumPy ``.npz`` archive."""
        np.savez(path, span_names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 run=np.frombuffer(self.run, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
