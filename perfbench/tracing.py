"""In-memory span tracer for the public functions of the flatsic package.

`Tracer.install()` replaces every public function defined in a flatsic module
with a wrapper, both at the module attribute and at every binding another
flatsic module made with `from ... import` (for example `cli.is_sic`,
`verify.apply_displacement`, `legendre.x_overlap_residual`).  Module-global
calls such as `search.objective` inside `search.minimize` go through the
replaced attribute, so they are traced too.  `uninstall()` restores the
originals.

Functions named in `count_only` are counted but record no span: they run
d^2 times per table, and a span each would swamp the work they do.  Every
other call records one span (function, parent span, start, end) in flat
arrays; the harness adds one root span per operation, so all spans of one
operation share that root.  Busy and self time are derived from the spans
afterwards: a span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("weyl", "ansatz", "verify", "legendre", "polysys", "search", "vectorio", "cli")


class Tracer:
    def __init__(self, count_only=(), probes=None):
        """count_only: qualified names ("weyl.tau_power") or whole modules
        ("weyl"); probes: qualified name -> f(args, result) returning a dict
        of counter increments, called after each traced call."""
        self.count_only = set(count_only)
        self.probes = dict(probes or {})
        self.names: list[str] = []
        self.calls: list[int] = []
        self.counters: dict[str, float] = {}
        self.fn = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._wrappers: dict[int, object] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _fn_index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, index: int) -> int:
        span = len(self.start)
        self.fn.append(index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(span)
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself, such as one operation."""
        index = self.names.index(name) if name in self.names else self._fn_index(name)
        self.calls[index] += 1
        span = self._open(index)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, qualname: str, func):
        index = self._fn_index(qualname)
        calls = self.calls
        module = qualname.split(".")[0]
        if qualname in self.count_only or module in self.count_only:

            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[index] += 1
                return func(*args, **kwargs)

            return counted
        probe = self.probes.get(qualname)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[index] += 1
            span = self._open(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                for key, inc in probe(args, result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
            return result

        return traced

    def install(self) -> None:
        """Patch the wrappers in; they are built on the first call only, so
        calls and spans accumulate over several install/uninstall cycles."""
        package = importlib.import_module("flatsic")
        modules = {name: importlib.import_module(f"flatsic.{name}") for name in MODULES}
        if self._wrappers is None:
            self._wrappers = {}
            for name, module in modules.items():
                for attr, obj in vars(module).items():
                    if (
                        not attr.startswith("_")
                        and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                    ):
                        self._wrappers[id(obj)] = self._wrap(f"{name}.{attr}", obj)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, busy_s (sum of span durations) and self_s."""
        fn = np.asarray(self.fn, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        busy = np.bincount(fn, weights=dur, minlength=n)
        own = np.bincount(fn, weights=dur - child, minlength=n)
        return {
            name: {"calls": self.calls[i], "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON columns."""
        payload = {
            "names": self.names,
            "fn": list(self.fn),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)
