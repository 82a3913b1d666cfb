"""Spans around calls into cgru's modules, installed from outside the package.

A `Tracer` records, for every wrapped call, its inclusive time, its self
time (duration minus the part of its interval that child spans cover) and
the counts its target declares. `patch()` installs a wrapper under every
name the original function is reachable by: its defining module, every
cgru module that imported it with `from ... import`, and the module
attribute that function-local imports and `module.name` lookups read. The
returned `Patch` puts every original back.

Spans live in memory. Each thread keeps its own stack; a shard that
`rng.run_sharded` hands to a worker thread adopts the `run_sharded` span as
its parent, so threaded children still count against the right interval.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

WRAPPED_MARK = "__perfbench_wrapped__"


class _Frame:
    __slots__ = ("children",)

    def __init__(self):
        self.children = []      # (start, end) of each direct child span


def covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    total = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    return total + (cur_hi - cur_lo)


class Tracer:
    """Aggregates spans by name: calls, inclusive seconds, self seconds and
    any counts the span's target reports."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, name: str, incl: float, self_s: float, counts: dict) -> None:
        with self._lock:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            st["calls"] += 1
            st["incl_s"] += incl
            st["self_s"] += self_s
            for key, val in counts.items():
                st[key] = st.get(key, 0) + val

    def call(self, name: str, fn, args, kwargs, count=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame()
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if parent is not None:
                parent.children.append((start, end))
        self.record(name, end - start, (end - start) - covered(frame.children),
                    count(args, kwargs, result) if count else {})
        return result

    def adopt(self, frame, fn):
        """Wrap a shard callback so spans it opens in a worker thread have
        `frame` as their parent; on the calling thread nothing changes."""
        def shard(*args, **kwargs):
            self.record_count("rng.run_sharded", "shards", 1)
            stack = self._stack()
            if stack:
                return fn(*args, **kwargs)
            self._local.stack = [frame]
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = []
        return shard

    def record_count(self, name: str, key: str, val) -> None:
        with self._lock:
            st = self.stats.setdefault(
                name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            st[key] = st.get(key, 0) + val


def _cgru_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cgru" or name.startswith("cgru."))]


class Patch:
    """Replaced bindings; `restore()` puts the originals back."""

    def __init__(self):
        self._bindings = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> None:
        home = sys.modules[module_name]
        original = getattr(home, attr)
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, WRAPPED_MARK, True)
        for mod in _cgru_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._bindings.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        while self._bindings:
            mod, key, original = self._bindings.pop()
            setattr(mod, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def installed_wrappers() -> list:
    """Names of every wrapper still bound in a cgru module."""
    return sorted(f"{mod.__name__}.{key}" for mod in _cgru_modules()
                  for key, val in vars(mod).items()
                  if getattr(val, WRAPPED_MARK, False))


def span_wrapper(tracer: Tracer, name, count=None):
    """Wrapper factory for Patch.replace: one span per call. `name` is a
    string or a function of (args, kwargs) giving the span name."""
    def make(original):
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return tracer.call(span, original, args, kwargs, count)
        return wrapper
    return make


def sharded_wrapper(tracer: Tracer, name: str):
    """Wrapper factory for rng.run_sharded: its shards adopt its span."""
    def make(original):
        def wrapper(fn, n, *args, **kwargs):
            def run(fn, n, *args, **kwargs):
                return original(tracer.adopt(tracer.current(), fn), n,
                                *args, **kwargs)
            return tracer.call(name, run, (fn, n) + args, kwargs)
        return wrapper
    return make
