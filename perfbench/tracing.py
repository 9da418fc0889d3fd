"""Span tracing from outside the package under test.

`Tracer.install` wraps chosen functions and methods of a package.  A function
is replaced in every module of the package that binds it, not only in its
home module: ``from .partition_counts import log_partitions`` copies the
function object into ``microcanonical``'s namespace, so patching
``partition_counts.log_partitions`` alone would miss every call made through
that copy.  Methods are patched once, on their class.

Each call records a span: its name, start, end and the index of the
enclosing traced span (-1 at the top).  Spans stay in flat arrays while the
program runs and are written to one ``.npz`` file when the run ends.  The
program is single-threaded, so spans nest properly and a top-level span's
descendants are the spans recorded after it and before the next top-level
span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording a span per call; `observe(counters, args, kwargs,
        result)` runs after each call that returns."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, entries) -> None:
        """Wrap each ``(qualname, observe)`` entry, where qualname is
        ``module.function`` or ``module.Class.method`` relative to `package`.
        Entries whose target does not exist are listed in `missing`."""
        for qualname, observe in entries:
            modname, _, attr = qualname.partition(".")
            try:
                home = importlib.import_module(f"{package}.{modname}")
            except ImportError:
                self.missing.append(qualname)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    self.missing.append(qualname)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self.wrap(qualname, raw.__func__, observe))
                else:
                    patched = self.wrap(qualname, raw, observe)
                setattr(cls, meth, patched)
                self._restore.append((cls, meth, raw))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(qualname)
                continue
            traced = self.wrap(qualname, fn, observe)
            for module in _package_modules(package):
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, binding, traced)
                        self._restore.append((module, binding, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.asarray(self.names, dtype=str),
            name=np.frombuffer(self._name, dtype=np.intc),
            parent=np.frombuffer(self._parent, dtype=np.intc),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            counters=np.asarray(json.dumps(self.counters)),
            missing=np.asarray(json.dumps(self.missing)),
        )


def _package_modules(package: str):
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))]


class Spans:
    """Spans loaded from a tracer's file, with durations and self times."""

    def __init__(self, names, name, parent, start, end, counters=None):
        self.names = [str(n) for n in names]
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        self.counters = counters or {}
        n = len(self.name)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.duration[has_parent], minlength=n)
        # a span's self time is its duration minus what its children cover
        self.self_time = self.duration - covered[:n]
        # index of the top-level span each span descends from
        self.root = np.flatnonzero(~has_parent)[np.cumsum(~has_parent) - 1] \
            if n else np.zeros(0, dtype=np.int64)

    @classmethod
    def load(cls, path: str) -> "Spans":
        with np.load(path) as data:
            return cls(data["names"], data["name"], data["parent"],
                       data["start"], data["end"],
                       json.loads(str(data["counters"])))

    def name_id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def under(self, root_name: str) -> np.ndarray:
        """Mask of the spans inside top-level spans called `root_name`,
        those top-level spans included."""
        roots = self.name[self.root] if len(self.name) else self.name
        return roots == self.name_id(root_name)

    def select(self, name: str, mask=None, parent: str | None = None) -> np.ndarray:
        """Mask of the spans called `name` (within `mask`, and whose
        enclosing span is called `parent` when given)."""
        sel = self.name == self.name_id(name)
        if mask is not None:
            sel &= mask
        if parent is not None:
            has = self.parent >= 0
            parent_name = np.full(len(self.name), -1)
            parent_name[has] = self.name[self.parent[has]]
            sel &= parent_name == self.name_id(parent)
        return sel
