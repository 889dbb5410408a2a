"""Spans around the public functions of every covertsense module.

The wrappers live here, in the benchmark, not in the program.  Each wrapper
is bound in every covertsense module namespace that holds the original, so
calls made inside the package (``link`` calling ``qcrb_ase``, ``qcrb_ase``
calling ``taylor_c2``) are caught as well as calls from the benchmark.

A span records its name, start, end, parent span and op id.  Spans are kept
in memory in flat arrays and written out when the run ends.  A span's self
time is its duration minus the summed duration of its child spans; children
of one span run one after another on the same thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import threading
import time
from array import array
from typing import Any, Callable

#: The modules that do work, in the order they are reported.  ``errors``
#: and ``_constants`` hold no work and are not wrapped.
LAYERS = ("cli", "covertness", "estimation", "link", "scenario", "gaussian", "fock")


def _sweep_attrs(args: tuple, kwargs: dict, rows: Any) -> dict:
    return {"points": len(rows), "valid": sum(1 for row in rows if row.valid)}


def _mc_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    trials = kwargs["trials"] if "trials" in kwargs else args[4]
    return {"trials": int(trials), "workers": int(kwargs.get("workers", 1))}


def _cutoff_attrs(args: tuple, kwargs: dict, residuals: Any) -> dict:
    return {"cutoff": float(residuals["cutoff"])}


#: Work counters read off a call's arguments and result, per span name.
ATTRIBUTES: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "link.sweep_frequency": _sweep_attrs,
    "estimation.simulate_heterodyne_mse": _mc_attrs,
    "fock.oracle_cross_check": _cutoff_attrs,
}


class Tracer:
    """In-memory span store.  Records only while ``op`` is not None."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child_time = array("d")
        self.attrs: dict[int, dict] = {}
        self.op: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name_id: int, parent: int, start: float) -> int:
        with self._lock:
            span = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.op_id.append(self.op)
            self.start.append(start)
            self.end.append(start)
            self.child_time.append(0.0)
        return span

    def _close(self, span: int, parent: int, end: float) -> None:
        self.end[span] = end
        if parent >= 0:
            self.child_time[parent] += end - self.start[span]

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._intern(name)
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            span = self._open(name_id, parent, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(span, parent, time.perf_counter())
            if attributes is not None:
                self.attrs[span] = attributes(args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller (no parent)."""
        span = self._open(self._intern(name), -1, start)
        self._close(span, -1, end)

    # -- transfer between processes and to disk ---------------------------

    def columns(self) -> dict:
        return {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "attrs": {str(span): value for span, value in self.attrs.items()},
        }

    def absorb(self, columns: dict, op: int) -> None:
        """Append spans recorded by another process, under op id ``op``."""
        offset = len(self.start)
        ids = [self._intern(name) for name in columns["names"]]
        for name, parent, start, end in zip(
            columns["name"], columns["parent"], columns["start"], columns["end"]
        ):
            self.name_id.append(ids[name])
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op_id.append(op)
            self.start.append(start)
            self.end.append(end)
            self.child_time.append(0.0)
        for span in range(offset, len(self.start)):
            parent = self.parent[span]
            if parent >= 0:
                self.child_time[parent] += self.end[span] - self.start[span]
        for span, value in columns["attrs"].items():
            self.attrs[int(span) + offset] = value

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            json.dump(self.columns(), handle)

    # -- queries -----------------------------------------------------------

    def by_name(self) -> dict[str, list[int]]:
        """Span ids grouped by span name."""
        groups: dict[str, list[int]] = {name: [] for name in self.names}
        for span, index in enumerate(self.name_id):
            groups[self.names[index]].append(span)
        return groups

    def duration(self, span: int) -> float:
        return self.end[span] - self.start[span]

    def self_time(self, span: int) -> float:
        return self.duration(span) - self.child_time[span]


class Installed:
    """Context manager binding a tracer's wrappers into covertsense modules."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        modules = {
            layer: importlib.import_module(f"covertsense.{layer}") for layer in LAYERS
        }
        wrappers: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self.tracer.wrap(f"{layer}.{attr}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()
