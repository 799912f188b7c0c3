"""Span tracing of the orthofermi modules, installed from outside the package.

:meth:`Tracer.install` replaces every public function of the seven modules by
a wrapper, at every module that binds it: ``osusy.verify``,
``osusy.herm_eig``, ``reptheory.orthonormal_range`` and the names ``cli``
imports get spans as well, and calls through ``cli.ser`` reach the wrapped
``serialize`` functions. A span is ``(id, parent id, op id, name, start,
end)``; spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# By module path: the package's __init__ rebinds ``orthofermi.canonical`` to
# the function of that name, so attribute access would miss the module.
MODULES = tuple(importlib.import_module(f"orthofermi.{name}") for name in
                ("algebra", "canonical", "cli", "linalg", "osusy", "reptheory", "serialize"))
_NAMES = {m.__name__ for m in MODULES}


def _max_abs_bytes(counters, args, kwargs, result):
    counters["linalg.max_abs.bytes"] += np.asarray(args[0]).nbytes


def _read_bytes(counters, args, kwargs, result):
    counters["serialize.read.bytes"] += os.path.getsize(args[0])


def _write_bytes(counters, args, kwargs, result):
    counters["serialize.write.bytes"] += os.path.getsize(args[1])


def _clusters(counters, args, kwargs, result):
    counters["osusy.clusters"] += len(result.energies)


#: Counters beyond call counts, taken from a function's arguments or result.
#: Byte counts are computed from array and file sizes.
HOOKS = {
    "linalg.max_abs": _max_abs_bytes,
    "serialize.load_json": _read_bytes,
    "serialize.dump_json": _write_bytes,
    "osusy.spectral": _clusters,
}


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op_id = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        targets = [(module, name, obj) for module in MODULES for name, obj in vars(module).items()
                   if isinstance(obj, types.FunctionType) and not name.startswith("_")
                   and obj.__module__ in _NAMES]
        for module, name, fn in targets:
            setattr(module, name, self._wrap(fn))
        self._saved = targets

    def uninstall(self) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved = []

    def _wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = HOOKS.get(label)
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, self.op_id, label, start, end))
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans}, fh)


def span_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-function ``.s``, ``.self_s`` and ``.calls`` plus ``cli.self_s``.

    ``.s`` adds the durations of the calls that are not nested inside a call
    of the same function; ``.self_s`` subtracts from each span the time its
    child spans cover. ``cli.self_s`` is the self time of every ``cli`` span:
    ``main`` minus the spans of the other modules.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for span_id, parent, _, name, start, end in spans:
        out[f"{name}.calls"] += 1
        self_s = end - start - child_time[span_id]
        out[f"{name}.self_s"] += self_s
        if name.startswith("cli."):
            out["cli.self_s"] += self_s
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[3] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            out[f"{name}.s"] += end - start
    return dict(out)
