"""In-memory span recorder that wraps module-level functions by name.

Callers inside spinboson look functions up in their own module's namespace
(``experiments`` calls ``classical_correlation_batch`` through its own
import), so a layer is traced by replacing the name in every namespace its
callers use.  A target that no longer exists is recorded as missing and its
layer reports zero calls; the run goes on.

Spans hold (name, start, end, parent, count) in flat arrays and are written
out once, when the run ends.  The program is driven from one thread, so a
stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.count = array("d")
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def install(self, layer: str, target: str, count=None) -> bool:
        """Wrap ``module.attr`` named by ``target`` so each call is a ``layer`` span.

        ``count(args, result)`` gives the work done by one call (states,
        matrices, bytes); a count that cannot be read is recorded as 0.
        """
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        if not callable(original):
            self.missing.append(target)
            return False

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.finish(idx)
            if count is not None:
                try:
                    self.count[idx] = float(count(args, result))
                except (TypeError, IndexError, KeyError, AttributeError, ValueError, OSError):
                    pass
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))
        return True

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "count": np.frombuffer(self.count, dtype=float),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def layer_totals(spans: dict, root: str) -> list[dict]:
    """Per-layer totals for each ``root`` span (one per operation).

    For every layer: ``calls``, ``count`` (summed), ``busy`` (the time
    covered by its spans, nested calls of the same layer counted once) and
    ``self`` (busy minus the time of its direct child spans).
    """
    names = list(spans["names"])
    name = np.asarray(spans["name"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    start = np.asarray(spans["start"])
    end = np.asarray(spans["end"])
    count = np.asarray(spans["count"])
    if root not in names:
        return []
    root_id = names.index(root)
    roots = np.flatnonzero(name == root_id)
    dur = end - start
    owner = np.searchsorted(start[roots], start, side="right") - 1
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    totals = []
    for k, r in enumerate(roots):
        inside = np.flatnonzero((owner == k) & (start <= end[r]))
        per: dict[str, dict] = {}
        for lid in np.unique(name[inside]):
            sel = inside[name[inside] == lid]
            # spans are stored in start order: skip those inside an earlier one
            busy, covered_to = 0.0, -np.inf
            for i in sel:
                if start[i] >= covered_to:
                    busy += dur[i]
                    covered_to = end[i]
            children = inside[parent_name[inside] == lid]
            per[names[lid]] = {
                "calls": int(sel.size),
                "count": float(count[sel].sum()),
                "busy": float(busy),
                "self": float(busy - dur[children].sum()),
            }
        totals.append(per)
    return totals
