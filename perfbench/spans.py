"""Span tracing for the traced benchmark run.

The tracer replaces module-level functions and class methods of the `slra`
package with wrappers.  Only names that the program looks up through a module
global or a class attribute at call time are wrapped, so the program itself
is unchanged: `solver.solve_system` calls `track_batch(...)` through the
`solver` module dict, `Homotopy.tangent` calls `self.eval_jac(...)` through
the class, and so on.

Every wrapper records one span (name, start, end, parent) into flat in-memory
lists; counters registered with a wrapper are added at the same boundary.
`summary()` turns the spans into per-name call counts, inclusive time and
self time (duration minus the part covered by direct child spans), and
`save()` writes the raw spans out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


class Tracer:
    """Spans of wrapped calls, as flat lists indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str,
             count: Callable[[tuple, object], dict[str, int]] | None = None,
             span: bool = True):
        """Replace `owner.attr` by a span-recording wrapper.

        `count(args, result)` returns counter increments recorded when the
        call returns.  With `span=False` only the counters are kept, for
        methods called too often to afford a span each.
        """
        fn = owner.__dict__[attr]
        nid = self._id(name)
        names, parents, starts, ends = self.name_of, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def count_only(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, value in count(args, result).items():
                counters[key] += value
            return result

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    counters[key] += value
            return result

        chosen = wrapper if span else count_only
        chosen.__wrapped__ = fn
        setattr(owner, attr, chosen)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name = np.asarray(self.name_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return name, parent, dur

    def self_times(self) -> np.ndarray:
        name, parent, dur = self.arrays()
        covered = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                              minlength=len(dur))
        return dur - covered

    def _mask(self, span_names) -> np.ndarray:
        """Per name id (plus a trailing False for "no span"): in the group?"""
        mask = np.zeros(len(self.names) + 1, dtype=bool)
        mask[[self._ids[n] for n in span_names if n in self._ids]] = True
        return mask

    def _under(self, group: np.ndarray) -> np.ndarray:
        """Per span: does some ancestor belong to the group?"""
        name, parent, _ = self.arrays()
        hit = np.zeros(name.size, dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            hit |= group[np.where(live, name[np.maximum(anc, 0)], -1)]
            anc = np.where(live, parent[np.maximum(anc, 0)], -1)
        return hit

    def group_time(self, span_names, minus=()) -> float:
        """Inclusive time of the given spans, counting a span only when no
        ancestor belongs to the same group (so nesting is not counted twice),
        less the time of spans named in `minus` nested inside them."""
        name, _, dur = self.arrays()
        if dur.size == 0:
            return 0.0
        group = self._mask(span_names)
        total = float(dur[group[name] & ~self._under(group)].sum())
        if minus:
            inner = self._mask(minus)
            nested = inner[name] & ~self._under(inner) & self._under(group)
            total -= float(dur[nested].sum())
        return total

    def calls(self, span_name: str) -> int:
        nid = self._ids.get(span_name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.asarray(self.name_of) == nid))

    def summary(self) -> list[dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        name, _, _ = self.arrays()
        self_t = self.self_times()
        rows = []
        for nid, span_name in enumerate(self.names):
            mask = name == nid
            if not mask.any():
                continue
            rows.append({"span": span_name, "calls": int(mask.sum()),
                         "incl_s": round(self.group_time([span_name]), 6),
                         "self_s": round(float(self_t[mask].sum()), 6)})
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def save(self, path: Path, meta: dict) -> None:
        """Write the raw spans (and the summary) when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name, parent, _ = self.arrays()
        np.savez_compressed(path.with_suffix(".npz"), name=name, parent=parent,
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            names=np.asarray(self.names))
        path.with_suffix(".json").write_text(json.dumps(
            {"meta": meta, "spans": len(self.start), "summary": self.summary(),
             "counters": dict(self.counters)}, indent=1))
