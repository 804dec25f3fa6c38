"""In-memory span tracer (child side) and self-time aggregation (parent side).

A span is one call into a wrapped layer function: its name
(``layer.function``), start and end in ns, the index of the span that was
open when it started, and the execution id. Spans stay in memory and are
written once, after the execution's end timestamp, as one ``.npz`` file.
A span's self time is its duration minus the durations of its direct
children; calls within one thread do not overlap, so that sum is the time
the children cover.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

ROOT = -1


class Tracer:
    """Wraps functions at the attribute their callers look them up by."""

    def __init__(self, exec_id: int):
        self.exec_id = exec_id
        self.names: list[str] = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [ROOT]
        self.counters: Counter = Counter()

    def wrap(self, owner, attr: str, span: str, *, inside: str | None = None,
             count=None) -> None:
        """Replace ``owner.attr`` with :meth:`wrapper` of it."""
        setattr(owner, attr, self.wrapper(getattr(owner, attr), span,
                                          inside=inside, count=count))

    def wrapper(self, fn, span: str, *, inside: str | None = None, count=None):
        """Return ``fn`` wrapped so that each call records one span.

        With ``inside`` set, only calls made while a span of that name is the
        innermost open span are recorded; other calls pass straight through.
        ``count(counters, result)`` runs after the span closes.
        """
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        inside_id = None if inside is None else self.names.index(inside)
        stack, clock = self.stack, time.perf_counter_ns
        ids, starts, ends, parents = self.name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if inside_id is not None and (
                    stack[-1] == ROOT or ids[stack[-1]] != inside_id):
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, result)
            return result

        return wrapped

    def save(self, path) -> None:
        np.savez(path,
                 names=np.asarray(self.names),
                 name=np.asarray(self.name, dtype=np.int32),
                 start=np.asarray(self.start, dtype=np.int64),
                 end=np.asarray(self.end, dtype=np.int64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 exec_id=np.full(len(self.start), self.exec_id, dtype=np.int64),
                 counter_keys=np.asarray(list(self.counters), dtype=str),
                 counter_values=np.asarray(list(self.counters.values()),
                                           dtype=np.int64))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = (end - start).astype(np.float64)
    has_parent = parent != ROOT
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def load(path) -> dict:
    """Read one span file into per-name arrays of (duration, self) in ns."""
    with np.load(path) as data:
        names = list(data["names"])
        name, start, end, parent = (data[k] for k in ("name", "start", "end", "parent"))
        counters = dict(zip(data["counter_keys"].tolist(),
                            data["counter_values"].tolist()))
    dur = (end - start).astype(np.float64)
    own = self_times(start, end, parent)
    by_name = {n: (dur[name == i], own[name == i]) for i, n in enumerate(names)}
    return {"spans": by_name, "counters": counters, "start": start, "end": end,
            "parent": parent, "self": own}
