"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public entry point: name, start, end,
parent span and request id.  Self time (duration minus the part of the
interval its child spans cover) and call counts are accumulated per
span name as spans close, so they are exact over the whole run; the
span records themselves are kept for the first :data:`CAPACITY` spans
only and written out by :meth:`SpanRecorder.save`.

The program is single-threaded and every span closes before its parent,
so children never overlap and "child coverage" is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Callable, Dict, List

# Frame slots: [span_id, name_id, parent_id, request_id, child_s, start_s]
_ID, _NAME, _PARENT, _REQUEST, _CHILD, _START = range(6)
# Span records kept for :meth:`SpanRecorder.save` (about 40 B each).
CAPACITY = 500_000


class SpanRecorder:
    """Nested-span accounting with a bounded record buffer."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._starts_request: List[bool] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        # Sum of the durations of spans opened with no span above them;
        # equals the sum of every span's self time.
        self.root_s = 0.0
        self.spans = 0
        self._stack: List[list] = []
        self.rec_id = array("q")
        self.rec_name = array("H")
        self.rec_parent = array("q")
        self.rec_request = array("q")
        self.rec_start = array("d")
        self.rec_end = array("d")

    def name_id(self, name: str, starts_request: bool = False) -> int:
        """Intern a span name.  A span whose name starts a request gets
        its own id as request id unless an enclosing span already
        carries one; every other span inherits its parent's."""
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self._starts_request.append(starts_request)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def enter(self, nid: int) -> list:
        stack = self._stack
        self.spans += 1
        sid = self.spans
        if stack:
            parent = stack[-1]
            pid = parent[_ID]
            request = parent[_REQUEST]
        else:
            pid = 0
            request = 0
        if request == 0 and self._starts_request[nid]:
            request = sid
        frame = [sid, nid, pid, request, 0.0, 0.0]
        stack.append(frame)
        frame[_START] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        top = stack.pop()
        if top is not frame:
            raise RuntimeError(
                f"span {self.names[frame[_NAME]]} closed out of order"
            )
        nid = frame[_NAME]
        duration = end - frame[_START]
        self.self_s[nid] += duration - frame[_CHILD]
        self.total_s[nid] += duration
        self.calls[nid] += 1
        if stack:
            stack[-1][_CHILD] += duration
        else:
            self.root_s += duration
        if frame[_ID] <= CAPACITY:
            self.rec_id.append(frame[_ID])
            self.rec_name.append(nid)
            self.rec_parent.append(frame[_PARENT])
            self.rec_request.append(frame[_REQUEST])
            self.rec_start.append(frame[_START])
            self.rec_end.append(end)

    def wrap(self, name: str, fn: Callable, starts_request: bool = False) -> Callable:
        nid = self.name_id(name, starts_request)
        enter = self.enter
        leave = self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "total_s"}}`` where the layer is
        the span name up to its first dot."""
        layers: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            entry = layers.setdefault(
                name.split(".", 1)[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            entry["calls"] += self.calls[nid]
            entry["self_s"] += self.self_s[nid]
            entry["total_s"] += self.total_s[nid]
        return layers

    def total_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_s[nid]

    def save(self, path) -> None:
        """Write the retained span records as a NumPy ``.npz`` archive:
        parallel arrays ``id``, ``name`` (index into ``names``), ``parent``
        and ``request`` (span ids, numbered from 1 in opening order; 0 =
        none), ``start_s`` and ``end_s`` (``time.perf_counter`` seconds)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.rec_id, dtype=np.int64),
            name=np.frombuffer(self.rec_name, dtype=np.uint16),
            parent=np.frombuffer(self.rec_parent, dtype=np.int64),
            request=np.frombuffer(self.rec_request, dtype=np.int64),
            start_s=np.frombuffer(self.rec_start, dtype=np.float64),
            end_s=np.frombuffer(self.rec_end, dtype=np.float64),
            spans_total=np.int64(self.spans),
        )
