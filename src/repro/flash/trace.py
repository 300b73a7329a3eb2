"""Flat offset/length command traces and their summaries.

The access pattern a cache scheme produces (sequential region writes vs
scattered block updates) is exactly what the paper's analysis hinges
on.  An :class:`IoTrace` is a plain list of :class:`IoEvent` records
that a caller appends to — ``examples/io_trace_analysis.py`` records
around a region store — with helpers for bytes per op, write
sequentiality and CSV export.  Cross-layer causality (which engine,
backend and device spans a command belongs to) is the pipeline-level
:class:`~repro.sim.io.IoTracer`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class IoEvent:
    """One traced device command."""

    timestamp_ns: int
    op: str  # "read" | "write" | "append" | "reset" | "discard"
    offset: int
    length: int
    latency_ns: int


@dataclass
class IoTrace:
    """Append-only command trace with summary helpers."""

    events: List[IoEvent] = field(default_factory=list)

    def record(self, event: IoEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def by_op(self, op: str) -> List[IoEvent]:
        return [e for e in self.events if e.op == op]

    def bytes_by_op(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.op] = out.get(event.op, 0) + event.length
        return out

    def sequential_fraction(self, op: str = "write") -> float:
        """Fraction of ``op`` events contiguous with their predecessor —
        the sequentiality a log-structured cache is supposed to produce."""
        events = self.by_op(op)
        if len(events) < 2:
            return 1.0
        sequential = sum(
            1
            for prev, cur in zip(events, events[1:])
            if cur.offset == prev.offset + prev.length
        )
        return sequential / (len(events) - 1)

    def to_csv(self) -> str:
        lines = ["timestamp_ns,op,offset,length,latency_ns"]
        for e in self.events:
            lines.append(
                f"{e.timestamp_ns},{e.op},{e.offset},{e.length},{e.latency_ns}"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        self.events.clear()
