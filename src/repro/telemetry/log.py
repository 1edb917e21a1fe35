"""Structured logging: one JSON-lines event stream per run.

Spans answer *where the time went*; the event log answers *what
happened* — in which order, in which process, and under which run.  One
:class:`EventLog` collects plain-dict events, each stamped with:

``run_id``
    A short random identifier minted when the log is created, shared by
    every event of the run — the key that joins the log with the run
    ledger (:mod:`repro.telemetry.ledger`) and a flight-recorder crash
    report (:mod:`repro.telemetry.flight`).
``seq``
    Monotonic per-log sequence number: total order even when wall-clock
    timestamps tie.
``span``
    Optional correlation id linking the events of one logical
    operation — a parallel fan-out, one simulation run — across layers
    and, via :meth:`EventLog.merge`, across processes.

Worker processes cannot append to the parent's log.  Instead the
parallel fan-out passes ``events=True`` in its chunk payloads; workers
collect their events locally (:func:`capture_events`) and ship them back
with the chunk results, and the parent merges them **in chunk order**
(:meth:`EventLog.merge`) so the stream reads deterministically no matter
how the pool interleaved the work.

Like every other telemetry surface, logging is off by default and the
disabled cost at an instrumentation site is a module-attribute read plus
a branch (``repro.telemetry.log_event`` short-circuits on the module
flag before building the event dict).
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path
from typing import Iterable, Optional


def new_run_id() -> str:
    """A fresh 16-hex-digit run identifier."""
    return uuid.uuid4().hex[:16]


class EventLog:
    """An append-only, bounded-cost structured event stream."""

    __slots__ = ("run_id", "events", "_seq")

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id or new_run_id()
        self.events: list[dict] = []
        self._seq = 0

    def emit(self, event: str, **fields) -> dict:
        """Append one event; returns the stored dict (already stamped)."""
        self._seq += 1
        record = {
            "ts": time.time(),
            "seq": self._seq,
            "run_id": self.run_id,
            "event": event,
        }
        record.update(fields)
        self.events.append(record)
        return record

    def merge(self, events: Iterable[dict]) -> None:
        """Fold worker-side events into this log, in the given order.

        Each merged event keeps its own fields (including the worker's
        ``pid`` and timestamps) but is re-stamped with this log's run id
        and the next sequence numbers, so the merged stream has one total
        order and one run identity.
        """
        for event in events:
            self._seq += 1
            record = dict(event)
            record["seq"] = self._seq
            record["run_id"] = self.run_id
            self.events.append(record)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def select(self, event: str) -> list[dict]:
        """Every event with the given name, in stream order."""
        return [record for record in self.events if record["event"] == event]

    def to_jsonl(self) -> str:
        """The stream as JSON lines (one compact object per line)."""
        return "".join(
            json.dumps(record, sort_keys=False, separators=(",", ":")) + "\n"
            for record in self.events
        )

    def write(self, path) -> Path:
        """Serialise the stream to *path* as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    def __repr__(self) -> str:
        return f"EventLog(run_id={self.run_id!r}, events={len(self.events)})"


class capture_events:
    """Worker-side event buffer: collect events locally, ship them back.

    Used inside pool workers, where no parent log exists::

        with capture_events() as buffer:
            ... buffer.emit("parallel.chunk_decoded", pid=os.getpid()) ...
        return result, buffer.events

    The buffer is a plain list of event dicts without run or sequence
    stamps — the parent's :meth:`EventLog.merge` supplies both.
    """

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: str, **fields) -> dict:
        record = {"ts": time.time(), "event": event}
        record.update(fields)
        self.events.append(record)
        return record

    def __enter__(self) -> "capture_events":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False
