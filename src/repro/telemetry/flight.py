"""The flight recorder: a bounded black box, dumped on failure.

A :class:`FlightRecorder` keeps a ring buffer of the most recent
telemetry events plus a small *context* map that subsystems keep
current — the decode plan and stage fates, the parallel decode
schedule, per-chunk states.  It costs a deque append per event while armed and
nothing when disabled, and it never grows: ``CAPACITY`` bounds the
event history.

When something goes wrong — an unhandled exception (install the hook
with :func:`install_excepthook`), a :class:`ParallelDegradedWarning`,
a ``BrokenProcessPool`` — :meth:`FlightRecorder.dump` writes a crash
report under ``.repro/crash/`` containing the run id, the reason, the
context (plan, schedule, chunk states) and the last *N* events,
so a degraded worker pool in a long-lived service is diagnosable after
the fact instead of vanishing into a warning line.

Every :func:`repro.telemetry.session` arms one under its run id; every
``log_event`` then also lands in the ring buffer, and the parallel
fan-out keeps the context current.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Optional

from .log import new_run_id

#: Ring-buffer capacity (events retained for a crash report).
CAPACITY = 256

#: Crash reports land here unless overridden per recorder or by environment.
ENV_CRASH_DIR = "REPRO_CRASH_DIR"
DEFAULT_CRASH_DIRNAME = os.path.join(".repro", "crash")


def default_crash_dir() -> Path:
    override = os.environ.get(ENV_CRASH_DIR)
    return Path(override) if override else Path.cwd() / DEFAULT_CRASH_DIRNAME


class FlightRecorder:
    """Bounded event history + live context, serialisable as a report."""

    def __init__(self, crash_dir=None):
        self.run_id = new_run_id()
        self.events: deque = deque(maxlen=CAPACITY)
        self.context: dict = {}
        self.chunks: dict = {}
        self.crash_dir = Path(crash_dir) if crash_dir is not None else None
        #: Paths of the reports dumped so far, oldest first.
        self.reports: list[Path] = []

    # -- recording -----------------------------------------------------------

    def record(self, event: dict) -> None:
        """Append one event dict to the ring buffer."""
        self.events.append(event)

    def note(self, event: str, **fields) -> None:
        """Convenience: record a freshly-stamped event."""
        record = {"ts": time.time(), "event": event}
        record.update(fields)
        self.events.append(record)

    def set_context(self, key: str, value) -> None:
        """Publish one piece of live context (plan, schedule...)."""
        self.context[key] = value

    def chunk_state(self, chunk_id, state: str) -> None:
        """Track one work chunk's lifecycle (submitted/done/lost/...)."""
        self.chunks[chunk_id] = state

    def reset_chunks(self) -> None:
        self.chunks = {}

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The current black-box contents as plain data."""
        return {
            "run_id": self.run_id,
            "captured_at": time.time(),
            "capacity": CAPACITY,
            "context": dict(self.context),
            "chunks": {str(key): value for key, value in self.chunks.items()},
            "events": list(self.events),
        }

    def dump(self, reason: str, error: Optional[BaseException] = None) -> Path:
        """Write a crash report; returns the path written.

        Reports are numbered per recorder under the crash directory
        (``crash-<run_id>-<n>.json``).
        """
        report = self.snapshot()
        report["reason"] = reason
        if error is not None:
            report["error"] = {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exception(
                    type(error), error, error.__traceback__
                ),
            }
        directory = (
            self.crash_dir if self.crash_dir is not None
            else default_crash_dir()
        )
        number = len(self.reports) + 1
        path = directory / f"crash-{self.run_id}-{number}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8"
        )
        self.reports.append(path)
        return path

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(run_id={self.run_id!r}, "
            f"events={len(self.events)}/{CAPACITY}, "
            f"chunks={len(self.chunks)})"
        )


#: The previously-installed excepthook, for uninstall.
_saved_excepthook = None


def install_excepthook() -> None:
    """Dump the active flight recorder on any unhandled exception.

    The original hook still runs afterwards, so tracebacks print exactly
    as before — the crash report is a side channel, not a replacement.
    """
    global _saved_excepthook
    if _saved_excepthook is not None:
        return

    from . import flight_recorder  # late: avoid import cycle at module load

    def _hook(exc_type, exc, tb):
        recorder = flight_recorder()
        if recorder is not None:
            try:
                if exc.__traceback__ is None:
                    exc = exc.with_traceback(tb)
                recorder.dump("unhandled-exception", error=exc)
            except Exception:  # pragma: no cover - never mask the crash
                pass
        _saved_excepthook(exc_type, exc, tb)

    _saved_excepthook = sys.excepthook
    sys.excepthook = _hook


def uninstall_excepthook() -> None:
    global _saved_excepthook
    if _saved_excepthook is not None:
        sys.excepthook = _saved_excepthook
        _saved_excepthook = None
