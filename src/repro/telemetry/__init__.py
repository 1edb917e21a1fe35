"""``repro.telemetry`` — the unified observability layer.

One recorder per session collects *spans* (named intervals in simulated
time, grouped on per-process tracks) and *metrics* (counters, gauges,
fixed-bucket histograms) from every layer of the stack: the DES kernel,
Shared Objects, VTA channels/RMI, and the JPEG 2000 decoder stages.
Exporters render the result as Chrome trace-event JSON (openable in
Perfetto / ``chrome://tracing``) or as a plain-text flame summary; the
CLI surfaces both (``python -m repro run 6b --trace trace.json`` /
``... run 6b --profile``).

Telemetry is **off by default** and the disabled cost is engineered to be
a module-attribute read plus a branch at each instrumentation site — the
kernel's hot loops additionally hoist that check out of their inner loops,
so a disabled run executes the exact pre-telemetry code path.
:func:`session` is the only switch: it gives one run one id shared by
its span recorder, event log, trace, crash reports and ledger record::

    from repro import telemetry

    with telemetry.session(trace="trace.json") as run:
        report = run_version("7a", lossless=True)
    print(telemetry.flame_summary(run.recorder))
"""

from __future__ import annotations

import contextlib
import os
from typing import Optional

from .export import (
    aggregate,
    flame_summary,
    stage_shares,
    to_chrome_trace,
    write_chrome_trace,
)
from .flight import FlightRecorder
from .log import EventLog, capture_events, new_run_id
from .metrics import DEFAULT_BUCKETS_FS, Histogram, MetricsRegistry
from .spans import Span, TelemetryRecorder

#: The active recorder — ``None`` means telemetry is disabled.  Hot paths
#: read this attribute (or a Simulator's cached ``telemetry`` reference)
#: and branch; they must never pay more than that when disabled.
_recorder: Optional[TelemetryRecorder] = None

#: Module-level enabled flag, kept strictly in sync with ``_recorder``.
#: The cheapest possible short-circuit for per-operation counter sites.
_enabled = False

#: The active structured event log (``None`` = logging disabled) and its
#: enabled flag — the same short-circuit discipline as the recorder.
_log: Optional[EventLog] = None
_log_enabled = False

#: The armed flight recorder, or ``None``.  When armed, every
#: ``log_event`` also lands in its ring buffer (even with the event log
#: itself disabled), so crash reports have history to show.  Every
#: session arms one, so ``_flight is not None`` is also the test for
#: "is anything listening to events".
_flight: Optional[FlightRecorder] = None


class Session:
    """One run's telemetry, as handed out by :func:`session`.

    ``recorder`` and ``log`` are the sinks the session installed
    (``None`` when not asked for); ``fields`` is what the command adds
    to its ledger record.
    """

    __slots__ = ("run_id", "flight", "recorder", "log", "fields")

    def __init__(self, flight: FlightRecorder):
        self.run_id = flight.run_id
        self.flight = flight
        self.recorder: Optional[TelemetryRecorder] = None
        self.log: Optional[EventLog] = None
        self.fields: dict = {}


@contextlib.contextmanager
def session(kind: Optional[str] = None, label: Optional[str] = None, *,
            spans: bool = False, events=None, trace=None):
    """Turn telemetry on for one run; the only way to turn it on.

    The outermost session mints the run id and arms a flight recorder
    under it; a nested session joins that run.  ``spans`` (or a
    ``trace`` path) installs a fresh span recorder, and an ``events``
    path a fresh event log stamped with the run id.  On exit whatever
    was active before is restored, so sessions nest.  An exception
    escaping the session dumps one crash report.  Then the trace and
    the event log are written to their paths and, when *kind* is given
    and ``REPRO_LEDGER`` is not ``0``, exactly one ledger record is
    appended.  It carries the run id, *label*, the command's ``fields``,
    the span recorder's metrics, and the paths of the event log, the
    trace and every crash report dumped during the session.
    """
    global _recorder, _enabled, _log, _log_enabled, _flight
    saved = (_recorder, _enabled, _log, _log_enabled, _flight)
    flight = _flight if _flight is not None else FlightRecorder()
    current = Session(flight)
    first_report = len(flight.reports)
    _flight = flight
    if spans or trace:
        _recorder = current.recorder = TelemetryRecorder()
        _enabled = True
    if events:
        _log = current.log = EventLog(flight.run_id)
        _log_enabled = True
    try:
        yield current
    except Exception as error:
        if not getattr(error, "_repro_crash_dumped", False):
            flight.dump("exception", error=error)
            error._repro_crash_dumped = True
        raise
    finally:
        _recorder, _enabled, _log, _log_enabled, _flight = saved
        if trace:
            write_chrome_trace(current.recorder, trace,
                               label=f"repro {label}" if label else "repro",
                               run_id=current.run_id)
        if events:
            current.log.write(events)
        from . import ledger

        if kind is not None and ledger.ledger_enabled():
            fields = current.fields
            fields.update(
                (name, str(path))
                for name, path in (("events", events), ("trace", trace))
                if path
            )
            reports = flight.reports[first_report:]
            if reports:
                fields["crash_reports"] = [str(path) for path in reports]
            if current.recorder is not None:
                fields.setdefault("metrics", current.recorder.metrics.as_dict())
            # Best effort: a read-only checkout or a full disk loses the
            # record, not the run.
            with contextlib.suppress(OSError):
                ledger.append_record(ledger.make_record(
                    kind, run_id=current.run_id, label=label, **fields
                ))


def active() -> Optional[TelemetryRecorder]:
    """The active recorder, or ``None`` when telemetry is disabled."""
    return _recorder


def enabled() -> bool:
    return _enabled


def count(name: str, amount: int = 1) -> None:
    """Increment a counter on the active recorder (no-op when disabled)."""
    if _enabled:
        _recorder.metrics.count(name, amount)


def event_log() -> Optional[EventLog]:
    """The active event log, or ``None`` when logging is disabled."""
    return _log


def log_enabled() -> bool:
    return _log_enabled


def flight_recorder() -> Optional[FlightRecorder]:
    """The armed flight recorder, or ``None``."""
    return _flight


def run_id() -> Optional[str]:
    """The active run id (the armed flight recorder's), or ``None``."""
    return _flight.run_id if _flight is not None else None


def log_event(event: str, **fields) -> None:
    """Emit one structured event (no-op when logging and flight are off).

    The disabled cost is two module-attribute reads and branches; the
    event dict is only built once something is listening.
    """
    if _log_enabled:
        record = _log.emit(event, **fields)
        if _flight is not None:
            _flight.record(record)
    elif _flight is not None:
        _flight.note(event, **fields)


def merge_worker_events(events) -> None:
    """Fold events captured in a worker process into the active sinks.

    Merged into the event log (re-stamped with this run's id and
    sequence numbers) when logging is on, and into the flight recorder's
    ring buffer when armed.  Call in a deterministic order (chunk order,
    not completion order) so the merged stream is reproducible.
    """
    if not events:
        return
    if _log is not None:
        _log.merge(events)
    if _flight is not None:
        for event in events:
            _flight.record(event)


class _NullSpan:
    """Shared do-nothing context manager for disabled software spans."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


def software_span(category: str, name: str, track: str = "sw", **attrs):
    """A clock-timed span on the active recorder; free when disabled."""
    recorder = _recorder
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(category, name, track, **attrs)


if os.environ.get("REPRO_FLIGHT", "0") == "1":  # pragma: no cover
    from .flight import install_excepthook as _install_excepthook

    _flight = FlightRecorder()
    _install_excepthook()


__all__ = [
    "DEFAULT_BUCKETS_FS",
    "EventLog",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "Session",
    "Span",
    "TelemetryRecorder",
    "active",
    "aggregate",
    "capture_events",
    "count",
    "enabled",
    "event_log",
    "flame_summary",
    "flight_recorder",
    "log_enabled",
    "log_event",
    "merge_worker_events",
    "new_run_id",
    "run_id",
    "session",
    "software_span",
    "stage_shares",
    "to_chrome_trace",
    "write_chrome_trace",
]
