"""``repro.telemetry`` — the unified observability layer.

One recorder per session collects *spans* (named intervals in simulated
time, grouped on per-process tracks) and *metrics* (counters, gauges,
fixed-bucket histograms) from every layer of the stack: the DES kernel,
Shared Objects, VTA channels/RMI, and the JPEG 2000 decoder stages.
Exporters render the result as Chrome trace-event JSON (openable in
Perfetto / ``chrome://tracing``) or as a plain-text flame summary; the
CLI surfaces both (``python -m repro trace ...`` / ``... profile ...``).

Telemetry is **off by default** and the disabled cost is engineered to be
a module-attribute read plus a branch at each instrumentation site — the
kernel's hot loops additionally hoist that check out of their inner loops,
so a disabled run executes the exact pre-telemetry code path.  Usage::

    from repro import telemetry

    recorder = telemetry.install()
    try:
        report = run_version("7a", lossless=True)
    finally:
        telemetry.uninstall()
    telemetry.write_chrome_trace(recorder, "trace.json")

Setting ``REPRO_TELEMETRY=1`` in the environment installs a recorder at
import time (handy for subprocess harnesses).
"""

from __future__ import annotations

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
from .log import EventLog, capture_events, new_run_id, new_span_id
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
#: itself disabled), so crash reports have history to show.
_flight: Optional[FlightRecorder] = None


def install(recorder: Optional[TelemetryRecorder] = None) -> TelemetryRecorder:
    """Activate telemetry; simulators built from now on bind to it."""
    global _recorder, _enabled
    if recorder is None:
        recorder = TelemetryRecorder()
    _recorder = recorder
    _enabled = True
    return recorder


def uninstall() -> Optional[TelemetryRecorder]:
    """Deactivate telemetry; returns the recorder that was active."""
    global _recorder, _enabled
    recorder = _recorder
    _recorder = None
    _enabled = False
    return recorder


def active() -> Optional[TelemetryRecorder]:
    """The active recorder, or ``None`` when telemetry is disabled."""
    return _recorder


def enabled() -> bool:
    return _enabled


def count(name: str, amount: int = 1) -> None:
    """Increment a counter on the active recorder (no-op when disabled)."""
    if _enabled:
        _recorder.metrics.count(name, amount)


# -- structured logging -------------------------------------------------------


def install_log(log: Optional[EventLog] = None) -> EventLog:
    """Activate structured logging; returns the active event log."""
    global _log, _log_enabled
    if log is None:
        log = EventLog()
    _log = log
    _log_enabled = True
    return log


def uninstall_log() -> Optional[EventLog]:
    """Deactivate structured logging; returns the log that was active."""
    global _log, _log_enabled
    log = _log
    _log = None
    _log_enabled = False
    return log


def event_log() -> Optional[EventLog]:
    """The active event log, or ``None`` when logging is disabled."""
    return _log


def log_enabled() -> bool:
    return _log_enabled


def run_id() -> Optional[str]:
    """The active run id: the event log's if logging is on, else the
    flight recorder's, else ``None``."""
    if _log is not None:
        return _log.run_id
    if _flight is not None:
        return _flight.run_id
    return None


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


# -- flight recorder ----------------------------------------------------------


def install_flight(recorder: Optional[FlightRecorder] = None) -> FlightRecorder:
    """Arm the flight recorder; returns the armed instance."""
    global _flight
    if recorder is None:
        recorder = FlightRecorder()
    _flight = recorder
    return recorder


def uninstall_flight() -> Optional[FlightRecorder]:
    """Disarm the flight recorder; returns the one that was armed."""
    global _flight
    recorder = _flight
    _flight = None
    return recorder


def flight_recorder() -> Optional[FlightRecorder]:
    """The armed flight recorder, or ``None``."""
    return _flight


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


if os.environ.get("REPRO_TELEMETRY", "0") == "1":  # pragma: no cover
    install()

if os.environ.get("REPRO_LOG", "0") == "1":  # pragma: no cover
    install_log()

if os.environ.get("REPRO_FLIGHT", "0") == "1":  # pragma: no cover
    from .flight import install_excepthook as _install_excepthook

    install_flight()
    _install_excepthook()


__all__ = [
    "DEFAULT_BUCKETS_FS",
    "EventLog",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
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
    "install",
    "install_flight",
    "install_log",
    "log_enabled",
    "log_event",
    "merge_worker_events",
    "new_run_id",
    "new_span_id",
    "run_id",
    "software_span",
    "stage_shares",
    "to_chrome_trace",
    "uninstall",
    "uninstall_flight",
    "uninstall_log",
    "write_chrome_trace",
]
