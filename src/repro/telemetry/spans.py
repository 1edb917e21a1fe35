"""Span-based structured tracing over simulated time.

A span is one named interval on a *track* (thread of execution — a kernel
process, a software task, a bus master), carrying a category and optional
attributes.  Components record spans with explicit femtosecond begin/end
timestamps taken from the simulator they already hold, so recording costs
one attribute check when disabled and one tuple-ish object append when
enabled; nothing subscribes to events or touches the scheduler.

Pure-software code (the JPEG 2000 codec outside any simulation) uses the
:meth:`TelemetryRecorder.span` context manager instead, which reads the
recorder clock: simulated time when a simulator is bound, wall-clock
nanoseconds (scaled to femtoseconds) otherwise.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Optional

from .metrics import MetricsRegistry


class Span:
    """One recorded interval."""

    __slots__ = ("category", "name", "track", "begin_fs", "end_fs", "attrs")

    def __init__(self, category: str, name: str, track: str,
                 begin_fs: int, end_fs: int, attrs: Optional[dict] = None):
        self.category = category
        self.name = name
        self.track = track
        self.begin_fs = begin_fs
        self.end_fs = end_fs
        self.attrs = attrs

    @property
    def duration_fs(self) -> int:
        return self.end_fs - self.begin_fs

    def __repr__(self) -> str:
        return (
            f"Span({self.category}/{self.name} on {self.track!r}, "
            f"{self.begin_fs}..{self.end_fs} fs)"
        )


class _LiveSpan:
    """Context manager recording one clock-timed span on exit."""

    __slots__ = ("_recorder", "_category", "_name", "_track", "_attrs", "_begin")

    def __init__(self, recorder: "TelemetryRecorder", category: str,
                 name: str, track: str, attrs: Optional[dict]):
        self._recorder = recorder
        self._category = category
        self._name = name
        self._track = track
        self._attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        self._begin = self._recorder.now_fs()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        recorder.spans.append(Span(
            self._category, self._name, self._track,
            self._begin, recorder.now_fs(), self._attrs,
        ))
        return False


class TelemetryRecorder:
    """Collects spans and metrics for one telemetry session.

    :func:`repro.telemetry.session` installs one; every
    :class:`~repro.kernel.scheduler.Simulator` built while it is active
    binds itself as the recorder's clock and enables the layer hooks.
    """

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self._sim = None
        #: Spec-derived identity of the design under measurement (set by
        #: the elaborator); exporters label traces with it so recordings
        #: of different mappings stay comparable.  Last elaboration wins.
        self.design: Optional[dict] = None

    def set_design(self, name: str, label: Optional[str] = None,
                   layer: Optional[str] = None) -> None:
        """Tag this session with the elaborated design's identity."""
        self.design = {"name": name, "label": label, "layer": layer}

    # -- clock ---------------------------------------------------------------

    def bind_sim(self, sim) -> None:
        """Use *sim*'s simulated time as the recorder clock (last bind wins)."""
        self._sim = sim

    def now_fs(self) -> int:
        """Current time: simulated fs when bound, wall-clock ns→fs otherwise."""
        sim = self._sim
        if sim is not None:
            return sim._now_fs
        return perf_counter_ns() * 1_000_000

    # -- recording -----------------------------------------------------------

    def complete(self, category: str, name: str, track: str,
                 begin_fs: int, end_fs: int,
                 attrs: Optional[dict] = None) -> None:
        """Record an already-finished span with explicit timestamps."""
        self.spans.append(Span(category, name, track, begin_fs, end_fs, attrs))

    def instant(self, category: str, name: str, track: str,
                attrs: Optional[dict] = None) -> None:
        """Record a zero-duration marker at the current clock."""
        now = self.now_fs()
        self.spans.append(Span(category, name, track, now, now, attrs))

    def span(self, category: str, name: str, track: str = "sw",
             **attrs) -> _LiveSpan:
        """Context manager: record a span clocked on enter/exit."""
        return _LiveSpan(self, category, name, track, attrs or None)

    # -- queries -------------------------------------------------------------

    def category_spans(self, category: str) -> list[Span]:
        return [span for span in self.spans if span.category == category]

    def busy_fs(self, category: str, name: Optional[str] = None) -> int:
        """Summed duration of all spans of *category* (optionally one name)."""
        return sum(
            span.end_fs - span.begin_fs
            for span in self.spans
            if span.category == category and (name is None or span.name == name)
        )

    def tracks(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        return list(seen)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"TelemetryRecorder(spans={len(self.spans)}, metrics={len(self.metrics)})"
