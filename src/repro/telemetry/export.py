"""Trace exporters: Chrome trace-event JSON and plain-text flame summary.

The Chrome trace-event format (the JSON object variant with a
``traceEvents`` list) is what Perfetto and ``chrome://tracing`` open
directly.  Spans become complete (``"ph": "X"``) events; tracks become
tids named through ``"M"`` metadata events; span attributes ride along in
``args``.  Timestamps are microseconds, so one simulated femtosecond maps
to 1e-9 us and a full Table 1 run (hundreds of simulated ms) stays well
inside double precision.

The flame summary is the terminal-friendly counterpart: spans aggregated
by category and name with counts, summed simulated time, and shares.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .spans import Span, TelemetryRecorder

#: Simulated femtoseconds per Chrome-trace microsecond.
FS_PER_US = 1_000_000_000


def to_chrome_trace(recorder: TelemetryRecorder, label: str = "repro",
                    run_id: Optional[str] = None) -> dict:
    """The recorder's spans as a Chrome trace-event JSON object.

    *run_id* lands in the trace's ``metadata``, joining it with the
    run's event log, crash reports and ledger record.
    """
    process_args: dict = {"name": label}
    if recorder.design is not None:
        # Design identity from the elaborated spec: lets a Perfetto user
        # tell apart (and diff) traces of different mappings.
        process_args["design"] = dict(recorder.design)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": process_args,
        }
    ]
    tids: dict[str, int] = {}
    for span in recorder.spans:
        tid = tids.get(span.track)
        if tid is None:
            tid = tids[span.track] = len(tids) + 1
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": span.track},
            })
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.begin_fs / FS_PER_US,
            "dur": (span.end_fs - span.begin_fs) / FS_PER_US,
            "pid": 1,
            "tid": tid,
        }
        if span.attrs:
            event["args"] = dict(span.attrs)
        events.append(event)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro_metrics": recorder.metrics.as_dict(),
    }
    if recorder.design is not None:
        payload["repro_design"] = dict(recorder.design)
    if run_id is not None:
        payload["metadata"] = {"run_id": run_id}
    return payload


def write_chrome_trace(recorder: TelemetryRecorder, path,
                       label: str = "repro",
                       run_id: Optional[str] = None) -> dict:
    """Serialise :func:`to_chrome_trace` to *path*; returns the payload."""
    payload = to_chrome_trace(recorder, label=label, run_id=run_id)
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return payload


def aggregate(recorder: TelemetryRecorder,
              category: Optional[str] = None) -> dict:
    """Spans grouped by ``(category, name)``: count and summed duration."""
    groups: dict[tuple[str, str], dict] = {}
    for span in recorder.spans:
        if category is not None and span.category != category:
            continue
        entry = groups.get((span.category, span.name))
        if entry is None:
            entry = groups[(span.category, span.name)] = {
                "category": span.category,
                "name": span.name,
                "count": 0,
                "total_fs": 0,
            }
        entry["count"] += 1
        entry["total_fs"] += span.end_fs - span.begin_fs
    return {
        f"{cat}/{name}": entry for (cat, name), entry in sorted(groups.items())
    }


def stage_shares(recorder: TelemetryRecorder) -> dict[str, float]:
    """Per-stage time shares from the ``stage`` spans (Fig. 1 from a trace)."""
    totals: dict[str, int] = {}
    for span in recorder.spans:
        if span.category != "stage":
            continue
        totals[span.name] = totals.get(span.name, 0) + span.duration_fs
    grand = sum(totals.values())
    if not grand:
        return {}
    return {name: total / grand for name, total in totals.items()}


def flame_summary(recorder: TelemetryRecorder, top: int = 30) -> str:
    """Aggregated span table, widest totals first — a textual flame view."""
    groups = sorted(
        aggregate(recorder).values(), key=lambda e: e["total_fs"], reverse=True
    )
    grand = sum(entry["total_fs"] for entry in groups) or 1
    lines = [
        f"# telemetry summary: {len(recorder.spans)} spans, "
        f"{len(groups)} distinct, {grand / 1e12:.3f} simulated ms total",
        f"{'category/name':<48} {'count':>8} {'total [ms]':>12} {'%':>6}",
    ]
    for entry in groups[:top]:
        lines.append(
            f"{entry['category'] + '/' + entry['name']:<48} "
            f"{entry['count']:>8} {entry['total_fs'] / 1e12:>12.4f} "
            f"{100.0 * entry['total_fs'] / grand:>5.1f}%"
        )
    histograms = recorder.metrics.histograms()
    if histograms:
        lines.append("")
        lines.append(
            f"{'histogram':<48} {'count':>8} {'mean':>10} "
            f"{'p50':>10} {'p95':>10} {'p99':>10}"
        )
        for name, hist in sorted(histograms.items()):
            quantiles = hist.percentiles()
            lines.append(
                f"{name:<48} {hist.count:>8} {hist.mean:>10.3g} "
                f"{quantiles['p50']:>10.3g} {quantiles['p95']:>10.3g} "
                f"{quantiles['p99']:>10.3g}"
            )
    return "\n".join(lines) + "\n"
