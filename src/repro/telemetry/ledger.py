"""The run ledger: append-only provenance for every run.

Each ``run``, ``plan``, ``sweep`` and ``results`` command
appends one JSON line to ``.repro/ledger.jsonl`` through its
:func:`repro.telemetry.session`, recording *what ran and under which
code*: the run id shared with the run's event log, trace and crash
reports (and their paths), the canonical
:class:`~repro.design.spec.DesignSpec` content hash (for simulation
runs), per-subsystem source fingerprints (from
:mod:`repro.experiments.fingerprint` — the same hashes that key the
result cache), schedule information, wall time, a metrics snapshot, and
the degraded/resumed flags of the parallel fallback chain.

That turns "the sweep got slower" from an anecdote into a query: two
ledger records can be diffed (:func:`diff_records`) to show exactly
which subsystems' sources changed between them, how the wall time
moved, and which degradation counters fired.  Records are provenance,
not a benchmark: speed is measured by ``python3 perfbench/run.py``,
end to end and per layer, in fresh processes.

The ledger is plain JSON lines so it appends atomically enough for a
single writer, survives partial tails (unparseable lines are skipped),
and greps well.  ``REPRO_LEDGER_PATH`` overrides the location;
``REPRO_LEDGER=0`` disables the sessions' appends.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Iterable, Optional

from .log import new_run_id

#: Bump when the record layout changes; readers skip unknown schemas.
LEDGER_SCHEMA = 1

ENV_LEDGER_PATH = "REPRO_LEDGER_PATH"
ENV_LEDGER = "REPRO_LEDGER"
DEFAULT_LEDGER_RELPATH = os.path.join(".repro", "ledger.jsonl")


def default_ledger_path() -> Path:
    override = os.environ.get(ENV_LEDGER_PATH)
    return Path(override) if override else Path.cwd() / DEFAULT_LEDGER_RELPATH


def ledger_enabled() -> bool:
    """Whether sessions append records (``REPRO_LEDGER=0`` opts out)."""
    return os.environ.get(ENV_LEDGER, "1") != "0"


def subsystem_fingerprints(kind: str = "simulate") -> dict:
    """Per-subsystem source fingerprints, as ``{subsystem: sha256}``.

    One hash per subsystem (rather than the cache's single combined
    digest) so a ledger diff can name *which* layer changed between two
    runs.  The fingerprint module reads each source once per process,
    for these hashes and the cache keys' combined one alike.
    """
    from ..experiments.fingerprint import code_fingerprint, subsystems_for_kind

    return {
        subsystem: code_fingerprint((subsystem,))
        for subsystem in subsystems_for_kind(kind)
    }


def make_record(
    kind: str,
    *,
    run_id: Optional[str] = None,
    label: Optional[str] = None,
    spec_hash: Optional[str] = None,
    schedule: Optional[dict] = None,
    wall_seconds: Optional[float] = None,
    metrics: Optional[dict] = None,
    degraded: bool = False,
    resumed: bool = False,
    **extra,
) -> dict:
    """One provenance record, ready to append.

    ``kind`` is the run class (``decode`` / ``simulate`` / ``plan`` /
    ``sweep`` / ``results``);
    ``label`` names the concrete workload (a version id, an experiment
    group, a decode schedule).  Everything else is evidence.
    """
    record = {
        "schema": LEDGER_SCHEMA,
        "run_id": run_id or new_run_id(),
        "ts": time.time(),
        "kind": kind,
        "label": label,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "pid": os.getpid(),
        },
        "fingerprints": subsystem_fingerprints(kind),
        "degraded": bool(degraded),
        "resumed": bool(resumed),
    }
    if spec_hash is not None:
        record["spec_hash"] = spec_hash
    if schedule is not None:
        record["schedule"] = dict(schedule)
    if wall_seconds is not None:
        record["wall_seconds"] = round(float(wall_seconds), 4)
    if metrics is not None:
        record["metrics"] = metrics
    record.update(extra)
    return record


def append_record(record: dict) -> Path:
    """Append one record to the ledger file (created on first use)."""
    path = default_ledger_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=False, separators=(",", ":"))
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return path


def read_ledger(path=None) -> list[dict]:
    """Every parseable record in the ledger, oldest first.

    A torn or corrupt line (killed process mid-append, hand edits) is
    skipped, not fatal — the ledger is evidence, and partial evidence
    still counts.
    """
    path = Path(path) if path is not None else default_ledger_path()
    if not path.is_file():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("schema") == LEDGER_SCHEMA:
            records.append(record)
    return records


def find_record(records: Iterable[dict], token: str) -> dict:
    """Resolve *token* to one record: a run-id prefix or a numeric index
    (``-1`` = most recent)."""
    records = list(records)
    if not records:
        raise LookupError("ledger is empty")
    try:
        return records[int(token)]
    except (ValueError, IndexError):
        pass
    matches = [
        record for record in records
        if str(record.get("run_id", "")).startswith(token)
    ]
    if not matches:
        raise LookupError(f"no ledger record matches {token!r}")
    if len(matches) > 1:
        raise LookupError(
            f"{token!r} is ambiguous: matches "
            + ", ".join(str(m["run_id"]) for m in matches[:5])
        )
    return matches[0]


def _flatten_metrics(record: dict) -> dict:
    metrics = record.get("metrics") or {}
    flat = {}
    for name, value in (metrics.get("counters") or {}).items():
        flat[f"counter:{name}"] = value
    for name, value in (metrics.get("gauges") or {}).items():
        flat[f"gauge:{name}"] = value
    return flat


def diff_records(old: dict, new: dict) -> dict:
    """What changed between two ledger records.

    Returns plain data naming the subsystems whose fingerprints moved,
    the spec-hash / schedule changes, the wall-time ratio, and every
    counter or gauge whose value differs.
    """
    old_fp = old.get("fingerprints") or {}
    new_fp = new.get("fingerprints") or {}
    changed = sorted(
        subsystem
        for subsystem in set(old_fp) | set(new_fp)
        if old_fp.get(subsystem) != new_fp.get(subsystem)
    )
    wall_old = old.get("wall_seconds")
    wall_new = new.get("wall_seconds")
    wall_ratio = (
        round(wall_new / wall_old, 4)
        if wall_old and wall_new else None
    )
    metrics_old = _flatten_metrics(old)
    metrics_new = _flatten_metrics(new)
    metric_deltas = {
        name: {
            "old": metrics_old.get(name),
            "new": metrics_new.get(name),
        }
        for name in sorted(set(metrics_old) | set(metrics_new))
        if metrics_old.get(name) != metrics_new.get(name)
    }
    return {
        "run_ids": [old.get("run_id"), new.get("run_id")],
        "kinds": [old.get("kind"), new.get("kind")],
        "labels": [old.get("label"), new.get("label")],
        "fingerprints_changed": changed,
        "spec_hash_changed": old.get("spec_hash") != new.get("spec_hash"),
        "schedule_changed": old.get("schedule") != new.get("schedule"),
        "wall_seconds": [wall_old, wall_new],
        "wall_ratio": wall_ratio,
        "degraded": [old.get("degraded"), new.get("degraded")],
        "resumed": [old.get("resumed"), new.get("resumed")],
        "metric_deltas": metric_deltas,
    }
