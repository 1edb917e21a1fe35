"""Regenerate and verify every file under ``results/``.

The registry is the single source of truth for the result artefacts:
each experiment owns its ``results/<stem>.{txt,csv}`` stems and renders
them as a pure function of run payloads.  This module renders the files
(:func:`render_artifacts`) and diffs them against a directory
(:func:`diff_files`); ``python -m repro results --regen --check`` is the
one writer, and proves the committed artifacts reproduce byte-for-byte.
"""

from __future__ import annotations

import difflib
from pathlib import Path
from typing import List, Optional

from . import registry
from .runner import Runner


def repo_root() -> Path:
    # src/repro/experiments/artifacts.py -> repo root (src layout).
    return Path(__file__).resolve().parents[3]


def results_dir() -> Path:
    return repo_root() / "results"


def render_artifacts(experiments=None, runner: Optional[Runner] = None) -> dict:
    """``{filename: content}`` for every artefact of *experiments*.

    Filenames are relative to ``results/`` — two per table stem
    (``<stem>.txt`` and ``<stem>.csv``), in registry order.
    """
    if experiments is None:
        experiments = registry.all_experiments()
    if runner is None:
        runner = Runner()
    files: dict = {}
    for outcome in runner.sweep(experiments):
        for stem, table in outcome.tables().items():
            files[f"{stem}.txt"] = table.render()
            files[f"{stem}.csv"] = table.to_csv()
    return files


def diff_files(files: dict, out_dir, complete: bool = False) -> List[str]:
    """One report per file of *out_dir* that differs from *files*.

    A drifting file gets a unified diff; a missing one a synthetic diff
    header.  With *complete* set, *files* claims the whole directory,
    so an orphan — a file on disk that nothing rendered — is reported
    as well.
    """
    out_dir = Path(out_dir)
    drift: List[str] = []
    for name, expected in files.items():
        path = out_dir / name
        if not path.is_file():
            drift.append(f"--- results/{name} (missing)\n"
                         f"+++ results/{name} (regenerated)\n")
            continue
        actual = path.read_text(encoding="utf-8")
        if actual != expected:
            diff = difflib.unified_diff(
                actual.splitlines(keepends=True),
                expected.splitlines(keepends=True),
                fromfile=f"results/{name} (committed)",
                tofile=f"results/{name} (regenerated)",
            )
            drift.append("".join(diff))
    if complete and out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            if path.is_file() and path.name not in files:
                drift.append(f"--- results/{path.name} (committed)\n"
                             f"+++ results/{path.name} (orphan: no "
                             "experiment renders it)\n")
    return drift
