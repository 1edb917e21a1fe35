"""The perf-regression sentinel: noise-aware timing comparison.

Raw wall-clock seconds are machine-bound: the committed baselines
(``BENCH_decode.json`` / ``BENCH_sim.json`` / ``BENCH_sweep.json``) were
recorded on one host and a CI runner is another.  The sentinel therefore
never compares absolute seconds.  Each benchmark *kind* (``decode`` /
``sim`` / ``sweep``) is calibrated by the **median** of the fresh/baseline
ratios across its metrics — a uniform machine-speed difference (or a
deliberately smaller fresh workload) moves every ratio identically and is
absorbed by the calibration.  What cannot hide is a *relative* shift: a
code path that got 2x slower while its siblings did not sticks out of the
band no matter which machine measured it.

Verdict per metric, after calibration::

    expected    = baseline_seconds * scale(kind)
    regression  iff fresh > expected * (1 + tolerance) + floor
    improvement iff fresh < expected / (1 + tolerance) - floor

The absolute ``floor`` keeps sub-hundred-millisecond timings (where
scheduler jitter dominates) from ever tripping the band on noise alone.

Three fresh-data sources, all surfaced by ``python -m repro sentinel``:

``--measure``   quick proxy measurements (reduced decode workload, the
                two cheap VTA benches under both substrates);
``--fresh F``   a flat ``{metric: seconds}`` JSON measured elsewhere;
``--ledger``    drift *within* the run ledger — the newest record per
                (kind, label) against the median of its predecessors.

``--self-test`` injects an artificial 2x slowdown into one metric per
kind and asserts the comparator flags exactly those — the CI proof that
the sentinel still bites.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Iterable, Optional

#: Committed baseline files, by benchmark kind.
BASELINE_FILES = {
    "decode": "BENCH_decode.json",
    "sim": "BENCH_sim.json",
    "sweep": "BENCH_sweep.json",
}

#: Relative tolerance band around the calibrated expectation.
DEFAULT_TOLERANCE = 0.35
#: Absolute noise floor in seconds (scheduler jitter on tiny timings).
DEFAULT_FLOOR_S = 0.05


def repo_root() -> Path:
    # src/repro/tools/sentinel.py -> repository root (src layout).
    return Path(__file__).resolve().parents[3]


# --------------------------------------------------------------------------
# baseline flattening: every schema becomes {metric: seconds}
# --------------------------------------------------------------------------


def flatten_decode(payload: dict) -> dict:
    """``decode/<mode>/<schedule>`` metrics from BENCH_decode schema 3."""
    flat = {}
    for mode, entry in (payload.get("modes") or {}).items():
        for schedule, seconds in (entry.get("seconds") or {}).items():
            flat[f"decode/{mode}/{schedule}"] = float(seconds)
    return flat


def flatten_sim(payload: dict) -> dict:
    """``sim/<bench>/<substrate>`` metrics from BENCH_sim schema 1."""
    flat = {}
    for bench, entry in (payload.get("benches") or {}).items():
        for substrate, seconds in (entry.get("seconds") or {}).items():
            flat[f"sim/{bench}/{substrate}"] = float(seconds)
    return flat


def flatten_sweep(payload: dict) -> dict:
    """``sweep/<variant>`` metrics from BENCH_sweep schema 1."""
    return {
        f"sweep/{variant}": float(seconds)
        for variant, seconds in (payload.get("seconds") or {}).items()
    }


_FLATTENERS = {
    "decode": flatten_decode,
    "sim": flatten_sim,
    "sweep": flatten_sweep,
}


def load_baselines(root: Optional[Path] = None) -> dict:
    """Every committed baseline as one flat ``{metric: seconds}`` map.

    Missing files are skipped (a fresh clone before the slow benches ran
    is not an error); unparseable ones raise — a corrupt baseline should
    fail loudly, not silently weaken the gate.
    """
    root = Path(root) if root is not None else repo_root()
    flat: dict = {}
    for kind, filename in BASELINE_FILES.items():
        path = root / filename
        if not path.is_file():
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        flat.update(_FLATTENERS[kind](payload))
    return flat


def metric_kind(metric: str) -> str:
    return metric.split("/", 1)[0]


# --------------------------------------------------------------------------
# the comparator
# --------------------------------------------------------------------------


def compare(
    baseline: dict,
    fresh: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    floor_s: float = DEFAULT_FLOOR_S,
) -> dict:
    """Machine-readable verdict of *fresh* timings against *baseline*.

    Returns ``{"status", "scales", "metrics", "regressions",
    "improvements", "missing"}``; ``status`` is ``"ok"`` unless at least
    one metric regressed.  Metrics present in only one side are listed
    under ``missing`` and never gate.
    """
    common = sorted(set(baseline) & set(fresh))
    missing = sorted(set(baseline) ^ set(fresh))
    ratios_by_kind: dict = {}
    for metric in common:
        if baseline[metric] > 0:
            ratios_by_kind.setdefault(metric_kind(metric), []).append(
                fresh[metric] / baseline[metric]
            )
    scales = {
        kind: statistics.median(ratios)
        for kind, ratios in ratios_by_kind.items()
    }
    metrics: dict = {}
    regressions: list = []
    improvements: list = []
    for metric in common:
        scale = scales.get(metric_kind(metric), 1.0)
        expected = baseline[metric] * scale
        actual = fresh[metric]
        if actual > expected * (1.0 + tolerance) + floor_s:
            verdict = "regression"
            regressions.append(metric)
        elif actual < expected / (1.0 + tolerance) - floor_s:
            verdict = "improvement"
            improvements.append(metric)
        else:
            verdict = "ok"
        metrics[metric] = {
            "baseline": round(baseline[metric], 4),
            "fresh": round(actual, 4),
            "expected": round(expected, 4),
            "ratio_vs_expected": round(actual / expected, 3) if expected else None,
            "verdict": verdict,
        }
    return {
        "status": "regression" if regressions else "ok",
        "tolerance": tolerance,
        "floor_s": floor_s,
        "scales": {kind: round(scale, 4) for kind, scale in scales.items()},
        "metrics": metrics,
        "regressions": regressions,
        "improvements": improvements,
        "missing": missing,
    }


# --------------------------------------------------------------------------
# fresh-data sources
# --------------------------------------------------------------------------


def measure_fresh(
    decode_size: int = 256,
    sim_benches: Iterable[str] = ("6b", "7b"),
) -> dict:
    """Quick proxy measurements on this machine.

    Covers a *subset* of the baseline metric space so the sentinel stays
    CI-cheap: the decode schedules at a reduced workload (the per-kind
    calibration absorbs the uniform size factor) and the two cheapest
    VTA benches under both substrates.  Sweep metrics are not measured
    here — use ``--ledger`` or ``--fresh`` for those.
    """
    import time

    from ..jpeg2000 import (
        CodingParameters,
        DecodeOptions,
        Jpeg2000Decoder,
        encode_image,
        synthetic_image,
    )

    fresh: dict = {}
    size = int(decode_size)
    tile = min(128, size)
    for lossless in (True, False):
        params = CodingParameters(
            width=size, height=size, num_components=3,
            tile_width=tile, tile_height=tile, num_levels=3,
            lossless=lossless, base_step=1 / 8,
        )
        codestream = encode_image(
            synthetic_image(size, size, 3, seed=2008), params
        )
        mode = "lossless" if lossless else "lossy"
        # The committed baseline predates the native kernel: it is
        # measured against the in-process optimised row it replaced.
        for schedule, kernel in (
            ("reference-sequential", "reference"),
            ("batched-sequential", "native"),
        ):
            decoder = Jpeg2000Decoder(
                codestream, options=DecodeOptions(kernel=kernel)
            )
            start = time.perf_counter()
            decoder.decode()
            fresh[f"decode/{mode}/{schedule}"] = time.perf_counter() - start

    from ..casestudy.explorer import ALL_VERSIONS
    from ..casestudy.workload import paper_workload
    from ..kernel import set_default_fast

    for bench in sim_benches:
        model_cls = ALL_VERSIONS.get(bench)
        if model_cls is None:
            continue
        for substrate in ("reference", "fast"):
            previous = set_default_fast(substrate == "fast")
            try:
                model = model_cls(paper_workload(True))
                start = time.perf_counter()
                model.run()
                fresh[f"sim/{bench}/{substrate}"] = (
                    time.perf_counter() - start
                )
            finally:
                set_default_fast(previous)
    return fresh


def inject_slowdown(
    baseline: dict, factor: float = 2.0, per_kind: int = 1
) -> tuple:
    """*baseline* with the first *per_kind* metrics of every kind slowed
    by *factor* — the deterministic self-test workload.  Returns
    ``(injected_map, injected_metric_names)``."""
    injected = dict(baseline)
    victims: list = []
    seen: dict = {}
    for metric in sorted(baseline):
        kind = metric_kind(metric)
        if seen.get(kind, 0) < per_kind:
            injected[metric] = baseline[metric] * factor
            victims.append(metric)
            seen[kind] = seen.get(kind, 0) + 1
    return injected, victims


def self_test(
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    floor_s: float = DEFAULT_FLOOR_S,
) -> dict:
    """Prove the comparator bites: a clean pass on identical data, then
    exact detection of an injected 2x slowdown.  Returns a verdict dict
    with ``status`` ``"ok"`` or ``"failed"``."""
    clean = compare(baseline, dict(baseline), tolerance, floor_s)
    injected_map, victims = inject_slowdown(baseline)
    detected = compare(baseline, injected_map, tolerance, floor_s)
    flagged = set(detected["regressions"])
    expected = set(victims)
    ok = (
        clean["status"] == "ok"
        and not clean["regressions"]
        and detected["status"] == "regression"
        and expected <= flagged
    )
    return {
        "status": "ok" if ok else "failed",
        "clean_status": clean["status"],
        "injected": sorted(expected),
        "detected": sorted(flagged),
        "spurious": sorted(flagged - expected),
        "missed": sorted(expected - flagged),
    }


# --------------------------------------------------------------------------
# ledger drift: newest record per (kind, label) vs its own history
# --------------------------------------------------------------------------


def ledger_drift(
    records: Iterable[dict],
    tolerance: float = DEFAULT_TOLERANCE,
    floor_s: float = DEFAULT_FLOOR_S,
) -> dict:
    """Compare each (kind, label)'s newest ``wall_seconds`` against the
    median of its earlier records — same machine, so no calibration.

    Series with fewer than two timed records are reported as skipped;
    degraded or resumed runs never serve as the newest sample (their
    timings measure the fallback path, not the code under test).
    """
    series: dict = {}
    for record in records:
        wall = record.get("wall_seconds")
        if wall is None:
            continue
        key = f"{record.get('kind')}/{record.get('label')}"
        series.setdefault(key, []).append(record)
    metrics: dict = {}
    regressions: list = []
    skipped: list = []
    for key, entries in sorted(series.items()):
        newest = entries[-1]
        history = [e["wall_seconds"] for e in entries[:-1]]
        if not history or newest.get("degraded") or newest.get("resumed"):
            skipped.append(key)
            continue
        expected = statistics.median(history)
        actual = newest["wall_seconds"]
        regressed = actual > expected * (1.0 + tolerance) + floor_s
        if regressed:
            regressions.append(key)
        metrics[key] = {
            "history": len(history),
            "median": round(expected, 4),
            "fresh": round(actual, 4),
            "run_id": newest.get("run_id"),
            "verdict": "regression" if regressed else "ok",
        }
    return {
        "status": "regression" if regressions else "ok",
        "tolerance": tolerance,
        "floor_s": floor_s,
        "metrics": metrics,
        "regressions": regressions,
        "skipped": skipped,
    }
