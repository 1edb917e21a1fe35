"""Acceptance: crash reports embed the compiled plan and stage fates.

A worker process is killed mid-decode (fork-inherited bomb in the
entropy kernel); the decode must still complete byte-identically via the
broken-pool resume path, and the flight-recorder crash report written at
the moment the pool broke must carry the compiled plan (digest +
stages) and the per-stage fate map showing the ``broken-pool-resume``
rewrite — the post-mortem record the plan IR exists to provide.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import telemetry
from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    shutdown_pool,
    synthetic_image,
)
from repro.jpeg2000.plan import STAGE_ORDER
from repro.jpeg2000.stages import entropy


@pytest.fixture(scope="module")
def workload():
    image = synthetic_image(96, 96, 3, seed=7)
    params = CodingParameters(
        width=96, height=96, num_components=3,
        tile_width=48, tile_height=48, num_levels=3,
    )
    data = encode_image(image, params)
    return data, Jpeg2000Decoder(data).decode()


def _arm_bomb(monkeypatch, tmp_path):
    """Patch the worker kernel so one worker dies after the first chunk
    lands (fork-inherited; the parent process is never harmed)."""
    marker = str(tmp_path / "first-chunk-done")
    bombed = str(tmp_path / "bombed")
    parent_pid = os.getpid()
    real = entropy.decode_batch

    def bomb(batch, out, kernel):
        if os.getpid() != parent_pid:
            if os.path.exists(marker) and not os.path.exists(bombed):
                with open(bombed, "w") as handle:
                    handle.write("x")
                time.sleep(0.2)  # let the parent drain finished chunks
                os._exit(1)
            result = real(batch, out, kernel)
            with open(marker, "w") as handle:
                handle.write("done")
            return result
        return real(batch, out, kernel)

    shutdown_pool()  # the bomb must be in place before the fork
    monkeypatch.setattr(entropy, "decode_batch", bomb)


def test_crash_report_embeds_plan_and_stage_fates(
    workload, tmp_path, monkeypatch
):
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only test
        pytest.skip("fork start method unavailable")
    data, reference = workload
    _arm_bomb(monkeypatch, tmp_path)
    options = DecodeOptions(
        workers=2, chunk_size=1, oversubscribe=True, start_method="fork",
    )
    decoder = Jpeg2000Decoder(data, options=options)
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    try:
        with telemetry.session(events=tmp_path / "events.jsonl"):
            image = decoder.decode()
    finally:
        shutdown_pool()

    # The resume path still produced the byte-identical image.
    for ours, theirs in zip(image.components, reference.components):
        assert np.array_equal(ours, theirs)

    reports = sorted(tmp_path.glob("crash-*.json"))
    assert reports, "the broken pool must have dumped a crash report"
    report = json.loads(reports[0].read_text(encoding="utf-8"))
    assert report["reason"] == "broken-pool"

    # The compiled plan rides in the report, digest first.
    plan_context = report["context"]["plan"]
    assert plan_context["digest"] == decoder.plan.digest()
    assert [s["stage"] for s in plan_context["stages"]] == list(STAGE_ORDER)
    entropy_stage = next(
        s for s in plan_context["stages"] if s["stage"] == "entropy"
    )
    assert entropy_stage["executor"]["kind"] == "pool"

    # So does the fate map: at crash time the entropy stage was running
    # and had already recorded the broken-pool-resume rewrite.
    fates = report["context"]["stage_fates"]
    assert set(fates) == set(STAGE_ORDER)
    assert fates["parse"]["state"] == "done"
    assert fates["entropy"]["state"] == "running"
    rules = [rewrite["rule"] for rewrite in fates["entropy"]["rewrites"]]
    assert "broken-pool-resume" in rules

    # The schedule context and pool-broken event are still there too.
    assert report["context"]["schedule"]["effective_workers"] == 2
    events = [record["event"] for record in report["events"]]
    assert "parallel.pool_broken" in events
