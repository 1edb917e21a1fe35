"""The plan-matrix differential suite (the decode-identity guarantee).

Every schedule shape the decoder can run — inline or pool,
native/reference kernels, fast/reference Tier-2 — asked for as a
``DecodeOptions`` value, must produce the byte-identical image and
identical basic-operation counts as the reference options (reference
Tier-1 kernel, bit-by-bit Tier-2 parser) on the same 4-tile workload,
in both case-study modes (lossless 5/3 and lossy 9/7).  Pool entries run
under every start method of ``START_METHODS``; the default inline plan
runs under 1, 2 and 4 Tier-1 threads.

When an entry fails the identity check its compiled plan's canonical
JSON is dumped to ``$PLAN_MATRIX_DUMP_DIR`` (CI uploads it as an
artifact).
"""

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

from repro import host
from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    shutdown_pool,
    synthetic_image,
)
from repro.jpeg2000.plan import EXECUTOR_POOL, STAGE_ENTROPY

START_METHODS = ["fork", "spawn"] if hasattr(os, "fork") else ["spawn"]

#: Every schedule shape the executor supports, labelled for CI.  Pool
#: entries oversubscribe so a small host still runs two real workers.
MATRIX = {
    "inline-native": DecodeOptions(kernel="native"),
    "inline-reference": DecodeOptions(kernel="reference"),
    "inline-reference-tier2": DecodeOptions(kernel="native", tier2="reference"),
    "pool-native": DecodeOptions(
        workers=2, oversubscribe=True, kernel="native", chunk_size=3,
    ),
    "pool-reference": DecodeOptions(
        workers=2, oversubscribe=True, kernel="reference", chunk_size=1,
    ),
}


@pytest.fixture(scope="module", params=[True, False], ids=["lossless", "lossy"])
def workload(request):
    lossless = request.param
    image = synthetic_image(96, 96, 3, seed=2008)
    params = CodingParameters(
        width=96, height=96, num_components=3,
        tile_width=48, tile_height=48, num_levels=3,
        lossless=lossless, base_step=1 / 8,
    )
    data = encode_image(image, params)
    decoder = Jpeg2000Decoder(
        data, options=DecodeOptions(kernel="reference", tier2="reference")
    )
    reference = decoder.decode()
    return data, reference, decoder.ops


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def _dump_failing_plan(label, plan):
    directory = os.environ.get("PLAN_MATRIX_DUMP_DIR")
    if not directory:
        return None
    path = pathlib.Path(directory) / f"failing-plan-{label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"label": label, "digest": plan.digest(), **plan.as_dict()},
        indent=2, sort_keys=True,
    ))
    return path


def _runs(label):
    """``(run label, options)`` for each start method the entry needs."""
    options = MATRIX[label]
    if not options.workers:
        return [(label, options)]
    return [
        (f"{label}-{method}",
         dataclasses.replace(options, start_method=method))
        for method in START_METHODS
    ]


@pytest.mark.parametrize("label", sorted(MATRIX))
def test_every_valid_plan_is_byte_identical(label, workload):
    data, reference, reference_ops = workload
    for run, options in _runs(label):
        decoder = Jpeg2000Decoder(data, options=options)
        plan = decoder.plan
        try:
            pooled = plan.stage(STAGE_ENTROPY).executor.kind == EXECUTOR_POOL
            assert pooled == bool(options.workers), (
                f"{run} compiled to the wrong executor"
            )
            image = decoder.decode()
            for ours, theirs in zip(image.components, reference.components):
                assert np.array_equal(ours, theirs), (
                    f"{run} ({plan.digest()[:12]}) diverged from the "
                    "reference image"
                )
            assert decoder.ops.counts == reference_ops.counts, (
                f"{run} changed the basic-operation counts"
            )
            assert not decoder.fates.health()["degraded"], (
                f"{run} did not run the plan it compiled"
            )
        except Exception:
            dumped = _dump_failing_plan(run, plan)
            if dumped is not None:
                print(f"failing plan dumped to {dumped}")
            raise


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_inline_native_is_byte_identical_at_every_thread_count(
    cpus, workload, monkeypatch
):
    """The default plan's inline executor runs one Tier-1 thread per
    host CPU; every count decodes the reference image and op counts."""
    monkeypatch.setattr(host, "host_cpus", lambda: cpus)
    data, reference, reference_ops = workload
    decoder = Jpeg2000Decoder(data)
    assert decoder.plan.stage(STAGE_ENTROPY).executor.threads == cpus
    image = decoder.decode()
    for ours, theirs in zip(image.components, reference.components):
        assert np.array_equal(ours, theirs)
    assert decoder.ops.counts == reference_ops.counts
