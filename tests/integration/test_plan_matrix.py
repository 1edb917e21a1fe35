"""The plan-matrix differential suite (the decode-identity guarantee).

Every *valid* decode plan — inline or pool, native/reference kernels,
fast/reference Tier-2 — must produce the byte-identical image and
identical basic-operation counts as the reference plan (reference
Tier-1 kernel, bit-by-bit Tier-2 parser) on the same 4-tile workload,
in both case-study modes (lossless 5/3 and lossy 9/7).
Invalid stage/executor combinations must be rejected *statically*, with
their documented rule codes, before any worker spawns.

When a plan fails the identity check its canonical JSON is dumped to
``$PLAN_MATRIX_DUMP_DIR`` (CI uploads it as an artifact); the matrix
start method can be forced with ``$PLAN_MATRIX_START_METHOD`` so CI can
sweep fork and spawn.
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    shutdown_pool,
    synthetic_image,
)
from repro.jpeg2000.plan import (
    EXECUTOR_POOL,
    STAGE_ENTROPY,
    ExecutorSpec,
    PlanValidationError,
    StageBinding,
    compile_plan,
    validate_plan,
)

#: CI sweeps the whole matrix under fork and under spawn.
START_METHOD = os.environ.get("PLAN_MATRIX_START_METHOD") or None


def _pool(impl, chunk_size=3):
    return StageBinding(STAGE_ENTROPY, impl, ExecutorSpec(
        kind=EXECUTOR_POOL, workers=2, chunk_size=chunk_size,
        start_method=START_METHOD,
    ))


def _plan(entropy=None, tier2="fast"):
    """The reference plan with the entropy binding (and Tier-2) swapped."""
    base = compile_plan(DecodeOptions(tier2=tier2))
    return base if entropy is None else base.with_stage(entropy)


#: Every valid schedule shape the executor supports, labelled for CI.
MATRIX = {
    "inline-native": _plan(StageBinding(STAGE_ENTROPY, "native")),
    "inline-reference": _plan(StageBinding(STAGE_ENTROPY, "reference")),
    "inline-reference-tier2": _plan(
        StageBinding(STAGE_ENTROPY, "native"), tier2="reference"
    ),
    "pool-native": _plan(_pool("native")),
    "pool-reference": _plan(_pool("reference", chunk_size=1)),
}

#: The documented static rejections (rule code → a plan that trips it).
INVALID = {
    "executor.pool-requires-workers": _plan(StageBinding(
        STAGE_ENTROPY, "native",
        ExecutorSpec(kind=EXECUTOR_POOL, workers=1, chunk_size=3),
    )),
    "stage.unknown-impl": _plan(StageBinding(STAGE_ENTROPY, "quantum")),
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


@pytest.mark.parametrize("label", sorted(MATRIX))
def test_every_valid_plan_is_byte_identical(label, workload):
    data, reference, reference_ops = workload
    plan = MATRIX[label]
    assert validate_plan(plan) == [], f"matrix plan {label} must be valid"
    decoder = Jpeg2000Decoder(data, plan=plan)
    try:
        image = decoder.decode()
        for ours, theirs in zip(image.components, reference.components):
            assert np.array_equal(ours, theirs), (
                f"plan {label} ({plan.digest()[:12]}) diverged from the "
                "reference image"
            )
        assert decoder.ops.counts == reference_ops.counts, (
            f"plan {label} changed the basic-operation counts"
        )
    except Exception:
        dumped = _dump_failing_plan(label, plan)
        if dumped is not None:
            print(f"failing plan dumped to {dumped}")
        raise


@pytest.mark.parametrize("rule", sorted(INVALID))
def test_invalid_plans_are_rejected_statically(rule, workload):
    data, _, _ = workload
    plan = INVALID[rule]
    with pytest.raises(PlanValidationError) as excinfo:
        Jpeg2000Decoder(data, plan=plan)
    assert rule in {issue.rule for issue in excinfo.value.issues}
