"""Wall-clock benchmark of the entropy-decode hot path (16-tile workload).

The paper's bottleneck stage, measured for real: the paper workload
(512x512 RGB in 128x128 tiles, Table 1's "16 tiles with 3 components")
is decoded four ways —

* ``reference-sequential`` — the readable ``t1``/``mq`` specification
  kernel, one block after another (the seed decode path);
* ``native-sequential`` — the native C kernel (``t1_native.c``), every
  code block of the image in one kernel call, one process;
* ``parallel-shm-4`` — 4 workers over the zero-copy shared-memory
  arenas with size-aware code-block scheduling;
* ``parallel-pickle-4`` — 4 workers over the legacy pickle transport
  (the IPC-tax baseline the shared-memory path exists to beat).

All modes must produce byte-identical images and identical op counts.
Each timed decode runs in a **fresh subprocess** (interleaved rounds,
best-of-N), because in-process back-to-back decodes let heap growth and
allocator state from earlier runs leak into later measurements.  The
timings, speedups, and each variant's scheduling metadata (requested vs
effective workers, granularity, degraded flag) are persisted to
``BENCH_decode.json`` at the repository root as the performance
trajectory for future PRs — on a 1-CPU host the "parallel" rows are
honestly recorded as degraded sequential runs instead of silently
passing for parallel numbers.

Run with ``python -m pytest benchmarks/test_wallclock_decode.py -m slow``;
it is skipped by default because the decodes take minutes.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from repro.jpeg2000 import (
    CodingParameters,
    encode_image,
    synthetic_image,
)
from repro.reporting import DecodeBench, Table
from repro.tools.sentinel import DEFAULT_TOLERANCE

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_decode.json"

#: Paper workload geometry (Table 1): 512x512 RGB in 128x128 tiles.
SIZE = 512
TILE = 128

#: Seed decoder wall clock on this workload, measured at commit 4d1e732
#: (before the fast kernel / parallel path existed).  Fixed trajectory
#: anchor — do not update when the code gets faster.
SEED_SECONDS = {"lossless": 17.906, "lossy": 15.487}

#: The decode schedules under comparison, as DecodeOptions kwargs
#: (kwargs, not objects, so they serialise into the child process).
#: The reference row pins the whole specification path — bit-by-bit
#: Tier-2 reader included — so the fast rows are measured against the
#: readable decoder, not a half-optimised hybrid.
MODES = {
    "reference-sequential": {"kernel": "reference", "tier2": "reference"},
    "native-sequential": {},
    "parallel-shm-4": {"workers": 4, "chunk_size": 8},
    "parallel-pickle-4": {"workers": 4, "chunk_size": 8, "shared_memory": False},
}

#: Batched-sequential wall clock of the retired Python kernel (schema v4
#: ``BENCH_decode.json``, 1-CPU host) — the native-kernel gate anchors
#: against it: the C kernel replaced both Python kernels on the promise
#: of >= 5x end to end.  Per-run spread on a shared host is wide —
#: interleaved same-code runs swing +/-13% — so the gate is applied
#: with the sentinel's noise band (``DEFAULT_TOLERANCE``) on top.
PREV_BATCHED_SECONDS = {"lossless": 2.3842, "lossy": 2.3409}
PREV_GATE = {"lossless": 5.0, "lossy": 5.0}

#: Interleaved timing rounds per variant (best-of).  The reference
#: kernel is ~2x slower per decode, so it gets fewer rounds.
ROUNDS = {"reference-sequential": 2}
DEFAULT_ROUNDS = 3

#: Child process body: decode the codestream file once under the given
#: options, print seconds + image digests + op counts + schedule facts.
#: The SEED_SECONDS anchor predates this harness but was also measured
#: on a fresh interpreter (one decode per process), so best-of-N fresh
#: subprocess numbers are directly comparable to it.
_CHILD_BENCH = """
import hashlib, json, pathlib, sys, time, warnings
from repro.jpeg2000 import DecodeOptions, Jpeg2000Decoder, shutdown_pool
from repro import telemetry
from repro.telemetry.export import stage_shares

codestream = pathlib.Path(sys.argv[1]).read_bytes()
options = DecodeOptions(**json.loads(sys.argv[2]))
# "stages" runs are instrumented (telemetry recorder active) and exist
# only to harvest the per-stage decomposition; their wall clock is
# discarded so the timed runs keep the exact uninstrumented protocol.
profile = len(sys.argv) > 3 and sys.argv[3] == "stages"
recorder = telemetry.install() if profile else None
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # degradation is reported via schedule_info
    decoder = Jpeg2000Decoder(codestream, options=options)
    t0 = time.perf_counter()
    image = decoder.decode()
    elapsed = time.perf_counter() - t0
    shutdown_pool()
digests = [
    hashlib.sha256(
        repr((c.dtype.str, c.shape)).encode() + c.tobytes()
    ).hexdigest()
    for c in image.components
]
payload = {
    "seconds": elapsed,
    "digests": digests,
    "ops": {k: int(v) for k, v in decoder.ops.counts.items()},
    "schedule": options.schedule_info(),
    "plan": {"digest": decoder.plan.digest(), **decoder.plan.as_dict()},
}
if recorder is not None:
    payload["stage_shares"] = stage_shares(recorder)
print(json.dumps(payload))
"""


def _codestream(lossless: bool) -> bytes:
    image = synthetic_image(SIZE, SIZE, 3, seed=2008)
    params = CodingParameters(
        width=SIZE,
        height=SIZE,
        num_components=3,
        tile_width=TILE,
        tile_height=TILE,
        num_levels=3,
        lossless=lossless,
        base_step=1 / 8,
    )
    return encode_image(image, params)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _timed_decode(codestream_path: str, options_kwargs: dict, env: dict,
                  stages: bool = False) -> dict:
    argv = [sys.executable, "-c", _CHILD_BENCH, codestream_path,
            json.dumps(options_kwargs)]
    if stages:
        argv.append("stages")
    out = subprocess.run(
        argv, capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.slow
def test_wallclock_16_tile_decode(emit):
    bench = DecodeBench(
        workload={
            "image": f"{SIZE}x{SIZE} RGB synthetic (seed 2008)",
            "tiles": (SIZE // TILE) ** 2,
            "tile_size": TILE,
            "num_levels": 3,
            "protocol": "fresh subprocess per decode, interleaved best-of-N",
        },
        baseline="reference-sequential",
        seed_baseline_seconds=SEED_SECONDS,
    )
    table = Table(
        ["mode", "schedule", "seconds", "speedup vs reference", "speedup vs seed"],
        title="Entropy-decode wall clock - 16-tile workload",
    )
    env = _child_env()
    max_rounds = max(DEFAULT_ROUNDS, *ROUNDS.values())
    for mode_name, lossless in (("lossless", True), ("lossy", False)):
        codestream = _codestream(lossless)
        with tempfile.NamedTemporaryFile(suffix=".j2c", delete=False) as handle:
            handle.write(codestream)
            codestream_path = handle.name
        try:
            best = {schedule: float("inf") for schedule in MODES}
            digests = {}
            ops = {}
            # Interleaved rounds: one run of every variant per round, so
            # a transient load spike on the host degrades all variants
            # instead of silently biasing one.
            for round_index in range(max_rounds):
                for schedule, options_kwargs in MODES.items():
                    if round_index >= ROUNDS.get(schedule, DEFAULT_ROUNDS):
                        continue
                    result = _timed_decode(codestream_path, options_kwargs, env)
                    best[schedule] = min(best[schedule], result["seconds"])
                    if round_index == 0:
                        digests[schedule] = result["digests"]
                        ops[schedule] = result["ops"]
                        bench.record_schedule(schedule, result["schedule"])
                        bench.record_plan(schedule, result["plan"])
            # One extra instrumented decode per variant harvests the
            # stage decomposition (timing discarded — see _CHILD_BENCH).
            for schedule, options_kwargs in MODES.items():
                profiled = _timed_decode(
                    codestream_path, options_kwargs, env, stages=True
                )
                bench.record_stages(
                    mode_name, schedule, profiled.get("stage_shares", {})
                )
        finally:
            os.unlink(codestream_path)
        for schedule, seconds in best.items():
            bench.record(mode_name, schedule, seconds)
        # Every transport and kernel must be byte-identical to the
        # reference, and the modelled op counts must not depend on
        # kernel or scheduling.
        for schedule in MODES:
            assert digests[schedule] == digests["reference-sequential"], (
                f"{mode_name}/{schedule} image differs from reference"
            )
            assert ops[schedule] == ops["reference-sequential"], (
                f"{mode_name}/{schedule} op counts differ from reference"
            )
        timings = bench.modes[mode_name]
        speedups = bench.speedups(mode_name)
        for schedule in MODES:
            table.add_row(
                mode_name,
                bench.label(schedule),
                round(timings[schedule], 3),
                speedups.get(schedule, 1.0),
                round(SEED_SECONDS[mode_name] / timings[schedule], 2),
            )
        table.add_separator()
    emit(table, "wallclock_decode")
    payload = bench.write(BENCH_FILE, byte_identical=True, op_counts_identical=True)

    # Acceptance gates: the native kernel holds its >= 5x win over the
    # retired batched Python kernel within the sentinel noise band.
    # Speedup gates on degraded
    # schedules are skipped — the row is recorded and flagged, because a
    # clamped 1-worker "parallel" run proves nothing either way.
    for mode_name in ("lossless", "lossy"):
        entry = payload["modes"][mode_name]
        seconds = entry["seconds"]
        assert (
            seconds["native-sequential"]
            <= PREV_BATCHED_SECONDS[mode_name] / PREV_GATE[mode_name]
            * (1.0 + DEFAULT_TOLERANCE)
        ), (
            f"native-sequential lost its {PREV_GATE[mode_name]}x win over "
            f"the retired batched kernel beyond the sentinel noise band"
        )
        shares = entry["stage_shares"]["native-sequential"]
        assert shares, "instrumented decode produced no stage spans"
        assert set(shares) <= {
            "t2_parse", "t1_decode", "idwt", "dequant_mct", "gather",
        }
        if not bench.degraded("parallel-shm-4"):
            assert entry["speedup_vs_seed"]["parallel-shm-4"] >= 2.0
            if (os.cpu_count() or 1) >= 4:
                assert (
                    seconds["native-sequential"] / seconds["parallel-shm-4"]
                    >= 1.5
                ), "shared-memory parallel decode under 1.5x on a multi-core host"
    assert payload["schedules"]["parallel-shm-4"]["granularity"] in (
        "codeblock/size-aware", "codeblock/sequential",
    )
    # Every recorded row is labelled by the compiled plan that ran it.
    for schedule in MODES:
        plan_record = payload["plans"][schedule]
        assert len(plan_record["digest"]) == 64
        assert [s["stage"] for s in plan_record["stages"]] == [
            "parse", "entropy", "reconstruct", "assemble",
        ]
    assert BENCH_FILE.exists()
