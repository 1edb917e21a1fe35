"""Unit tests of the parallel entropy-decode scheduling layer
(:mod:`repro.jpeg2000.stages.entropy`), driven through compiled plans."""

import os
import warnings

import numpy as np
import pytest

from repro import host, telemetry
from repro.jpeg2000 import (
    CodingParameters,
    Jpeg2000Decoder,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000 import options as options_module
from repro.jpeg2000.options import (
    KERNEL_NATIVE,
    KERNEL_REFERENCE,
    BlockSpec,
    DecodeOptions,
    ParallelDegradedWarning,
)
from repro.jpeg2000.plan import STAGE_ENTROPY, compile_plan, schedule_info
from repro.jpeg2000.stages import entropy
from repro.jpeg2000.stages.entropy import (
    SharedArena,
    plan_chunks,
    shutdown_pool,
)
from repro.jpeg2000.t1 import CodeBlockEncoder


def _binding(options):
    """The entropy binding *options* compile to on this host."""
    return compile_plan(options).stage(STAGE_ENTROPY)


def _schedule(options):
    """The schedule dict a decoder reports for *options* on this host."""
    return schedule_info(options, compile_plan(options))


def run_stream(sources, specs, options, fates=None):
    """Segment-described blocks through the pool executor, one tile per
    source; returns ``(flat, ops)`` over every block in *specs* order."""
    tiles = [
        [spec for index, spec in specs if index == source_index]
        for source_index in range(len(sources))
    ]
    stream = entropy.open_stream(
        sources, [spec.size for _, spec in specs], _binding(options),
        schedule=_schedule(options), fates=fates,
    )
    assert stream is not None
    try:
        first = 0
        for source_index, tile in enumerate(tiles):
            stream.submit_tile(source_index, tile, first)
            first += len(tile)
        drained = [stream.drain_tile(index) for index in range(len(tiles))]
    finally:
        stream.close()
    flat = np.concatenate([np.asarray(tile[0]) for tile in drained])
    return flat, [ops for tile in drained for ops in tile[2]]


def _decode_degraded(options):
    """Decode a tiny image under *options* (whose request the host clamps)."""
    params = CodingParameters(
        width=16, height=16, num_components=3, tile_width=16, tile_height=16,
        num_levels=1, lossless=True,
    )
    data = encode_image(synthetic_image(16, 16, 3, seed=3), params)
    Jpeg2000Decoder(data, options=options).decode()


POOL = DecodeOptions(workers=2, chunk_size=2, oversubscribe=True)


def _encode_block(seed: int, width: int = 8, height: int = 8, orientation: str = "HH"):
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-64, 65, size=width * height).tolist()
    result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
    return (
        (result.data, width, height, orientation, result.num_bitplanes, result.num_passes),
        coeffs,
    )


def _spec_workload(seeds):
    """Encoded blocks as one concatenated source + segment-span specs."""
    tasks, expected = zip(*(_encode_block(seed) for seed in seeds))
    source = bytearray()
    specs = []
    for data, width, height, orientation, num_bitplanes, num_passes in tasks:
        start = len(source)
        source += data
        specs.append((0, BlockSpec(
            width, height, orientation, num_bitplanes, num_passes,
            ((start, start + len(data)),),
        )))
    return bytes(source), specs, list(expected)


class TestDecodeOptions:
    def test_defaults_are_sequential_fast(self):
        options = DecodeOptions()
        assert options.workers == 0
        assert options.kernel == KERNEL_NATIVE
        assert _schedule(options)["effective_workers"] == 0

    def test_none_workers_uses_cpu_count(self):
        options = DecodeOptions(workers=None)
        assert _schedule(options)["effective_workers"] == host.host_cpus()

    def test_workers_clamped_to_cpu_count(self):
        cpus = host.host_cpus()
        schedule = _schedule(DecodeOptions(workers=cpus + 7))
        assert schedule["effective_workers"] == cpus

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            DecodeOptions(workers=-1)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            DecodeOptions(chunk_size=0)

    def test_rejects_unknown_kernel(self):
        for retired in ("simd", "fast", "batched"):
            with pytest.raises(ValueError):
                DecodeOptions(kernel=retired)

    def test_single_worker_is_not_parallel(self):
        assert _binding(DecodeOptions(workers=1)).executor.kind == "inline"
        # Parallelism only engages when the host actually has the CPUs.
        pooled = _binding(DecodeOptions(workers=2)).executor.kind == "pool"
        assert pooled == (host.host_cpus() >= 2)


class TestDecodeBlocks:
    def test_kernels_agree_per_block(self):
        task, coeffs = _encode_block(seed=1)
        native = np.zeros(64, dtype=np.int32)
        reference = np.zeros(64, dtype=np.int32)
        (native_ops,) = entropy.decode_batch([task + (0,)], native, KERNEL_NATIVE)
        (ref_ops,) = entropy.decode_batch([task + (0,)], reference, KERNEL_REFERENCE)
        assert native.tolist() == coeffs
        assert np.array_equal(native, reference)
        assert native_ops == ref_ops

    def test_sequential_order_is_preserved(self):
        """Blocks of unequal size land in order at prefix-sum offsets."""
        shapes = [(4, 8), (8, 8), (16, 4), (2, 2), (8, 16)]
        source = bytearray()
        specs, expected = [], []
        for seed, (width, height) in enumerate(shapes):
            task, coeffs = _encode_block(seed, width, height)
            start = len(source)
            source += task[0]
            specs.append((0, BlockSpec(
                width, height, task[3], task[4], task[5],
                ((start, len(source)),),
            )))
            expected.append(coeffs)
        flat, offsets, ops = entropy.run_specs(
            [bytes(source)], specs, KERNEL_NATIVE
        )
        assert offsets.tolist() == [0, 32, 96, 160, 164, 292]
        for index, coeffs in enumerate(expected):
            assert flat[offsets[index]:offsets[index + 1]].tolist() == coeffs
            assert ops[index] > 0

    def test_pool_matches_sequential(self):
        """Several tiles share the arenas: each one's spans are rebased."""
        source_a, specs_a, _ = _spec_workload(range(5))
        source_b, specs_b, _ = _spec_workload(range(10, 14))
        specs = specs_a + [(1, spec) for _, spec in specs_b]
        sequential, _, seq_ops = entropy.run_specs(
            [source_a, source_b], specs, KERNEL_NATIVE
        )
        pooled, pool_ops = run_stream([source_a, source_b], specs, POOL)
        shutdown_pool()
        assert np.array_equal(sequential, pooled)
        assert seq_ops == pool_ops

    def test_empty_task_list(self):
        flat, ops = run_stream([b""], [], POOL)
        shutdown_pool()
        assert len(flat) == 0
        assert ops == []

    def test_pool_failure_falls_back_to_sequential(self, monkeypatch):
        monkeypatch.setattr(
            entropy, "_get_pool", lambda workers, start_method=None: None
        )
        options_module._degradations_warned.clear()
        fates = _FateLog()
        with pytest.warns(ParallelDegradedWarning):
            stream = entropy.open_stream(
                [b""], [], _binding(DecodeOptions(workers=4, oversubscribe=True)),
                fates=fates,
            )
        assert stream is None
        assert fates.rules == ["pool-unavailable"]

    def test_pool_is_cached_per_worker_count(self):
        first = entropy._get_pool(2)
        second = entropy._get_pool(2)
        assert first is second
        shutdown_pool()
        assert entropy._pool is None

    def test_pool_recreated_on_start_method_change(self):
        first = entropy._get_pool(2, None)
        second = entropy._get_pool(2, "fork")
        assert first is not second
        shutdown_pool()


class TestScheduleInfo:
    def test_degraded_flags_clamped_request(self, monkeypatch):
        monkeypatch.setattr(host, "host_cpus", lambda: 1)
        info = _schedule(DecodeOptions(workers=4))
        assert info["requested_workers"] == 4
        assert info["effective_workers"] == 1
        assert info["degraded"] is True

    def test_oversubscribe_bypasses_clamp(self, monkeypatch):
        monkeypatch.setattr(host, "host_cpus", lambda: 1)
        info = _schedule(DecodeOptions(workers=4, oversubscribe=True))
        assert info["effective_workers"] == 4
        assert info["degraded"] is False

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError):
            DecodeOptions(start_method="teleport")

    def test_degraded_request_warns_once(self, monkeypatch):
        monkeypatch.setattr(host, "host_cpus", lambda: 1)
        options_module._degradations_warned.clear()
        with pytest.warns(ParallelDegradedWarning):
            _decode_degraded(DecodeOptions(workers=4))
        # Deduplicated: the same degradation does not warn a second time.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", ParallelDegradedWarning)
            _decode_degraded(DecodeOptions(workers=4))


class TestPlanChunks:
    def test_covers_every_block_once(self):
        costs = [5, 1, 9, 3, 7, 2, 8, 4]
        chunks = plan_chunks(costs, workers=2, chunk_size=3)
        seen = sorted(block for chunk in chunks for block in chunk)
        assert seen == list(range(len(costs)))

    def test_respects_chunk_size_cap(self):
        chunks = plan_chunks([1] * 20, workers=2, chunk_size=4)
        assert max(len(chunk) for chunk in chunks) <= 4

    def test_largest_first_balances_cost(self):
        # One giant block plus many small ones: the giant block must not
        # share a chunk with everything else.
        costs = [100] + [1] * 7
        chunks = plan_chunks(costs, workers=2, chunk_size=4)
        giant = next(chunk for chunk in chunks if 0 in chunk)
        loads = [sum(costs[block] for block in chunk) for chunk in chunks]
        assert giant == [0]  # scheduled alone: everything else backfills
        assert max(loads) == 100

    def test_empty(self):
        assert plan_chunks([], workers=2, chunk_size=4) == []


class TestBlockSpec:
    def test_codeword_joins_segments(self):
        spec = BlockSpec(2, 2, "HH", 3, None, ((1, 3), (5, 7)))
        assert spec.codeword(b"abcdefgh") == b"bcfg"
        assert spec.size == 4
        assert spec.cost == 5

    def test_rebased_shifts_spans(self):
        spec = BlockSpec(2, 2, "HH", 3, None, ((1, 3),))
        assert spec.rebased(10).segments == ((11, 13),)
        assert spec.rebased(0) is spec


class TestSharedArena:
    def test_registry_and_sweep(self):
        pytest.importorskip("multiprocessing.shared_memory")
        arena = SharedArena(64)
        assert arena.name in entropy._live_arenas
        arena.buf[:4] = b"abcd"
        assert bytes(arena.buf[:4]) == b"abcd"
        shutdown_pool()
        assert arena.name not in entropy._live_arenas

    def test_destroy_is_idempotent(self):
        pytest.importorskip("multiprocessing.shared_memory")
        arena = SharedArena(16)
        arena.destroy()
        arena.destroy()
        assert arena.name not in entropy._live_arenas


class TestDecodeBlocksSpec:
    @pytest.mark.parametrize("kernel", [KERNEL_NATIVE, KERNEL_REFERENCE])
    def test_sequential_kernels_agree(self, kernel):
        source, specs, expected = _spec_workload(range(6))
        flat, offsets, ops = entropy.run_specs([source], specs, kernel)
        assert len(ops) == len(specs)
        for index, coeffs in enumerate(expected):
            start, end = int(offsets[index]), int(offsets[index + 1])
            assert flat[start:end].tolist() == coeffs
            assert ops[index] > 0

    def test_shm_parallel_matches_sequential(self):
        pytest.importorskip("multiprocessing.shared_memory")
        source, specs, _ = _spec_workload(range(9))
        seq_flat, _, seq_ops = entropy.run_specs([source], specs, KERNEL_NATIVE)
        par_flat, par_ops = run_stream([source], specs, POOL)
        assert np.array_equal(seq_flat, par_flat)
        assert seq_ops == par_ops
        shutdown_pool()

    def test_multiple_sources(self):
        source_a, specs_a, expected_a = _spec_workload(range(3))
        source_b, specs_b, expected_b = _spec_workload(range(10, 13))
        specs = [(0, spec) for _, spec in specs_a] + [(1, spec) for _, spec in specs_b]
        flat, offsets, ops = entropy.run_specs(
            [source_a, source_b], specs, KERNEL_NATIVE
        )
        expected = expected_a + expected_b
        for index, coeffs in enumerate(expected):
            start, end = int(offsets[index]), int(offsets[index + 1])
            assert flat[start:end].tolist() == coeffs

    def test_empty_spec_list(self):
        flat, offsets, ops = entropy.run_specs([b""], [], KERNEL_NATIVE)
        assert len(flat) == 0
        assert offsets.tolist() == [0]
        assert ops == []

    def test_no_shm_segments_leak(self):
        pytest.importorskip("multiprocessing.shared_memory")
        source, specs, _ = _spec_workload(range(5))
        run_stream([source], specs, POOL)
        assert entropy._live_arenas == {}
        shutdown_pool()


class _FateLog:
    """A minimal stage-fate recorder: the rules rewritten, in order."""

    def __init__(self):
        self.rules = []

    def rewrite(self, stage, rule, detail):
        assert stage == STAGE_ENTROPY
        self.rules.append(rule)


def _arm_bomb(monkeypatch, marker, bomb_data):
    """Fork-inherited bomb in :func:`entropy.decode_batch`: a worker dies
    on the chunk holding *bomb_data*, but only after some other chunk has
    completed (so the resume path has something to resume from).  The
    parent process is never harmed."""
    import time

    parent_pid = os.getpid()
    real = entropy.decode_batch

    def bomb(batch, out, kernel):
        if os.getpid() != parent_pid and any(
            block[0] == bomb_data for block in batch
        ):
            deadline = time.monotonic() + 30.0
            while not os.path.exists(marker) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)  # let the parent drain completed results
            os._exit(1)
        result = real(batch, out, kernel)
        if os.getpid() != parent_pid:
            with open(marker, "w") as handle:
                handle.write("done")
        return result

    shutdown_pool()  # the bomb must be in place before the fork
    monkeypatch.setattr(entropy, "decode_batch", bomb)


#: One worker per block, forked so the workers inherit the bomb.
FORK_POOL = DecodeOptions(
    workers=2, chunk_size=1, oversubscribe=True, start_method="fork",
)


class TestBrokenPoolResume:
    def test_resumes_completed_chunks_after_worker_crash(
        self, tmp_path, monkeypatch
    ):
        """Fault injection: one worker dies mid-run.  The fallback must
        keep the completed chunks' results and re-decode only the chunks
        the broken pool lost."""
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only test
            pytest.skip("fork start method unavailable")
        source, specs, expected = _spec_workload(range(6))
        bomb_data = specs[-1][1].codeword(source)
        _arm_bomb(monkeypatch, str(tmp_path / "chunk-done"), bomb_data)
        fates = _FateLog()
        try:
            with telemetry.session(spans=True) as run:
                flat, ops = run_stream([source], specs, FORK_POOL, fates)
        finally:
            shutdown_pool()
        assert flat.tolist() == [value for coeffs in expected for value in coeffs]
        assert all(count > 0 for count in ops)
        assert fates.rules == ["broken-pool-resume"]
        counters = run.recorder.metrics
        assert counters.counter("jpeg2000.parallel.broken_pools") == 1
        assert counters.counter("jpeg2000.parallel.chunks_resumed") >= 1
        assert counters.counter("jpeg2000.parallel.chunks_redecoded") >= 1
        # Resume must NOT have re-decoded everything from scratch.
        assert (
            counters.counter("jpeg2000.parallel.chunks_redecoded") < len(specs)
        )


def _no_pool(monkeypatch):
    monkeypatch.setattr(
        entropy, "_get_pool", lambda workers, start_method=None: None
    )


def _no_arena(monkeypatch):
    def refuse(size):
        raise OSError("no shared memory here")

    monkeypatch.setattr(entropy, "SharedArena", refuse)


def _deep_blocks(monkeypatch):
    monkeypatch.setattr(entropy, "_MAX_ARENA_BITPLANES", 2)


class TestDegradation:
    """Each degradation decodes in-process and records one rewrite."""

    @pytest.mark.parametrize("cause, rule", [
        (_no_pool, "pool-unavailable"),
        (_no_arena, "arena-unavailable"),
        (_deep_blocks, "arena-int32-unsafe"),
    ], ids=["no-pool", "no-arena", "deep-block"])
    def test_one_cause_records_one_rewrite(self, monkeypatch, cause, rule):
        params = CodingParameters(
            width=32, height=32, num_components=3, tile_width=16,
            tile_height=16, num_levels=2, lossless=True,
        )
        data = encode_image(synthetic_image(32, 32, 3, seed=5), params)
        reference = Jpeg2000Decoder(
            data, options=DecodeOptions(kernel="reference", tier2="reference")
        )
        expected = reference.decode()
        cause(monkeypatch)
        decoder = Jpeg2000Decoder(data, options=POOL)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ParallelDegradedWarning)
                image = decoder.decode()
        finally:
            shutdown_pool()
        for ours, theirs in zip(image.components, expected.components):
            assert ours.tobytes() == theirs.tobytes()
        assert decoder.ops.counts == reference.ops.counts
        rules = [
            rewrite["rule"]
            for fate in decoder.fates.fates.values()
            for rewrite in fate["rewrites"]
        ]
        assert rules == [rule]
        assert decoder.fates.health()["degraded"]
        assert entropy._live_arenas == {}


class TestParallelObservability:
    """Worker events ride back with results and merge deterministically."""

    def test_shm_transport_carries_worker_events(self, tmp_path):
        pytest.importorskip("multiprocessing.shared_memory")
        source, specs, _ = _spec_workload(range(6))
        try:
            with telemetry.session(events=tmp_path / "e.jsonl") as run:
                run_stream([source], specs, POOL)
        finally:
            shutdown_pool()
        log = run.log
        (submitted,) = log.select("parallel.tile_submitted")
        assert submitted["blocks"] == 6
        chunks = log.select("parallel.chunk_decoded")
        assert len(chunks) == submitted["chunks"]
        assert all(record["pid"] > 0 for record in chunks)
        # Merged events are one coherent stream: one run id, unique
        # strictly-increasing sequence numbers.
        seqs = [record["seq"] for record in log.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert {record["run_id"] for record in log.events} == {log.run_id}

    def test_workers_send_no_events_when_log_disabled(self):
        pytest.importorskip("multiprocessing.shared_memory")
        source, specs, expected = _spec_workload(range(4))
        source_arena = SharedArena(len(source))
        source_arena.buf[:len(source)] = source
        out_arena = SharedArena(sum(spec.size for _, spec in specs) * 4)
        blocks = tuple(
            (64 * index, spec) for index, (_, spec) in enumerate(specs)
        )
        try:
            pid, ops, events = entropy._decode_chunk((
                source_arena.name, out_arena.name, KERNEL_NATIVE, blocks,
                False,
            ))
            out = np.frombuffer(out_arena.buf, dtype=np.int32).tolist()
        finally:
            source_arena.destroy()
            out_arena.destroy()
        assert events is None
        assert pid == os.getpid()
        assert len(ops) == len(specs)
        assert out == [value for coeffs in expected for value in coeffs]

    def test_degraded_counter_is_reason_labelled(self, monkeypatch, tmp_path):
        monkeypatch.setattr(host, "host_cpus", lambda: 1)
        options_module._degradations_warned.clear()
        with telemetry.session(spans=True, events=tmp_path / "e.jsonl") as run:
            with pytest.warns(ParallelDegradedWarning):
                _decode_degraded(DecodeOptions(workers=4))
        recorder, log = run.recorder, run.log
        assert recorder.metrics.counter(
            "jpeg2000.parallel.degraded_total{reason=clamped to the host CPU count}"
        ) == 1
        (event,) = log.select("parallel.degraded")
        assert event["reason"] == "clamped to the host CPU count"
        assert event["requested"] == 4
        assert event["effective"] == 1


class TestCrashReport:
    def test_worker_crash_dumps_flight_report(self, tmp_path, monkeypatch):
        """Acceptance: a worker crash mid-decode produces a crash report
        carrying the pool-broken event and the per-chunk fate map."""
        import json

        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only test
            pytest.skip("fork start method unavailable")
        source, specs, expected = _spec_workload(range(6))
        bomb_data = specs[-1][1].codeword(source)
        _arm_bomb(monkeypatch, str(tmp_path / "chunk-done"), bomb_data)
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        try:
            with telemetry.session(events=tmp_path / "events.jsonl"):
                flat, _ = run_stream([source], specs, FORK_POOL)
        finally:
            shutdown_pool()
        assert flat.tolist() == [value for coeffs in expected for value in coeffs]
        (report_path,) = tmp_path.glob("crash-*.json")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["reason"] == "broken-pool"
        events = [record["event"] for record in report["events"]]
        assert "parallel.pool_broken" in events
        assert "parallel.tile_submitted" in events
        # At the break, the lost chunk was still in flight.
        fates = set(report["chunks"].values())
        assert "submitted" in fates
        assert fates <= {"submitted", "done"}
        assert report["context"]["schedule"]["effective_workers"] == 2
        assert report["context"]["arena"]["input"]["bytes"] == len(source)
