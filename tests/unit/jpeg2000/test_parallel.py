"""Unit tests of the parallel entropy-decode scheduling layer
(:mod:`repro.jpeg2000.stages.entropy`), driven through compiled plans."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
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
from repro.jpeg2000.plan import STAGE_ENTROPY, compile_plan
from repro.jpeg2000.stages import entropy
from repro.jpeg2000.stages.entropy import (
    SharedArena,
    _chunked,
    plan_chunks,
    shutdown_pool,
)
from repro.jpeg2000.t1 import CodeBlockEncoder


def _binding(options):
    """The entropy binding *options* compile to on this host."""
    return compile_plan(options).stage(STAGE_ENTROPY)


def run_pickle_tasks(tasks, options):
    """Materialised block tasks through the pickle-transport executor."""
    return entropy.run_tasks(
        tasks, _binding(replace(options, shared_memory=False)),
        schedule=options.schedule_info(),
    )


def run_plan_specs(sources, specs, options):
    """Segment-described blocks through the plan's entropy executor."""
    return entropy.run_specs(sources, specs, _binding(options))


def _decode_degraded(options):
    """Decode a tiny image under *options* (whose request the host clamps)."""
    params = CodingParameters(
        width=16, height=16, num_components=3, tile_width=16, tile_height=16,
        num_levels=1, lossless=True,
    )
    data = encode_image(synthetic_image(16, 16, 3, seed=3), params)
    Jpeg2000Decoder(data, options=options).decode()


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
        assert not options.parallel

    def test_none_workers_uses_cpu_count(self):
        options = DecodeOptions(workers=None)
        assert options.effective_workers == (os.cpu_count() or 1)

    def test_workers_clamped_to_cpu_count(self):
        cpus = os.cpu_count() or 1
        assert DecodeOptions(workers=cpus + 7).effective_workers == cpus

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
        assert not DecodeOptions(workers=1).parallel
        # Parallelism only engages when the host actually has the CPUs.
        assert DecodeOptions(workers=2).parallel == ((os.cpu_count() or 1) >= 2)


class TestChunking:
    def test_chunks_cover_in_order(self):
        tasks = list(range(10))
        chunks = list(_chunked(tasks, 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_single_chunk(self):
        assert list(_chunked([1, 2], 8)) == [[1, 2]]


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
        tasks, expected = zip(*(_encode_block(seed) for seed in range(6)))
        results = run_pickle_tasks(list(tasks), DecodeOptions())
        assert len(results) == 6
        for (values, ops), coeffs in zip(results, expected):
            assert values.tolist() == coeffs
            assert ops > 0

    def test_pool_matches_sequential(self):
        tasks, _ = zip(*(_encode_block(seed) for seed in range(9)))
        sequential = run_pickle_tasks(list(tasks), DecodeOptions())
        pooled = run_pickle_tasks(
            list(tasks), DecodeOptions(workers=2, chunk_size=2)
        )
        assert len(pooled) == len(sequential)
        for (seq_values, seq_ops), (par_values, par_ops) in zip(sequential, pooled):
            assert np.array_equal(seq_values, par_values)
            assert seq_ops == par_ops
        shutdown_pool()

    def test_empty_task_list(self):
        assert run_pickle_tasks([], DecodeOptions(workers=2)) == []

    def test_pool_failure_falls_back_to_sequential(self, monkeypatch):
        tasks, expected = zip(*(_encode_block(seed) for seed in range(3)))
        monkeypatch.setattr(
            entropy, "_get_pool", lambda workers, start_method=None: None
        )
        options_module._degradations_warned.clear()
        with pytest.warns(ParallelDegradedWarning):
            results = run_pickle_tasks(
                list(tasks), DecodeOptions(workers=4, oversubscribe=True)
            )
        for (values, _), coeffs in zip(results, expected):
            assert values.tolist() == coeffs

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
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        options = DecodeOptions(workers=4)
        assert options.requested_workers == 4
        assert options.effective_workers == 1
        assert options.degraded
        info = options.schedule_info()
        assert info["requested_workers"] == 4
        assert info["effective_workers"] == 1
        assert info["degraded"] is True
        assert info["granularity"] == "codeblock/sequential"

    def test_oversubscribe_bypasses_clamp(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        options = DecodeOptions(workers=4, oversubscribe=True)
        assert options.effective_workers == 4
        assert not options.degraded
        assert options.schedule_info()["granularity"] == "codeblock/size-aware"

    def test_pickle_transport_granularity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        options = DecodeOptions(workers=4, shared_memory=False)
        assert options.schedule_info()["granularity"] == "codeblock/fixed"

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError):
            DecodeOptions(start_method="teleport")

    def test_degraded_request_warns_once(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
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
        flat, offsets, ops = run_plan_specs(
            [source], specs, DecodeOptions(kernel=kernel)
        )
        assert len(ops) == len(specs)
        for index, coeffs in enumerate(expected):
            start, end = int(offsets[index]), int(offsets[index + 1])
            assert flat[start:end].tolist() == coeffs
            assert ops[index] > 0

    def test_shm_parallel_matches_sequential(self):
        pytest.importorskip("multiprocessing.shared_memory")
        source, specs, _ = _spec_workload(range(9))
        seq_flat, seq_offsets, seq_ops = run_plan_specs(
            [source], specs, DecodeOptions()
        )
        par_flat, par_offsets, par_ops = run_plan_specs(
            [source], specs,
            DecodeOptions(workers=2, chunk_size=2, oversubscribe=True),
        )
        assert np.array_equal(seq_flat, par_flat)
        assert np.array_equal(seq_offsets, par_offsets)
        assert seq_ops == par_ops
        shutdown_pool()

    def test_pickle_parallel_matches_sequential(self):
        source, specs, _ = _spec_workload(range(7))
        seq_flat, _, seq_ops = run_plan_specs([source], specs, DecodeOptions())
        par_flat, _, par_ops = run_plan_specs(
            [source], specs,
            DecodeOptions(
                workers=2, chunk_size=3, oversubscribe=True, shared_memory=False
            ),
        )
        assert np.array_equal(seq_flat, np.asarray(par_flat))
        assert seq_ops == par_ops
        shutdown_pool()

    def test_multiple_sources(self):
        source_a, specs_a, expected_a = _spec_workload(range(3))
        source_b, specs_b, expected_b = _spec_workload(range(10, 13))
        specs = [(0, spec) for _, spec in specs_a] + [(1, spec) for _, spec in specs_b]
        flat, offsets, ops = run_plan_specs(
            [source_a, source_b], specs, DecodeOptions()
        )
        expected = expected_a + expected_b
        for index, coeffs in enumerate(expected):
            start, end = int(offsets[index]), int(offsets[index + 1])
            assert flat[start:end].tolist() == coeffs

    def test_empty_spec_list(self):
        flat, offsets, ops = run_plan_specs([b""], [], DecodeOptions(workers=2))
        assert len(flat) == 0
        assert offsets.tolist() == [0]
        assert ops == []

    def test_no_shm_segments_leak(self):
        pytest.importorskip("multiprocessing.shared_memory")
        source, specs, _ = _spec_workload(range(5))
        run_plan_specs(
            [source], specs, DecodeOptions(workers=2, oversubscribe=True)
        )
        assert entropy._live_arenas == {}
        shutdown_pool()


def _exploding_sequential(chunk, kernel, *, parent_pid, bomb_data, marker, real):
    """Fork-inherited bomb: kill the worker process on the marked chunk,
    but only after some other chunk has completed (so the resume path has
    something to resume from)."""
    import time

    if os.getpid() != parent_pid and any(task[0] == bomb_data for task in chunk):
        deadline = time.monotonic() + 30.0
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # let the parent drain completed results
        os._exit(1)
    result = real(chunk, kernel)
    if os.getpid() != parent_pid:
        with open(marker, "w") as handle:
            handle.write("done")
    return result


class TestBrokenPoolResume:
    def test_resumes_completed_chunks_after_worker_crash(
        self, tmp_path, monkeypatch
    ):
        """Fault injection: one worker dies mid-run (fork start method, so
        the child inherits the monkeypatched chunk decoder).  The fallback
        must keep the completed chunks' results and re-decode only the
        chunks the broken pool lost."""
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only test
            pytest.skip("fork start method unavailable")
        tasks, expected = zip(*(_encode_block(seed) for seed in range(6)))
        marker = str(tmp_path / "chunk-done")
        real = entropy._decode_tasks_sequential
        parent_pid = os.getpid()
        bomb_data = tasks[-1][0]

        def bomb(chunk, kernel):
            return _exploding_sequential(
                chunk, kernel, parent_pid=parent_pid, bomb_data=bomb_data,
                marker=marker, real=real,
            )

        shutdown_pool()  # the bomb must be in place before the fork
        monkeypatch.setattr(entropy, "_decode_tasks_sequential", bomb)
        try:
            with telemetry.session(spans=True) as run:
                results = run_pickle_tasks(
                    list(tasks),
                    DecodeOptions(
                        workers=2, chunk_size=1, oversubscribe=True,
                        start_method="fork",
                    ),
                )
        finally:
            shutdown_pool()
        recorder = run.recorder
        for (values, ops), coeffs in zip(results, expected):
            assert values.tolist() == coeffs
            assert ops > 0
        counters = recorder.metrics
        assert counters.counter("jpeg2000.parallel.broken_pools") == 1
        assert counters.counter("jpeg2000.parallel.chunks_resumed") >= 1
        assert counters.counter("jpeg2000.parallel.chunks_redecoded") >= 1
        # Resume must NOT have re-decoded everything from scratch.
        assert (
            counters.counter("jpeg2000.parallel.chunks_redecoded") < len(tasks)
        )


class TestParallelObservability:
    """Worker events ride back with results and merge deterministically."""

    def test_pickle_transport_carries_worker_events(self, tmp_path):
        tasks, _ = zip(*(_encode_block(seed) for seed in range(6)))
        try:
            with telemetry.session(events=tmp_path / "e.jsonl") as run:
                run_pickle_tasks(
                    list(tasks),
                    DecodeOptions(workers=2, chunk_size=2, oversubscribe=True),
                )
        finally:
            shutdown_pool()
        log = run.log
        (fanout,) = log.select("parallel.fanout")
        assert fanout["transport"] == "pickle"
        assert fanout["chunks"] == 3
        chunks = log.select("parallel.chunk_decoded")
        assert len(chunks) == 3
        for record in chunks:
            assert record["transport"] == "pickle"
            assert record["pid"] > 0
        assert log.select("parallel.gathered")
        # Merged events are one coherent stream: one run id, unique
        # strictly-increasing sequence numbers.
        seqs = [record["seq"] for record in log.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert {record["run_id"] for record in log.events} == {log.run_id}

    def test_shm_transport_carries_worker_events(self, tmp_path):
        pytest.importorskip("multiprocessing.shared_memory")
        source, specs, _ = _spec_workload(range(6))
        try:
            with telemetry.session(events=tmp_path / "e.jsonl") as run:
                run_plan_specs(
                    [source], specs,
                    DecodeOptions(workers=2, chunk_size=2, oversubscribe=True),
                )
        finally:
            shutdown_pool()
        log = run.log
        (fanout,) = log.select("parallel.fanout")
        assert fanout["transport"] == "shm"
        chunks = log.select("parallel.chunk_decoded")
        assert chunks and all(r["transport"] == "shm" for r in chunks)
        assert all(r["pid"] > 0 for r in chunks)

    def test_workers_send_no_events_when_log_disabled(self):
        tasks, _ = zip(*(_encode_block(seed) for seed in range(4)))
        kernel = DecodeOptions().kernel
        results, events = entropy._decode_chunk((kernel, list(tasks), False))
        assert events is None
        assert len(results) == len(tasks)

    def test_degraded_counter_is_reason_labelled(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        options_module._degradations_warned.clear()
        with telemetry.session(spans=True, events=tmp_path / "e.jsonl") as run:
            with pytest.warns(ParallelDegradedWarning):
                _decode_degraded(DecodeOptions(workers=4))
        recorder, log = run.recorder, run.log
        assert recorder.metrics.counter(
            "jpeg2000.parallel.degraded_total{reason=clamped to os.cpu_count()}"
        ) == 1
        (event,) = log.select("parallel.degraded")
        assert event["reason"] == "clamped to os.cpu_count()"
        assert event["requested"] == 4
        assert event["effective"] == 1


class TestCrashReport:
    def test_worker_crash_dumps_flight_report(self, tmp_path, monkeypatch):
        """Acceptance: a worker crash mid-decode produces a crash report
        carrying the pool-broken event and the per-chunk fate map."""
        import json

        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only test
            pytest.skip("fork start method unavailable")
        tasks, expected = zip(*(_encode_block(seed) for seed in range(6)))
        marker = str(tmp_path / "chunk-done")
        real = entropy._decode_tasks_sequential
        parent_pid = os.getpid()
        bomb_data = tasks[-1][0]

        def bomb(chunk, kernel):
            return _exploding_sequential(
                chunk, kernel, parent_pid=parent_pid, bomb_data=bomb_data,
                marker=marker, real=real,
            )

        shutdown_pool()  # the bomb must be in place before the fork
        monkeypatch.setattr(entropy, "_decode_tasks_sequential", bomb)
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        try:
            with telemetry.session(events=tmp_path / "events.jsonl"):
                results = run_pickle_tasks(
                    list(tasks),
                    DecodeOptions(
                        workers=2, chunk_size=1, oversubscribe=True,
                        start_method="fork",
                    ),
                )
        finally:
            shutdown_pool()
        for (values, _), coeffs in zip(results, expected):
            assert values.tolist() == coeffs
        (report_path,) = tmp_path.glob("crash-*.json")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["reason"] == "broken-pool"
        events = [record["event"] for record in report["events"]]
        assert "parallel.pool_broken" in events
        assert "parallel.fanout" in events
        fates = set(report["chunks"].values())
        assert "redecoded" in fates  # the lost chunk was re-decoded
        assert fates <= {"submitted", "done", "resumed", "redecoded"}
        assert report["context"]["schedule"]["effective_workers"] == 2
