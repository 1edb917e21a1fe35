"""The entropy stage: Tier-1 kernels and every executor that runs them.

The paper's profile (Fig. 1) puts 78–89 % of software decode time in the
arithmetic decoder, and its case study answers by parallelising exactly
that stage across tasks.  This module is the software mirror of that
move: EBCOT code blocks are coded independently, so once Tier-2 has
sliced the packet bodies into per-block codeword segments, every block
can be decoded in isolation.

Execution is *plan-driven*: the entry points (:func:`run_specs`,
:func:`run_tasks`, :func:`open_stream`) take the entropy
:class:`~repro.jpeg2000.plan.StageBinding` of a compiled
:class:`~repro.jpeg2000.plan.DecodePlan` — implementation id (kernel)
plus executor (inline / pool with transport, chunking, start method,
overlap) — never a raw options bag.  Two pool transports exist:

* **Shared-memory arenas** (``transport="arena"``): the tile buffers are
  placed into one input arena verbatim, workers attach zero-copy views
  and resolve each block's codeword from its ``(start, end)`` segment
  spans, and the decoded ``int32`` coefficients are written straight
  into a shared output arena.  The only pickled traffic is the arena
  names, the span tables, and the per-block op counts — a few kilobytes
  instead of the full coefficient planes.
* **Pickle chunks** (``transport="pickle"``): per-block codeword bytes
  ship to the workers and coefficient arrays ship back, both through the
  executor's pickle channel.

Scheduling is at *code-block* granularity in both transports.  The
arena path additionally plans its chunks **size-aware** (largest-first
into the least-loaded chunk) so one giant block cannot serialise the
tail of the decode.  Every executor — inline, pickle chunk, arena
chunk, broken-pool resume — decodes through one entry point,
:func:`decode_batch`, which hands whole chunks to the native C kernel
(:func:`repro.jpeg2000.t1_native.decode_codeblock_batch`) in one call.

Runtime degradations — arena unusable → pickle, pool unusable → inline,
broken pool → per-chunk resume — are reported to the caller's
stage-fate recorder (the ``fates`` parameter, duck-typed to
:class:`repro.jpeg2000.driver.StageFates`) so every crash report and
ledger row shows what *actually* ran, not just what was planned.

Both kernels and every transport return bit-identical coefficients and
identical basic-op counts, so the Fig. 1 / Table 1 instrumentation is
unaffected by how the work is scheduled.
"""

from __future__ import annotations

import atexit
import heapq
import math
import os
import pickle
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from multiprocessing import get_context
from typing import Iterable, Optional, Sequence

import numpy as np

from ... import telemetry
from ..options import (
    ARENA_PREFIX,
    _MAX_ARENA_BITPLANES,
    BlockSpec,
    BlockTask,
    KERNEL_REFERENCE,
    _warn_degraded,
    shared_memory,
)
from ..plan import (
    EXECUTOR_POOL,
    STAGE_ENTROPY,
    TRANSPORT_ARENA,
    TRANSPORT_PICKLE,
    StageBinding,
)
from ..t1 import CodeBlockDecoder
from ..t1_native import decode_codeblock_batch


def _rewrite(fates, rule: str, detail: str) -> None:
    """Record a runtime plan rewrite on the caller's fate map, if any."""
    if fates is not None:
        fates.rewrite(STAGE_ENTROPY, rule, detail)


def decode_batch(batch: Sequence[tuple], out, kernel: str) -> list:
    """Decode *batch* into the flat array *out*; returns per-block ops.

    Each block is ``(data, width, height, orientation, num_bitplanes,
    num_passes, out_offset)``.  Under the native kernel every block with
    at most 30 bit planes goes to C in one call; deeper blocks, and all
    blocks under the reference kernel, go through the reference
    :class:`~repro.jpeg2000.t1.CodeBlockDecoder`, whose coefficients
    need an int64 *out* when a block is that deep (callers size it).
    """
    ops = [0] * len(batch)
    native = []
    for index, block in enumerate(batch):
        if kernel != KERNEL_REFERENCE and block[4] <= _MAX_ARENA_BITPLANES:
            native.append(index)
            continue
        data, width, height, orientation, num_bitplanes, num_passes, offset = block
        decoder = CodeBlockDecoder(
            data, width, height, orientation, num_bitplanes, num_passes
        )
        out[offset:offset + width * height] = decoder.decode()
        ops[index] = decoder.ops
    if native:
        blocks = [batch[index] for index in native]
        target = out if out.dtype == np.int32 else np.zeros(len(out), np.int32)
        for index, count in zip(native, decode_codeblock_batch(blocks, target)[1]):
            ops[index] = count
        if target is not out:
            for block in blocks:
                start, end = block[6], block[6] + block[1] * block[2]
                out[start:end] = target[start:end]
    return ops


def _coefficient_dtype(bitplanes: Iterable[int]):
    """int32 unless a block is too deep for it."""
    if all(planes <= _MAX_ARENA_BITPLANES for planes in bitplanes):
        return np.int32
    return np.int64


def _spec_block(spec: BlockSpec, source, offset: int) -> tuple:
    """A :func:`decode_batch` block for *spec*, resolved in *source*."""
    return (
        spec.codeword(source), spec.width, spec.height, spec.orientation,
        spec.num_bitplanes, spec.num_passes, offset,
    )


def _decode_tasks_sequential(tasks: Sequence[BlockTask], kernel: str) -> list:
    """In-process decode of *tasks*; returns [(coefficients, ops), ...]."""
    batch = []
    offset = 0
    for task in tasks:
        batch.append(tuple(task) + (offset,))
        offset += task[1] * task[2]
    out = np.empty(offset, _coefficient_dtype(task[4] for task in tasks))
    ops = decode_batch(batch, out, kernel)
    return [
        (out[block[6]:block[6] + block[1] * block[2]], count)
        for block, count in zip(batch, ops)
    ]


def _decode_chunk(payload):
    """Pickle-transport worker entry point: decode a chunk of tasks.

    Returns ``(results, events)``: when the parent requested structured
    logging, ``events`` carries the worker-side event dicts (decoded in
    this process, under this pid) for the parent to merge in chunk
    order; otherwise it is ``None``.
    """
    kernel, tasks, want_events = payload
    if not want_events:
        return _decode_tasks_sequential(tasks, kernel), None
    import time as _time

    buffer = telemetry.capture_events()
    started = _time.perf_counter()
    results = _decode_tasks_sequential(tasks, kernel)
    buffer.emit(
        "parallel.chunk_decoded",
        pid=os.getpid(), transport="pickle", blocks=len(tasks),
        wall_ms=round((_time.perf_counter() - started) * 1e3, 3),
    )
    return results, buffer.events


def _chunked(tasks: Sequence, chunk_size: int) -> Iterable[Sequence]:
    for start in range(0, len(tasks), chunk_size):
        yield tasks[start : start + chunk_size]


def plan_chunks(costs: Sequence[int], workers: int, chunk_size: int) -> list:
    """Size-aware chunk plan: lists of block indices, balanced by cost.

    Blocks are placed largest-first into the currently lightest chunk
    (LPT scheduling), with at most ``chunk_size`` blocks per chunk and
    enough chunks for every worker to see several — so one expensive
    block cannot serialise the tail of the decode, and small blocks
    backfill around the big ones.
    """
    n = len(costs)
    if n == 0:
        return []
    num_chunks = max(math.ceil(n / chunk_size), min(n, workers * 4))
    order = sorted(range(n), key=lambda i: costs[i], reverse=True)
    chunks: list[list[int]] = [[] for _ in range(num_chunks)]
    heap = [(0, index) for index in range(num_chunks)]
    heapq.heapify(heap)
    full: list = []
    for block in order:
        cost, index = heapq.heappop(heap)
        chunks[index].append(block)
        if len(chunks[index]) < chunk_size:
            heapq.heappush(heap, (cost + costs[block], index))
        else:
            full.append(index)
    return [chunk for chunk in chunks if chunk]


# One cached pool per (worker count, start method); re-created only when
# either changes.  Spawning a pool per tile would dominate small decodes.
_pool: Optional[ProcessPoolExecutor] = None
_pool_key: Optional[tuple] = None


def _get_pool(workers: int, start_method: Optional[str] = None) -> Optional[ProcessPoolExecutor]:
    global _pool, _pool_key
    key = (workers, start_method)
    if _pool is not None and _pool_key == key:
        return _pool
    shutdown_pool()
    try:
        context = get_context(start_method) if start_method else None
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    except (OSError, PermissionError, RuntimeError, ValueError):
        return None  # no pool available here: sequential fallback
    _pool = pool
    _pool_key = key
    return pool


# -- shared-memory arenas ---------------------------------------------------------

#: Arenas created by this process and not yet unlinked.  ``shutdown_pool``
#: and the atexit hook sweep this, so segments cannot outlive the process
#: even if a decode aborted mid-flight.
_live_arenas: dict = {}


class SharedArena:
    """One shared-memory segment with create/attach/cleanup discipline.

    The creating side registers the arena in a module-level registry
    that :func:`shutdown_pool` (and interpreter exit) sweeps — so a
    worker crash, an exception mid-decode, or a forgotten handle can
    never leak a ``/dev/shm`` segment past the process.
    """

    def __init__(self, size: int):
        if shared_memory is None:  # pragma: no cover - guarded by callers
            raise OSError("multiprocessing.shared_memory unavailable")
        name = f"{ARENA_PREFIX}{os.getpid():x}-{uuid.uuid4().hex[:8]}"
        self._shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, size))
        self.size = size
        _live_arenas[self.name] = self

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def buf(self):
        return self._shm.buf

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent)."""
        _live_arenas.pop(self.name, None)
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - already gone
            pass


def _sweep_arenas() -> None:
    for arena in list(_live_arenas.values()):
        arena.destroy()


def _join_segments(view, segments) -> bytes:
    if len(segments) == 1:
        start, end = segments[0]
        return bytes(view[start:end])
    return b"".join(bytes(view[start:end]) for start, end in segments)


def _decode_chunk_shm(payload):
    """Shared-memory worker entry point: decode a chunk of block specs.

    ``payload`` is (input arena name, output arena name, kernel,
    blocks, want_events) where each block is (out_offset, width, height,
    orientation, num_bitplanes, num_passes, segments).  Coefficients go
    straight into the output arena; only (pid, per-block op counts, and
    — when the parent requested logging — the worker-side event dicts)
    travel back.
    """
    in_name, out_name, kernel, blocks, want_events = payload
    events = None
    started = None
    if want_events:
        import time as _time

        started = _time.perf_counter()
    # Attaching re-registers the segments with the resource tracker, but
    # pool children share the parent's tracker (its fd travels in the
    # spawn/fork preparation data), where the duplicate is a set add —
    # the parent's unlink unregisters exactly once.  Do NOT unregister
    # here: that would strip the parent's registration and turn its
    # unlink into tracker KeyError noise.
    src = shared_memory.SharedMemory(name=in_name)
    dst = shared_memory.SharedMemory(name=out_name)
    out = np.frombuffer(dst.buf, dtype=np.int32)
    error = None
    op_counts = None
    try:
        view = src.buf
        batch = [
            (
                _join_segments(view, segments),
                width, height, orientation, num_bitplanes, num_passes, offset,
            )
            for offset, width, height, orientation, num_bitplanes, num_passes, segments
            in blocks
        ]
        op_counts = decode_batch(batch, out, kernel)
    except BaseException as exc:
        # Carry the failure as a string: re-raising after the buffers are
        # released keeps the traceback from pinning views over the mmap,
        # which would turn close() into a BufferError that masks it.
        error = f"{type(exc).__name__}: {exc}"
    del out
    src.close()
    dst.close()
    if error is not None:
        raise RuntimeError(f"shared-memory chunk decode failed: {error}")
    if want_events:
        import time as _time

        buffer = telemetry.capture_events()
        buffer.emit(
            "parallel.chunk_decoded",
            pid=os.getpid(), transport="shm", blocks=len(blocks),
            wall_ms=round((_time.perf_counter() - started) * 1e3, 3),
        )
        events = buffer.events
    return os.getpid(), op_counts, events


def _close_pool() -> None:
    """Tear down only the cached executor (arenas untouched — the
    broken-pool resume path still reads from them)."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_key = None


def shutdown_pool() -> None:
    """Tear down the cached worker pool and any live shared-memory
    arenas (also runs at interpreter exit)."""
    _close_pool()
    _sweep_arenas()


atexit.register(shutdown_pool)


def run_tasks(
    tasks: Sequence[BlockTask], binding: StageBinding, *,
    schedule: Optional[dict] = None, fates=None,
) -> list:
    """Decode *tasks* in order; returns [(coefficient array, ops), ...].

    This is the pickle-transport executor (per-block bytes in, arrays
    out); :func:`run_specs` is the zero-copy shared-memory protocol the
    decoder itself uses.  Results are position-matched to the input
    regardless of scheduling, and the pool path is byte-identical to
    the inline one — the only observable difference is wall-clock time.

    A broken pool (a worker crashed or was killed) degrades gracefully:
    chunks that already completed keep their results, and only the
    missing chunks are re-decoded in-process.
    """
    kernel = binding.impl
    ex = binding.executor
    if ex.kind != EXECUTOR_POOL or len(tasks) <= 1:
        return _decode_tasks_sequential(tasks, kernel)
    pool = _get_pool(ex.workers, ex.start_method)
    if pool is None:
        requested = ex.workers
        if schedule is not None:
            requested = schedule.get("requested_workers", ex.workers)
        _warn_degraded(requested, 1, "worker pool unavailable")
        _rewrite(fates, "pool-unavailable",
                 "no worker pool could be created; decoding in-process")
        return _decode_tasks_sequential(tasks, kernel)
    flight = telemetry.flight_recorder()
    observing = flight is not None
    fanout = telemetry.new_span_id() if observing else None
    payloads = [
        (kernel, chunk, observing)
        for chunk in _chunked(tasks, ex.chunk_size)
    ]
    if telemetry.enabled():
        telemetry.count(
            "jpeg2000.parallel.bytes_pickled",
            sum(len(task[0]) for task in tasks),
        )
    if flight is not None:
        if schedule is not None:
            flight.set_context("schedule", schedule)
        flight.reset_chunks()
    if observing:
        telemetry.log_event(
            "parallel.fanout", span=fanout, transport="pickle",
            chunks=len(payloads), blocks=len(tasks),
            workers=ex.workers,
        )
    futures = [pool.submit(_decode_chunk, payload) for payload in payloads]
    if flight is not None:
        for index in range(len(futures)):
            flight.chunk_state(index, "submitted")
    try:
        outcomes = [future.result() for future in futures]
    except BrokenProcessPool:
        _close_pool()
        telemetry.count("jpeg2000.parallel.broken_pools")
        if observing:
            telemetry.log_event(
                "parallel.pool_broken", span=fanout, transport="pickle"
            )
        _rewrite(fates, "broken-pool-resume",
                 "worker pool broke mid-decode; completed chunks kept, "
                 "lost chunks re-decoded in-process")
        outcomes = []
        resumed = redecoded = 0
        for index, (future, payload) in enumerate(zip(futures, payloads)):
            chunk_kernel, chunk, _ = payload
            outcome = None
            if future.done() and not future.cancelled():
                try:
                    outcome = future.result()
                except BaseException:
                    outcome = None
            if outcome is None:
                outcome = (_decode_tasks_sequential(chunk, chunk_kernel), None)
                redecoded += 1
                if flight is not None:
                    flight.chunk_state(index, "redecoded")
                if observing:
                    telemetry.log_event(
                        "parallel.chunk_redecoded", span=fanout,
                        chunk=index, blocks=len(chunk),
                    )
            else:
                resumed += 1
                if flight is not None:
                    flight.chunk_state(index, "resumed")
            outcomes.append(outcome)
        telemetry.count("jpeg2000.parallel.chunks_resumed", resumed)
        telemetry.count("jpeg2000.parallel.chunks_redecoded", redecoded)
        if observing:
            telemetry.log_event(
                "parallel.resumed", span=fanout,
                resumed=resumed, redecoded=redecoded,
            )
        if flight is not None:
            flight.dump("broken-pool")
    results: list = []
    for index, (chunk_results, events) in enumerate(outcomes):
        if flight is not None and flight.chunks.get(index) == "submitted":
            flight.chunk_state(index, "done")
        telemetry.merge_worker_events(events)
        results.extend(chunk_results)
    if observing:
        telemetry.log_event(
            "parallel.gathered", span=fanout, chunks=len(outcomes),
            blocks=len(tasks),
        )
    return results


#: Bucket bounds for the per-worker occupancy histogram (blocks decoded
#: by one worker in one fan-out).
_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)


def _record_occupancy(worker_blocks: dict) -> None:
    recorder = telemetry.active()
    if recorder is None or not worker_blocks:
        return
    histogram = recorder.metrics.histogram(
        "jpeg2000.parallel.worker_blocks", _OCCUPANCY_BUCKETS
    )
    for blocks in worker_blocks.values():
        histogram.observe(blocks)


def _decode_specs_shm(sources, specs, sizes, offsets, binding, *,
                      schedule=None, fates=None):
    """The zero-copy fan-out.  Returns (flat int32 array, ops) or None.

    ``None`` means the shared-memory transport is unusable here (no shm
    support, arena creation failed, no pool) and the caller should fall
    back to the pickle transport.
    """
    if shared_memory is None:
        return None
    ex = binding.executor
    kernel = binding.impl
    workers = ex.workers
    pool = _get_pool(workers, ex.start_method)
    if pool is None:
        return None
    source_bases = []
    total_in = 0
    for source in sources:
        source_bases.append(total_in)
        total_in += len(source)
    total_out = int(offsets[-1])
    try:
        with telemetry.software_span("shm", "arena-build", "parallel"):
            in_arena = SharedArena(total_in)
            position = 0
            for source in sources:
                in_arena.buf[position:position + len(source)] = source
                position += len(source)
    except (OSError, PermissionError, ValueError):
        return None
    try:
        out_arena = SharedArena(total_out * 4)
    except (OSError, PermissionError, ValueError):
        in_arena.destroy()
        return None
    try:
        telemetry.count(
            "jpeg2000.parallel.bytes_shared", total_in + total_out * 4
        )
        flight = telemetry.flight_recorder()
        observing = flight is not None
        fanout = telemetry.new_span_id() if observing else None
        if flight is not None:
            if schedule is not None:
                flight.set_context("schedule", schedule)
            flight.set_context("arena", {
                "input": {"name": in_arena.name, "bytes": total_in},
                "output": {"name": out_arena.name, "bytes": total_out * 4},
            })
            flight.reset_chunks()
        costs = [spec.cost for _, spec in specs]
        chunks = plan_chunks(costs, workers, ex.chunk_size)
        payloads = []
        for chunk in chunks:
            blocks = []
            for index in range(len(chunk)):
                block = chunk[index]
                source_index, spec = specs[block]
                placed = spec.rebased(source_bases[source_index])
                blocks.append((
                    int(offsets[block]), placed.width, placed.height,
                    placed.orientation, placed.num_bitplanes,
                    placed.num_passes, placed.segments,
                ))
            payloads.append((
                in_arena.name, out_arena.name, kernel,
                tuple(blocks), observing,
            ))
        if telemetry.enabled():
            telemetry.count(
                "jpeg2000.parallel.bytes_pickled",
                sum(len(pickle.dumps(payload)) for payload in payloads),
            )
        if observing:
            telemetry.log_event(
                "parallel.fanout", span=fanout, transport="shm",
                chunks=len(payloads), blocks=len(specs), workers=workers,
                bytes_shared=total_in + total_out * 4,
            )
        with telemetry.software_span(
            "shm", "fanout", "parallel", chunks=len(payloads), workers=workers
        ):
            futures = [pool.submit(_decode_chunk_shm, payload) for payload in payloads]
            if flight is not None:
                for index in range(len(futures)):
                    flight.chunk_state(index, "submitted")
            ops_all: list = [0] * len(specs)
            worker_blocks: dict = {}
            failed: list = []
            broken = False
            try:
                for index, (future, chunk) in enumerate(zip(futures, chunks)):
                    pid, op_counts, events = future.result()
                    telemetry.merge_worker_events(events)
                    if flight is not None:
                        flight.chunk_state(index, "done")
                    worker_blocks[pid] = worker_blocks.get(pid, 0) + len(chunk)
                    for block, ops in zip(chunk, op_counts):
                        ops_all[block] = ops
            except BrokenProcessPool:
                broken = True
        if broken:
            _close_pool()
            telemetry.count("jpeg2000.parallel.broken_pools")
            if observing:
                telemetry.log_event(
                    "parallel.pool_broken", span=fanout, transport="shm"
                )
            _rewrite(fates, "broken-pool-resume",
                     "worker pool broke mid-decode; completed chunks kept, "
                     "lost chunks re-decoded in-process")
            resumed = 0
            for index, (future, chunk) in enumerate(zip(futures, chunks)):
                result = None
                if future.done() and not future.cancelled():
                    try:
                        result = future.result()
                    except BaseException:
                        result = None
                if result is None:
                    failed.append(chunk)
                    if flight is not None:
                        flight.chunk_state(index, "lost")
                    if observing:
                        telemetry.log_event(
                            "parallel.chunk_redecoded", span=fanout,
                            chunk=index, blocks=len(chunk),
                        )
                else:
                    pid, op_counts, events = result
                    telemetry.merge_worker_events(events)
                    if flight is not None:
                        flight.chunk_state(index, "resumed")
                    worker_blocks[pid] = worker_blocks.get(pid, 0) + len(chunk)
                    for block, ops in zip(chunk, op_counts):
                        ops_all[block] = ops
                    resumed += 1
            telemetry.count("jpeg2000.parallel.chunks_resumed", resumed)
            telemetry.count("jpeg2000.parallel.chunks_redecoded", len(failed))
            if observing:
                telemetry.log_event(
                    "parallel.resumed", span=fanout,
                    resumed=resumed, redecoded=len(failed),
                )
            if flight is not None:
                flight.dump("broken-pool")
        with telemetry.software_span("shm", "gather", "parallel"):
            flat = np.frombuffer(
                out_arena.buf, dtype=np.int32, count=total_out
            ).copy()
        _record_occupancy(worker_blocks)
        for chunk in failed:
            # Resume: only the chunks lost with the broken pool are
            # re-decoded, in-process, straight into the gathered array.
            batch = []
            for block in chunk:
                source_index, spec = specs[block]
                batch.append(_spec_block(
                    spec, sources[source_index], int(offsets[block])
                ))
            for block, ops in zip(chunk, decode_batch(batch, flat, kernel)):
                ops_all[block] = ops
        return flat, ops_all
    finally:
        in_arena.destroy()
        out_arena.destroy()


class SpecStream:
    """Producer/consumer overlap of Tier-2 parsing and Tier-1 decoding.

    Built from the static facts only — the tile buffers and every code
    block's output size, both known from geometry before a single packet
    header is read — so the shared arenas exist up front.
    :meth:`submit_tile` ships one tile's chunks to the pool the moment
    its codeword spans are parsed; :meth:`drain_tile` blocks only on
    that tile's chunks.  The caller parses tile *i+1* (and gathers and
    reconstructs tile *i*) while earlier submissions are still decoding
    in the workers — the pipeline overlap of the decode schedule.

    Use :func:`open_stream`; a broken pool degrades per chunk exactly
    like the barrier fan-out (completed chunks keep their results,
    missing ones re-decode in-process).
    """

    def __init__(self, sources: Sequence[bytes], sizes: Sequence[int],
                 binding: StageBinding, pool: ProcessPoolExecutor, *,
                 schedule: Optional[dict] = None, fates=None):
        self._binding = binding
        self._fates = fates
        self._pool = pool
        self._sources = list(sources)
        self._source_bases: list[int] = []
        total_in = 0
        for source in self._sources:
            self._source_bases.append(total_in)
            total_in += len(source)
        self._offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._offsets[1:])
        total_out = int(self._offsets[-1])
        with telemetry.software_span("shm", "arena-build", "parallel"):
            self._in_arena = SharedArena(total_in)
            position = 0
            for source in self._sources:
                self._in_arena.buf[position:position + len(source)] = source
                position += len(source)
            try:
                self._out_arena = SharedArena(total_out * 4)
            except BaseException:
                self._in_arena.destroy()
                raise
        telemetry.count(
            "jpeg2000.parallel.bytes_shared", total_in + total_out * 4
        )
        self._tiles: dict = {}
        self._ops: list = [0] * len(sizes)
        self._broken = False
        self._blocks_by_pid: dict = {}
        flight = telemetry.flight_recorder()
        self._observing = flight is not None
        if flight is not None:
            if schedule is not None:
                flight.set_context("schedule", schedule)
            flight.set_context("arena", {
                "input": {"name": self._in_arena.name, "bytes": total_in},
                "output": {"name": self._out_arena.name,
                           "bytes": total_out * 4},
            })
            flight.reset_chunks()
        if self._observing:
            telemetry.log_event(
                "parallel.stream_open", transport="shm",
                tiles=len(self._sources), blocks=len(sizes),
                bytes_shared=total_in + total_out * 4,
            )

    def submit_tile(self, source_index: int, specs: Sequence[BlockSpec],
                    first: int) -> bool:
        """Chunk and submit one parsed tile's blocks; False = unusable
        (a block cannot ride the int32 arena; caller falls back)."""
        if any(spec.num_bitplanes > _MAX_ARENA_BITPLANES for spec in specs):
            return False
        ex = self._binding.executor
        base = self._source_bases[source_index]
        costs = [spec.cost for spec in specs]
        chunks = plan_chunks(costs, ex.workers, ex.chunk_size)
        futures = []
        flight = telemetry.flight_recorder()
        if self._observing:
            telemetry.log_event(
                "parallel.tile_submitted", transport="shm",
                tile=source_index, chunks=len(chunks), blocks=len(specs),
            )
        with telemetry.software_span(
            "shm", "submit", "parallel", tile=source_index, chunks=len(chunks)
        ):
            for chunk in chunks:
                if self._broken:
                    # Chunks without a future are re-decoded in-process
                    # by drain_tile — same degradation as the barrier
                    # fan-out, just discovered at submit time.
                    break
                blocks = []
                for local in chunk:
                    placed = specs[local].rebased(base)
                    blocks.append((
                        int(self._offsets[first + local]), placed.width,
                        placed.height, placed.orientation,
                        placed.num_bitplanes, placed.num_passes,
                        placed.segments,
                    ))
                payload = (
                    self._in_arena.name, self._out_arena.name,
                    self._binding.impl, tuple(blocks), self._observing,
                )
                if telemetry.enabled():
                    telemetry.count(
                        "jpeg2000.parallel.bytes_pickled",
                        len(pickle.dumps(payload)),
                    )
                try:
                    futures.append(
                        self._pool.submit(_decode_chunk_shm, payload)
                    )
                except (BrokenProcessPool, RuntimeError):
                    self._mark_broken()
                    break
                if flight is not None:
                    flight.chunk_state(
                        f"tile{source_index}/chunk{len(futures) - 1}",
                        "submitted",
                    )
        self._tiles[source_index] = (
            futures,
            [[first + local for local in chunk] for chunk in chunks],
            list(specs),
            first,
        )
        return True

    def _mark_broken(self) -> None:
        self._broken = True
        _close_pool()
        telemetry.count("jpeg2000.parallel.broken_pools")
        _rewrite(self._fates, "broken-pool-resume",
                 "worker pool broke mid-stream; completed chunks kept, "
                 "lost chunks re-decoded in-process")
        if self._observing:
            telemetry.log_event("parallel.pool_broken", transport="shm")
        flight = telemetry.flight_recorder()
        if flight is not None:
            flight.dump("broken-pool")

    def drain_tile(self, source_index: int):
        """Wait for one tile's chunks; returns (flat, offsets, ops) with
        offsets local to the tile (``scatter_entropy(..., first=0)``)."""
        futures, chunk_ids, specs, first = self._tiles.pop(source_index)
        failed: list = []
        flight = telemetry.flight_recorder()
        with telemetry.software_span(
            "shm", "drain", "parallel", tile=source_index, chunks=len(futures)
        ):
            for index, ids in enumerate(chunk_ids):
                # A broken pool at submit time leaves trailing chunks
                # with no future; they go straight to the resume path.
                future = futures[index] if index < len(futures) else None
                result = None
                if future is None:
                    pass
                elif self._broken:
                    if future.done() and not future.cancelled():
                        try:
                            result = future.result()
                        except BaseException:
                            result = None
                else:
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        self._mark_broken()
                if result is None:
                    failed.append(ids)
                    if flight is not None:
                        flight.chunk_state(
                            f"tile{source_index}/chunk{index}", "lost"
                        )
                else:
                    pid, op_counts, events = result
                    telemetry.merge_worker_events(events)
                    if flight is not None:
                        flight.chunk_state(
                            f"tile{source_index}/chunk{index}",
                            "resumed" if self._broken else "done",
                        )
                    self._blocks_by_pid[pid] = (
                        self._blocks_by_pid.get(pid, 0) + len(ids)
                    )
                    for block, ops in zip(ids, op_counts):
                        self._ops[block] = ops
        count = len(specs)
        start = int(self._offsets[first])
        end = int(self._offsets[first + count])
        flat = np.frombuffer(
            self._out_arena.buf, dtype=np.int32,
            count=end - start, offset=start * 4,
        ).copy()
        if failed:
            telemetry.count("jpeg2000.parallel.chunks_resumed",
                            len(chunk_ids) - len(failed))
            telemetry.count("jpeg2000.parallel.chunks_redecoded", len(failed))
            if self._observing:
                telemetry.log_event(
                    "parallel.resumed", transport="shm", tile=source_index,
                    resumed=len(chunk_ids) - len(failed),
                    redecoded=len(failed),
                )
            source = self._sources[source_index]
            for ids in failed:
                batch = [
                    _spec_block(
                        specs[block - first], source,
                        int(self._offsets[block]) - start,
                    )
                    for block in ids
                ]
                counts = decode_batch(batch, flat, self._binding.impl)
                for block, ops in zip(ids, counts):
                    self._ops[block] = ops
        offsets = self._offsets[first:first + count + 1] - start
        return flat, offsets, self._ops[first:first + count]

    def close(self) -> None:
        """Destroy the arenas (idempotent) and record pool occupancy."""
        _record_occupancy(self._blocks_by_pid)
        self._blocks_by_pid = {}
        self._in_arena.destroy()
        self._out_arena.destroy()


def open_stream(
    sources: Sequence[bytes], sizes: Sequence[int], binding: StageBinding, *,
    schedule: Optional[dict] = None, fates=None,
) -> Optional[SpecStream]:
    """A :class:`SpecStream` over *sources*, or ``None`` when streaming
    is unusable here (no shared memory, no pool, non-arena executor) —
    the caller then takes the barrier schedule instead."""
    ex = binding.executor
    if (
        shared_memory is None
        or ex.kind != EXECUTOR_POOL
        or ex.transport != TRANSPORT_ARENA
    ):
        return None
    pool = _get_pool(ex.workers, ex.start_method)
    if pool is None:
        return None
    try:
        return SpecStream(sources, sizes, binding, pool,
                          schedule=schedule, fates=fates)
    except (OSError, PermissionError, ValueError):
        return None


def run_specs(
    sources: Sequence[bytes],
    specs: Sequence[tuple],
    binding: StageBinding, *,
    schedule: Optional[dict] = None,
    fates=None,
):
    """Decode segment-described blocks; the decoder's entropy fan-out.

    ``sources`` are the tile-part buffers; ``specs`` is a sequence of
    ``(source_index, BlockSpec)`` in scatter order.  Returns
    ``(flat, offsets, ops)`` where ``flat`` holds every block's
    coefficients row-major at ``offsets[i]`` (a NumPy prefix-sum over
    block sizes) and ``ops[i]`` is block *i*'s basic-op count.

    *binding* is the plan's entropy stage binding.  Transports degrade
    in order — arena (zero-copy), pickle chunks, in-process — with each
    step recorded on *fates*; all are bit-identical.
    """
    ex = binding.executor
    sizes = [spec.size for _, spec in specs]
    offsets = np.zeros(len(specs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    dtype = _coefficient_dtype(spec.num_bitplanes for _, spec in specs)
    int32_safe = dtype == np.int32
    pooled = ex.kind == EXECUTOR_POOL and len(specs) > 1
    if pooled and ex.transport == TRANSPORT_ARENA:
        if int32_safe:
            shm_result = _decode_specs_shm(
                sources, specs, sizes, offsets, binding,
                schedule=schedule, fates=fates,
            )
            if shm_result is not None:
                flat, ops = shm_result
                return flat, offsets, ops
            _rewrite(fates, "arena-unavailable",
                     "shared-memory arenas unusable; taking the pickle "
                     "transport")
        else:
            _rewrite(fates, "arena-int32-unsafe",
                     "a block's bit planes exceed the int32 arena; taking "
                     "the pickle transport")
        binding = replace(binding, executor=replace(
            ex, transport=TRANSPORT_PICKLE, overlap=False
        ))
    batch = [
        _spec_block(spec, sources[source_index], int(start))
        for (source_index, spec), start in zip(specs, offsets)
    ]
    flat = np.empty(int(offsets[-1]), dtype=dtype)
    if not pooled:
        return flat, offsets, decode_batch(batch, flat, binding.impl)
    results = run_tasks(
        [block[:6] for block in batch], binding,
        schedule=schedule, fates=fates,
    )
    ops_all = []
    for (values, ops), block in zip(results, batch):
        flat[block[6]:block[6] + block[1] * block[2]] = values
        ops_all.append(ops)
    return flat, offsets, ops_all
