"""The entropy stage: the Tier-1 kernels and the executors that run them.

The paper's profile (Fig. 1) puts 78–89 % of software decode time in the
arithmetic decoder, and its case study answers by parallelising exactly
that stage across tasks.  This module is the software mirror of that
move: EBCOT code blocks are coded independently, so once Tier-2 has
sliced the packet bodies into per-block codeword segments, every block
can be decoded in isolation.

Two executors exist; the driver picks one from the entropy
:class:`~repro.jpeg2000.plan.StageBinding` of a compiled
:class:`~repro.jpeg2000.plan.DecodePlan`:

* **inline** (:func:`run_specs`): one tile's blocks in one
  :func:`decode_batch` call on the calling process, as the driver
  reaches the tile; the native batch is split over the executor's
  ``threads`` (one per host CPU under the native kernel), whose kernel
  calls release the GIL and whose helper threads are joined before the
  call returns;
* **pool** (:func:`open_stream` → :class:`SpecStream`): each tile's
  blocks ship to the workers in size-aware chunks the moment its packet
  headers are parsed.  Like an RMI call, a chunk carries its data with
  it: the pickled payload holds the blocks' codeword bytes, and the
  reply holds the chunk's coefficients and per-block op counts.

Every executor — inline, pool chunk, broken-pool resume — decodes
through :func:`decode_batch`, which hands whole chunks to the native C
kernel (:func:`repro.jpeg2000.t1_native.decode_codeblock_batch`) in one
call.  Only the inline executor passes a thread count: pool workers and
the resume path decode on one thread, so a pool never runs workers ×
threads.

Runtime degradations go straight to in-process decoding and are
reported to the caller's stage-fate recorder (the ``fates`` parameter,
duck-typed to :class:`repro.jpeg2000.driver.StageFates`), one rewrite
per cause: no pool, or a pool that broke mid-decode (completed chunks
are kept, lost ones re-decoded).  Every path returns bit-identical
coefficients and identical basic-op counts, so the Fig. 1 / Table 1
instrumentation is unaffected by how the work is scheduled.
"""

from __future__ import annotations

import atexit
import heapq
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Iterable, Optional, Sequence

import numpy as np

from ... import telemetry
from ..options import BlockSpec, KERNEL_REFERENCE, _warn_degraded
from ..plan import STAGE_ENTROPY, StageBinding
from ..t1 import CodeBlockDecoder
from ..t1_native import MAX_BITPLANES, decode_codeblock_batch


def _rewrite(fates, rule: str, detail: str) -> None:
    """Record a runtime plan rewrite on the caller's fate map, if any."""
    if fates is not None:
        fates.rewrite(STAGE_ENTROPY, rule, detail)


def decode_batch(batch: Sequence[tuple], out, kernel: str,
                 threads: int = 1) -> list:
    """Decode *batch* into the flat array *out*; returns per-block ops.

    Each block is ``(data, width, height, orientation, num_bitplanes,
    num_passes, out_offset)``.  Under the native kernel every block with
    at most 30 bit planes goes to C in one batch, split over *threads*
    threads; deeper blocks, and all blocks under the reference kernel,
    go through the reference
    :class:`~repro.jpeg2000.t1.CodeBlockDecoder`, whose coefficients
    need an int64 *out* when a block is that deep (callers size it with
    :func:`_coefficient_dtype`).
    """
    ops = [0] * len(batch)
    native = []
    for index, block in enumerate(batch):
        if kernel != KERNEL_REFERENCE and block[4] <= MAX_BITPLANES:
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
        _, counts = decode_codeblock_batch(blocks, target, threads=threads)
        for index, count in zip(native, counts):
            ops[index] = count
        if target is not out:
            for block in blocks:
                start, end = block[6], block[6] + block[1] * block[2]
                out[start:end] = target[start:end]
    return ops


def _coefficient_dtype(bitplanes: Iterable[int]):
    """int32 unless a block is too deep for it."""
    if all(planes <= MAX_BITPLANES for planes in bitplanes):
        return np.int32
    return np.int64


def _spec_block(spec: BlockSpec, source, offset: int) -> tuple:
    """A :func:`decode_batch` block for *spec*, resolved in *source*."""
    return (
        spec.codeword(source), spec.width, spec.height, spec.orientation,
        spec.num_bitplanes, spec.num_passes, offset,
    )


def _flat_for(specs: Sequence[BlockSpec]):
    """``(flat, offsets)`` for *specs*: an uninitialised coefficient
    array and each block's start in it, row-major (a NumPy prefix-sum
    over block sizes; the last entry is the total sample count)."""
    offsets = np.zeros(len(specs) + 1, dtype=np.int64)
    np.cumsum([spec.size for spec in specs], out=offsets[1:])
    flat = np.empty(
        int(offsets[-1]),
        dtype=_coefficient_dtype(spec.num_bitplanes for spec in specs),
    )
    return flat, offsets


def run_specs(source: bytes, specs: Sequence[BlockSpec], kernel: str,
              threads: int = 1):
    """Decode one tile's blocks in-process: the inline executor.

    *source* is the tile-part buffer the specs' codeword segments point
    into; *threads* is the inline executor's thread count.  Returns
    ``(flat, offsets, ops)`` where ``flat`` holds every block's
    coefficients row-major at ``offsets[i]`` and ``ops[i]`` is block
    *i*'s basic-op count.
    """
    flat, offsets = _flat_for(specs)
    batch = [
        _spec_block(spec, source, int(start))
        for spec, start in zip(specs, offsets)
    ]
    return flat, offsets, decode_batch(batch, flat, kernel, threads)


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
    for block in order:
        cost, index = heapq.heappop(heap)
        chunks[index].append(block)
        if len(chunks[index]) < chunk_size:
            heapq.heappush(heap, (cost + costs[block], index))
    return [chunk for chunk in chunks if chunk]


# One cached pool per (worker count, start method); re-created only when
# either changes.  Spawning a pool per decode would dominate small images.
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


def shutdown_pool() -> None:
    """Tear down the cached worker pool (also runs at interpreter exit)."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_key = None


atexit.register(shutdown_pool)


def _decode_chunk(payload):
    """Worker entry point: decode one pickled chunk of blocks.

    ``payload`` is ``(kernel, blocks, want_events)`` where *blocks* are
    :func:`decode_batch` blocks carrying their codeword bytes, with
    offsets local to the chunk.  Returns ``(pid, coefficients, ops,
    events)``: the chunk's coefficients in block order, the per-block op
    counts, and — when the parent requested logging — the worker-side
    event dicts.
    """
    kernel, blocks, want_events = payload
    started = time.perf_counter()
    coefficients = np.empty(
        sum(block[1] * block[2] for block in blocks),
        dtype=_coefficient_dtype(block[4] for block in blocks),
    )
    op_counts = decode_batch(blocks, coefficients, kernel)
    events = None
    if want_events:
        buffer = telemetry.capture_events()
        buffer.emit(
            "parallel.chunk_decoded", pid=os.getpid(), blocks=len(blocks),
            wall_ms=round((time.perf_counter() - started) * 1e3, 3),
        )
        events = buffer.events
    return os.getpid(), coefficients, op_counts, events


#: Bucket bounds for the per-worker occupancy histogram (blocks decoded
#: by one worker in one decode).
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


class SpecStream:
    """The pool executor: Tier-1 chunks stream out while Tier-2 parses.

    :meth:`submit_tile` ships one tile's chunks to the pool the moment
    its codeword spans are parsed; :meth:`drain_tile` blocks only on
    that tile's chunks and places their coefficients at the tile-local
    offsets.  The caller parses tile *i+1* (and gathers and reconstructs
    tile *i*) while earlier submissions are still decoding in the
    workers.

    Use :func:`open_stream`.  A broken pool keeps the completed chunks
    and re-decodes the missing ones in-process.
    """

    def __init__(self, sources: Sequence[bytes], binding: StageBinding,
                 pool: ProcessPoolExecutor, *,
                 schedule: Optional[dict] = None, fates=None):
        self._binding = binding
        self._fates = fates
        self._pool = pool
        self._sources = list(sources)
        self._tiles: dict = {}
        self._broken = False
        self._blocks_by_pid: dict = {}
        flight = telemetry.flight_recorder()
        self._observing = flight is not None
        if flight is not None:
            if schedule is not None:
                flight.set_context("schedule", schedule)
            flight.reset_chunks()
            telemetry.log_event("parallel.stream_open", tiles=len(self._sources))

    def submit_tile(self, source_index: int, specs: Sequence[BlockSpec]) -> None:
        """Chunk and submit one parsed tile's blocks to the pool."""
        ex = self._binding.executor
        source = self._sources[source_index]
        specs = list(specs)
        chunks = plan_chunks([spec.cost for spec in specs], ex.workers,
                             ex.chunk_size)
        futures = []
        flight = telemetry.flight_recorder()
        if self._observing:
            telemetry.log_event(
                "parallel.tile_submitted",
                tile=source_index, chunks=len(chunks), blocks=len(specs),
            )
        with telemetry.software_span(
            "pool", "submit", "parallel", tile=source_index, chunks=len(chunks)
        ):
            for chunk in chunks:
                if self._broken:
                    # Chunks without a future are re-decoded in-process
                    # by drain_tile.
                    break
                blocks = []
                position = 0
                for local in chunk:
                    blocks.append(_spec_block(specs[local], source, position))
                    position += specs[local].size
                payload = (self._binding.impl, blocks, self._observing)
                if telemetry.enabled():
                    telemetry.count(
                        "jpeg2000.parallel.bytes_pickled",
                        len(pickle.dumps(payload)),
                    )
                try:
                    futures.append(self._pool.submit(_decode_chunk, payload))
                except (BrokenProcessPool, RuntimeError):
                    self._mark_broken()
                    break
                if flight is not None:
                    flight.chunk_state(
                        f"tile{source_index}/chunk{len(futures) - 1}",
                        "submitted",
                    )
        self._tiles[source_index] = (futures, chunks, specs)

    def _mark_broken(self) -> None:
        self._broken = True
        shutdown_pool()
        telemetry.count("jpeg2000.parallel.broken_pools")
        _rewrite(self._fates, "broken-pool-resume",
                 "worker pool broke mid-stream; completed chunks kept, "
                 "lost chunks re-decoded in-process")
        if self._observing:
            telemetry.log_event("parallel.pool_broken")
        flight = telemetry.flight_recorder()
        if flight is not None:
            flight.dump("broken-pool")

    def _result(self, futures: list, index: int):
        """Chunk *index*'s worker result, or ``None`` when it was lost."""
        # A broken pool at submit time leaves trailing chunks with no
        # future; they go straight to the resume path.
        if index >= len(futures):
            return None
        future = futures[index]
        if self._broken:
            if future.done() and not future.cancelled():
                try:
                    return future.result()
                except Exception:  # lost with the pool: re-decoded here
                    return None
            return None
        try:
            return future.result()
        except BrokenProcessPool:
            self._mark_broken()
            return None

    def drain_tile(self, source_index: int):
        """Wait for one tile's chunks; returns ``(flat, offsets, ops)``
        as :func:`run_specs` does for the tile."""
        futures, chunks, specs = self._tiles.pop(source_index)
        flat, offsets = _flat_for(specs)
        ops = [0] * len(specs)
        failed: list = []
        flight = telemetry.flight_recorder()
        with telemetry.software_span(
            "pool", "drain", "parallel", tile=source_index, chunks=len(futures)
        ):
            for index, chunk in enumerate(chunks):
                result = self._result(futures, index)
                state = "lost"
                if result is None:
                    failed.append(chunk)
                else:
                    state = "resumed" if self._broken else "done"
                    pid, coefficients, chunk_ops, events = result
                    telemetry.merge_worker_events(events)
                    self._blocks_by_pid[pid] = (
                        self._blocks_by_pid.get(pid, 0) + len(chunk)
                    )
                    position = 0
                    for local, count in zip(chunk, chunk_ops):
                        start, size = int(offsets[local]), specs[local].size
                        flat[start:start + size] = (
                            coefficients[position:position + size]
                        )
                        position += size
                        ops[local] = count
                if flight is not None:
                    flight.chunk_state(
                        f"tile{source_index}/chunk{index}", state
                    )
        if failed:
            telemetry.count("jpeg2000.parallel.chunks_resumed",
                            len(chunks) - len(failed))
            telemetry.count("jpeg2000.parallel.chunks_redecoded", len(failed))
            if self._observing:
                telemetry.log_event(
                    "parallel.resumed", tile=source_index,
                    resumed=len(chunks) - len(failed), redecoded=len(failed),
                )
            source = self._sources[source_index]
            lost = [local for chunk in failed for local in chunk]
            batch = [
                _spec_block(specs[local], source, int(offsets[local]))
                for local in lost
            ]
            for local, count in zip(
                lost, decode_batch(batch, flat, self._binding.impl)
            ):
                ops[local] = count
        return flat, offsets, ops

    def close(self) -> None:
        """Record pool occupancy (idempotent); the pool stays cached."""
        _record_occupancy(self._blocks_by_pid)
        self._blocks_by_pid = {}


def open_stream(
    sources: Sequence[bytes], binding: StageBinding, *,
    schedule: Optional[dict] = None, fates=None,
) -> Optional[SpecStream]:
    """A :class:`SpecStream` for the pool *binding* over *sources*.

    ``None`` when no worker pool can be had here — after warning and
    recording that one rewrite on *fates* — and the caller then decodes
    inline.
    """
    ex = binding.executor
    pool = _get_pool(ex.workers, ex.start_method)
    if pool is not None:
        return SpecStream(sources, binding, pool,
                          schedule=schedule, fates=fates)
    reason = "worker pool unavailable"
    requested = ex.workers if schedule is None else schedule.get(
        "requested_workers", ex.workers
    )
    _warn_degraded(requested, 1, reason)
    _rewrite(fates, "pool-unavailable", f"{reason}; decoding in-process")
    return None
