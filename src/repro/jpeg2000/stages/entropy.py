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

* **inline** (:func:`run_specs`): every block of the image in one
  :func:`decode_batch` call on the calling process;
* **pool** (:func:`open_stream` → :class:`SpecStream`): the tile
  buffers are placed into one shared-memory input arena verbatim, each
  tile's blocks ship to the workers in size-aware chunks the moment its
  packet headers are parsed, and the workers write the decoded
  ``int32`` coefficients straight into a shared output arena.  The only
  pickled traffic is the arena names, the block specs, and the
  per-block op counts.

Every executor — inline, pool chunk, broken-pool resume — decodes
through :func:`decode_batch`, which hands whole chunks to the native C
kernel (:func:`repro.jpeg2000.t1_native.decode_codeblock_batch`) in one
call.

Runtime degradations go straight to in-process decoding and are
reported to the caller's stage-fate recorder (the ``fates`` parameter,
duck-typed to :class:`repro.jpeg2000.driver.StageFates`), one rewrite
per cause: no pool, no arenas, a tile with a block too deep for the
int32 arena, or a pool that broke mid-decode (completed chunks are
kept, lost ones re-decoded).  Every path returns bit-identical
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
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Iterable, Optional, Sequence

import numpy as np

from ... import telemetry
from ..options import (
    ARENA_PREFIX,
    _MAX_ARENA_BITPLANES,
    BlockSpec,
    KERNEL_REFERENCE,
    _warn_degraded,
    shared_memory,
)
from ..plan import STAGE_ENTROPY, StageBinding
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


def run_specs(sources: Sequence[bytes], specs: Sequence[tuple], kernel: str):
    """Decode segment-described blocks in-process: the inline executor.

    ``sources`` are the tile-part buffers; ``specs`` is a sequence of
    ``(source_index, BlockSpec)`` in scatter order.  Returns
    ``(flat, offsets, ops)`` where ``flat`` holds every block's
    coefficients row-major at ``offsets[i]`` (a NumPy prefix-sum over
    block sizes) and ``ops[i]`` is block *i*'s basic-op count.
    """
    sizes = [spec.size for _, spec in specs]
    offsets = np.zeros(len(specs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    batch = [
        _spec_block(spec, sources[source_index], int(start))
        for (source_index, spec), start in zip(specs, offsets)
    ]
    flat = np.empty(
        int(offsets[-1]),
        dtype=_coefficient_dtype(spec.num_bitplanes for _, spec in specs),
    )
    return flat, offsets, decode_batch(batch, flat, kernel)


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
        if shared_memory is None:
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


def _decode_chunk(payload):
    """Worker entry point: decode one chunk of blocks between the arenas.

    ``payload`` is (input arena name, output arena name, kernel,
    blocks, want_events) where each block is an ``(out_offset,
    BlockSpec)`` pair whose spans point into the input arena.
    Coefficients go straight into the output arena; only (pid, per-block
    op counts, and — when the parent requested logging — the worker-side
    event dicts) travel back.
    """
    in_name, out_name, kernel, blocks, want_events = payload
    started = time.perf_counter()
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
        batch = [_spec_block(spec, src.buf, offset) for offset, spec in blocks]
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
    events = None
    if want_events:
        buffer = telemetry.capture_events()
        buffer.emit(
            "parallel.chunk_decoded", pid=os.getpid(), blocks=len(blocks),
            wall_ms=round((time.perf_counter() - started) * 1e3, 3),
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

    Built from the static facts only — the tile buffers and every code
    block's output size, both known from geometry before a single packet
    header is read — so the shared arenas exist up front.
    :meth:`submit_tile` ships one tile's chunks to the pool the moment
    its codeword spans are parsed; :meth:`drain_tile` blocks only on
    that tile's chunks.  The caller parses tile *i+1* (and gathers and
    reconstructs tile *i*) while earlier submissions are still decoding
    in the workers.

    Use :func:`open_stream`.  A tile holding a block too deep for the
    int32 arena is decoded in-process when drained; a broken pool keeps
    the completed chunks and re-decodes the missing ones in-process.
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
        self._too_deep = False
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
            telemetry.log_event(
                "parallel.stream_open",
                tiles=len(self._sources), blocks=len(sizes),
                bytes_shared=total_in + total_out * 4,
            )

    def submit_tile(self, source_index: int, specs: Sequence[BlockSpec],
                    first: int) -> None:
        """Chunk and submit one parsed tile's blocks to the pool."""
        if any(spec.num_bitplanes > _MAX_ARENA_BITPLANES for spec in specs):
            if not self._too_deep:
                self._too_deep = True
                _rewrite(self._fates, "arena-int32-unsafe",
                         "a block's bit planes exceed the int32 arena; "
                         "decoding its tile in-process")
            self._tiles[source_index] = (None, None, list(specs), first)
            return
        ex = self._binding.executor
        base = self._source_bases[source_index]
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
            "shm", "submit", "parallel", tile=source_index, chunks=len(chunks)
        ):
            for chunk in chunks:
                if self._broken:
                    # Chunks without a future are re-decoded in-process
                    # by drain_tile.
                    break
                blocks = tuple(
                    (int(self._offsets[first + local]),
                     specs[local].rebased(base))
                    for local in chunk
                )
                payload = (
                    self._in_arena.name, self._out_arena.name,
                    self._binding.impl, blocks, self._observing,
                )
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
        self._tiles[source_index] = (
            futures,
            [[first + local for local in chunk] for chunk in chunks],
            list(specs),
            first,
        )

    def _mark_broken(self) -> None:
        self._broken = True
        _close_pool()
        telemetry.count("jpeg2000.parallel.broken_pools")
        _rewrite(self._fates, "broken-pool-resume",
                 "worker pool broke mid-stream; completed chunks kept, "
                 "lost chunks re-decoded in-process")
        if self._observing:
            telemetry.log_event("parallel.pool_broken")
        flight = telemetry.flight_recorder()
        if flight is not None:
            flight.dump("broken-pool")

    def _decode_here(self, source_index: int, specs: list, first: int,
                     ids: Iterable[int], flat) -> None:
        """Decode blocks *ids* of one tile in-process into its *flat*."""
        source = self._sources[source_index]
        start = int(self._offsets[first])
        batch = [
            _spec_block(specs[block - first], source,
                        int(self._offsets[block]) - start)
            for block in ids
        ]
        for block, ops in zip(ids, decode_batch(batch, flat, self._binding.impl)):
            self._ops[block] = ops

    def drain_tile(self, source_index: int):
        """Wait for one tile's chunks; returns (flat, offsets, ops) with
        offsets local to the tile (``scatter_entropy(..., first=0)``)."""
        futures, chunk_ids, specs, first = self._tiles.pop(source_index)
        count = len(specs)
        start = int(self._offsets[first])
        end = int(self._offsets[first + count])
        offsets = self._offsets[first:first + count + 1] - start
        if futures is None:  # too deep for the int32 arena
            flat = np.empty(end - start, dtype=np.int64)
            self._decode_here(source_index, specs, first,
                              range(first, first + count), flat)
            return flat, offsets, self._ops[first:first + count]
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
                    "parallel.resumed", tile=source_index,
                    resumed=len(chunk_ids) - len(failed),
                    redecoded=len(failed),
                )
            for ids in failed:
                self._decode_here(source_index, specs, first, ids, flat)
        return flat, offsets, self._ops[first:first + count]

    def close(self) -> None:
        """Destroy the arenas (idempotent) and record pool occupancy."""
        _record_occupancy(self._blocks_by_pid)
        self._blocks_by_pid = {}
        self._in_arena.destroy()
        self._out_arena.destroy()


def _degrade(fates, schedule: Optional[dict], workers: int, rule: str,
             reason: str) -> None:
    """Warn that the pool request runs in-process and record why."""
    requested = workers if schedule is None else schedule.get(
        "requested_workers", workers
    )
    _warn_degraded(requested, 1, reason)
    _rewrite(fates, rule, f"{reason}; decoding in-process")


def open_stream(
    sources: Sequence[bytes], sizes: Sequence[int], binding: StageBinding, *,
    schedule: Optional[dict] = None, fates=None,
) -> Optional[SpecStream]:
    """A :class:`SpecStream` for the pool *binding* over *sources*.

    ``None`` when no worker pool or no shared-memory arena can be had
    here — after recording that one rewrite on *fates* — and the caller
    then decodes inline.
    """
    ex = binding.executor
    pool = _get_pool(ex.workers, ex.start_method)
    if pool is None:
        _degrade(fates, schedule, ex.workers, "pool-unavailable",
                 "worker pool unavailable")
        return None
    try:
        return SpecStream(sources, sizes, binding, pool,
                          schedule=schedule, fates=fates)
    except (OSError, PermissionError, ValueError):
        _degrade(fates, schedule, ex.workers, "arena-unavailable",
                 "shared-memory arenas unavailable")
        return None
