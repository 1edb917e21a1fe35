"""The native kernels: build, load, and call ``t1_native.c``.

The C source is a direct port of the reference Tier-1 coder in both
directions — :class:`~repro.jpeg2000.t1.CodeBlockDecoder` over
:class:`~repro.jpeg2000.mq.MqDecoder` for decoding, and
:class:`~repro.jpeg2000.t1.CodeBlockEncoder` over
:class:`~repro.jpeg2000.mq.MqEncoder` for encoding — the entropy stage
refined one implementation level down, bit-for-bit and op-count
identical to the specification coder.  The same library carries the
reconstruct kernel (:func:`reconstruct_tile`): the gather, inverse
quantisation and inverse DWT of one tile, sample-for-sample identical
to the vectorised NumPy stages it refines.

On first use in a process the source is compiled with the host C
compiler (portable ``-O2``, no ``-march=native``, and
``-ffp-contract=off`` so no multiply-add is fused) into the experiment
cache root — ``$REPRO_CACHE_DIR`` when set, else ``./.repro_cache`` —
as ``native/<sha256 of source + compiler + flags + machine>.so``.  The
compiler writes a temporary name that is ``os.replace``-d into place,
so processes racing on an empty directory each end with a complete
library.  The library is loaded once per process through ``ctypes``;
when no compiler is found or the build fails, :func:`available` is
false: the planner binds the reference decoder and the vectorised
reconstruct, and the encoder codes every block with the reference
coder instead.

``ctypes`` releases the GIL around each kernel call, so
:func:`decode_codeblock_batch` can split one batch over several threads
of the calling process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import threading
import uuid
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import dwt
from .t1 import CodeBlockResult

SOURCE = Path(__file__).with_name("t1_native.c")
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")

#: Geometry the kernel accepts (T.800 caps code blocks at 4096 samples,
#: neither side above 1024).  Blocks with more bit planes than
#: ``MAX_BITPLANES`` do not fit the int32 output; callers route them to
#: the reference kernel.
MAX_SIDE = 1024
MAX_AREA = 4096
MAX_BITPLANES = 30

#: Orientation names -> the kernel's orientation codes.
ORIENTATIONS = {"LL": 0, "HL": 1, "LH": 2, "HH": 3}

#: Columns of the per-block int64 table handed to the decoder.
_FIELDS = 8

#: Columns of the encoder's per-block int64 tables: ``meta`` in,
#: ``results`` out (start, length, passes, planes, ops, pass lengths).
_ENCODE_FIELDS = 4
_RESULT_FIELDS = 5 + 3 * MAX_BITPLANES - 2

#: The inverse 9/7 lifting constants in the order ``reconstruct_tile``
#: applies them, signed as :func:`~repro.jpeg2000.dwt.idwt97_1d` uses
#: them, then its two scale factors.
_LIFTING = np.array([
    -dwt.DELTA, -dwt.GAMMA, -dwt.BETA, -dwt.ALPHA, dwt.KAPPA, 1.0 / dwt.KAPPA,
])

#: Columns of ``reconstruct_tile``'s block and level tables.
BLOCK_FIELDS = 5
LEVEL_FIELDS = 2

#: ``t1_encode_batch`` statuses.
_FULL = 1
_REJECT = 2

#: A batched decode task: (data, width, height, orientation,
#: num_bitplanes, num_passes, out_offset).
BatchBlock = tuple


class NativeUnavailable(RuntimeError):
    """The native kernel cannot be built or loaded on this host."""


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return shutil.which(name)
    return None


def library_path(compiler: str) -> Path:
    """Where the library for *compiler* lives in the cache root."""
    from ..experiments.cache import default_cache_dir

    real = os.path.realpath(compiler)
    stat = os.stat(real)
    digest = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        f"{real}:{stat.st_size}:{stat.st_mtime_ns}".encode(),
        " ".join(FLAGS).encode(),
        f"{sys.platform}-{platform.machine()}".encode(),
    ):
        digest.update(part)
        digest.update(b"\x00")
    return default_cache_dir() / "native" / f"{digest.hexdigest()}.so"


def _build(compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(f".{target.stem}-{uuid.uuid4().hex}.tmp")
    try:
        result = subprocess.run(
            [compiler, *FLAGS, "-o", str(temporary), str(SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        if result.returncode != 0:
            raise NativeUnavailable(
                f"{compiler} failed: {result.stderr.strip()[-500:]}"
            )
        os.replace(temporary, target)
    finally:
        temporary.unlink(missing_ok=True)


@lru_cache(maxsize=1)
def _load():
    """``(library, None)`` or ``(None, reason)``; tried once per process."""
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler found (set CC or install cc)"
    try:
        target = library_path(compiler)
        if not target.is_file():
            _build(compiler, target)
        library = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError, NativeUnavailable) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    function = library.t1_decode_batch
    function.restype = ctypes.c_int64
    function.argtypes = (
        ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
    )
    function = library.t1_encode_batch
    function.restype = ctypes.c_int64
    function.argtypes = (
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
    )
    function = library.reconstruct_tile
    function.restype = ctypes.c_int64
    function.argtypes = (
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    )
    return library, None


def available() -> bool:
    """True when the native kernels are built and loaded in this process."""
    return _load()[0] is not None


def _orientation_code(width: int, height: int, orientation: str) -> int:
    """The kernel's code for *orientation*, once the block's geometry and
    orientation are known to be ones the kernel accepts."""
    code = ORIENTATIONS.get(orientation)
    if code is None:
        raise ValueError(f"unknown subband orientation {orientation!r}")
    if not (1 <= width <= MAX_SIDE and 1 <= height <= MAX_SIDE
            and width * height <= MAX_AREA):
        raise ValueError(
            f"code block {width}x{height} outside the native kernel's "
            f"geometry (sides 1..{MAX_SIDE}, at most {MAX_AREA} samples)"
        )
    return code


def _runs(costs, threads: int) -> list:
    """``[first, last)`` row ranges cutting a batch into at most
    *threads* contiguous runs of about equal total cost.

    A row goes to the run its cost's midpoint falls in, so a cut lands
    on the row boundary nearest each equal share; runs left empty by one
    dominant row are dropped.
    """
    count = len(costs)
    if threads <= 1 or count <= 1:
        return [(0, count)]
    threads = min(threads, count)
    ends = np.cumsum(costs)
    shares = ends[-1] * np.arange(1, threads) / threads
    cuts = np.searchsorted(ends - np.asarray(costs) / 2, shares).tolist()
    bounds = [0, *cuts, count]
    return [(first, last) for first, last in zip(bounds, bounds[1:])
            if last > first]


def decode_codeblock_batch(blocks: Sequence[BatchBlock], out=None,
                           threads: int = 1):
    """Decode a chunk of code blocks through the native kernel.

    Each block is ``(data, width, height, orientation, num_bitplanes,
    num_passes, out_offset)``; ``num_passes=None`` decodes every pass.
    Coefficients are written row-major into the flat ``int32`` array
    *out* at each block's offset (``None`` allocates one sized to the
    batch, gaps zeroed).  Returns ``(out, ops)`` with ``ops[i]`` block
    *i*'s basic-op count, identical to the reference kernel's.

    Geometry is validated before any pointer reaches C: ``ValueError``
    for a side outside [1, 1024], more than 4096 samples, an unknown
    orientation, more than 30 bit planes, or a block overrunning *out*.

    With *threads* above 1 the blocks are cut into that many contiguous
    runs of about equal codeword bytes, each decoded by one kernel call
    (which releases the GIL) on its own thread: one on the calling
    thread, the others on helper threads started after validation and
    joined before this returns.  Blocks must not overlap in *out*; the
    result is identical for every thread count.
    """
    library, reason = _load()
    if library is None:
        raise NativeUnavailable(reason)
    count = len(blocks)
    meta = np.empty((count, _FIELDS), dtype=np.int64)
    codewords = []
    position = 0
    extent = 0
    for index, (data, width, height, orientation, planes, passes, offset) in (
        enumerate(blocks)
    ):
        code = _orientation_code(width, height, orientation)
        if planes > MAX_BITPLANES:
            raise ValueError(
                f"{planes} bit planes exceed the int32 output "
                f"(at most {MAX_BITPLANES}); use the reference kernel"
            )
        if offset < 0:
            raise ValueError(f"negative output offset {offset}")
        limit = 3 * planes - 2 if passes is None else passes
        meta[index] = (position, len(data), width, height, code, planes,
                       limit, offset)
        codewords.append(data)
        position += len(data)
        extent = max(extent, offset + width * height)
    if out is None:
        out = np.zeros(extent, dtype=np.int32)
    elif (not isinstance(out, np.ndarray) or out.dtype != np.int32
          or out.ndim != 1 or not out.flags.c_contiguous
          or not out.flags.writeable):
        raise ValueError("out must be a writeable contiguous 1-D int32 array")
    if extent > len(out):
        raise ValueError(
            f"batch writes {extent} samples into an output of {len(out)}"
        )
    ops = np.zeros(count, dtype=np.int64)
    payload = b"".join(codewords)
    runs = _runs(meta[:, 1] + 1, threads)
    statuses = [0] * len(runs)

    def decode(run: int) -> None:
        first, last = runs[run]
        statuses[run] = library.t1_decode_batch(
            last - first, payload, len(payload),
            meta.ctypes.data + first * meta.strides[0], out.ctypes.data,
            len(out), ops.ctypes.data + first * ops.strides[0],
        )

    started = []
    try:
        for run in range(1, len(runs)):
            helper = threading.Thread(target=decode, args=(run,))
            helper.start()
            started.append(helper)
        decode(0)
    finally:
        for helper in started:
            helper.join()
    for (first, _), status in zip(runs, statuses):
        if status == -1:
            raise MemoryError("native Tier-1 kernel could not allocate scratch")
        if status:
            raise ValueError(f"native kernel rejected block {first + status - 1}")
    return out, ops.tolist()


def _capacity(samples, planes):
    """First-try segment room per block (ints or arrays): comfortably
    above what MQ emits for real or random coefficients.  A block that
    outgrows it is resumed with :func:`_worst_case` room."""
    return (samples * (planes + 1) * 5) // 32 + 16


def _worst_case(samples: int, planes: int) -> int:
    """Bytes one block can never exceed: at most 2.5 decisions per sample
    and plane, 15 renormalisation shifts per decision, a byte per 7
    shifts, plus the sentinel and the flush."""
    return (3 * samples * planes * 15) // 7 + 8


def encode_codeblock_batch(blocks: Sequence[tuple]) -> list:
    """Encode a chunk of code blocks through the native kernel.

    Each block is ``(coefficients, width, height, orientation)`` with
    *coefficients* any integer array-like of ``width * height`` signed
    values in row-major order.  Returns one
    :class:`~repro.jpeg2000.t1.CodeBlockResult` per block, identical to
    ``CodeBlockEncoder(...).encode()`` — segment bytes, pass and
    bit-plane counts, pass lengths and basic-op count.

    Everything is validated before any pointer reaches C: ``ValueError``
    for a side outside [1, 1024], more than 4096 samples, a coefficient
    count that does not match the geometry, an unknown orientation, or
    more than 30 bit planes (a magnitude of ``2**30`` or more).
    """
    library, reason = _load()
    if library is None:
        raise NativeUnavailable(reason)
    count = len(blocks)
    if count == 0:
        return []
    meta = np.empty((count, _ENCODE_FIELDS), dtype=np.int64)
    arrays = []
    offset = 0
    for index, (coefficients, width, height, orientation) in enumerate(blocks):
        code = _orientation_code(width, height, orientation)
        values = np.asarray(coefficients, dtype=np.int64).reshape(-1)
        if values.size != width * height:
            raise ValueError("coefficient count does not match block dimensions")
        meta[index] = (offset, width, height, code)
        arrays.append(values)
        offset += values.size
    flat = np.concatenate(arrays)
    peaks = np.maximum.reduceat(np.abs(flat), meta[:, 0])
    if peaks.max() >> MAX_BITPLANES:
        index = int(np.argmax(peaks >> MAX_BITPLANES))
        raise ValueError(
            f"block {index} needs {int(peaks[index]).bit_length()} bit planes "
            f"(at most {MAX_BITPLANES}); use the reference coder"
        )
    coefficients = flat.astype(np.int32)
    samples = meta[:, 1] * meta[:, 2]
    depths = np.array([int(peak).bit_length() for peak in peaks])
    results = np.zeros((count, _RESULT_FIELDS), dtype=np.int64)
    done = ctypes.c_int64(0)
    coded = []
    first = 0
    room = int(_capacity(samples, depths).sum())
    while first < count:
        out = np.empty(max(room, 1), dtype=np.uint8)
        status = library.t1_encode_batch(
            count - first, coefficients.ctypes.data, len(coefficients),
            meta[first:].ctypes.data, out.ctypes.data, len(out),
            results[first:].ctypes.data, ctypes.byref(done),
        )
        if status == -1:
            raise MemoryError("native Tier-1 kernel could not allocate scratch")
        if status == _REJECT:
            raise ValueError(f"native kernel rejected block {first + done.value}")
        for row in results[first:first + done.value].tolist():
            start, length, passes, planes, ops = row[:5]
            coded.append(CodeBlockResult(
                out[start:start + length].tobytes(), passes, planes, ops,
                row[5:5 + passes],
            ))
        first += done.value
        if status == _FULL:
            room = max(2 * room, _worst_case(int(samples[first]),
                                             int(depths[first])))
    return coded


def _table(array, columns: int, name: str):
    if (not isinstance(array, np.ndarray) or array.dtype != np.int64
            or array.ndim != 2 or array.shape[1] != columns
            or not array.flags.c_contiguous):
        raise ValueError(f"{name} must be a contiguous int64 table of "
                         f"{columns} columns")


def reconstruct_tile(flat, offsets, blocks_per_component: int, blocks,
                     levels, shape: tuple, deltas=None):
    """Gather, dequantise and inverse-DWT one tile in one native call.

    *flat* is the tile's Tier-1 output (contiguous 1-D int32, or int64
    for deep blocks) and *offsets* each block's start in it (int64, in
    scatter order: component-major, *blocks_per_component* blocks per
    component).  *shape* is ``(components, height, width)`` of the
    planes returned.  Each int64 row ``(index, y, x, height, width)`` of
    *blocks* puts block *index* of every component at ``(y, x)`` of its
    plane, where each subband sits in the Mallat layout (a level's LL
    top left, HL right of it, LH below, HH diagonally); blocks left out
    are not gathered.  Each row ``(height, width)`` of *levels* is one
    inverse DWT level's region, coarsest first.  *deltas* (float64, one
    per block row) makes the tile 9/7 and dequantises each row with its
    step; ``None`` means 5/3.

    Returns the ``(components, height, width)`` planes — int64 for 5/3,
    float64 for 9/7 — identical to what
    :func:`repro.jpeg2000.stages.reconstruct.dequantise` and
    :func:`repro.jpeg2000.dwt.inverse` produce.  Dtypes and table shapes
    are checked here and every block's and level's bounds in the
    kernel, before it writes: ``ValueError`` when any is wrong.
    """
    library, reason = _load()
    if library is None:
        raise NativeUnavailable(reason)
    components, height, width = shape
    if (not isinstance(flat, np.ndarray) or flat.ndim != 1
            or flat.dtype not in (np.int32, np.int64)
            or not flat.flags.c_contiguous):
        raise ValueError("flat must be a contiguous 1-D int32 or int64 array")
    if (not isinstance(offsets, np.ndarray) or offsets.dtype != np.int64
            or offsets.ndim != 1 or not offsets.flags.c_contiguous
            or len(offsets) < components * blocks_per_component):
        raise ValueError(
            f"offsets must be a contiguous int64 array of at least "
            f"{components * blocks_per_component} entries"
        )
    _table(blocks, BLOCK_FIELDS, "blocks")
    _table(levels, LEVEL_FIELDS, "levels")
    if min(shape) < 1:
        raise ValueError(f"tile planes {shape} must not be empty")
    if deltas is None:
        out = np.empty(shape, dtype=np.int64)
    else:
        deltas = np.ascontiguousarray(deltas, dtype=np.float64)
        if deltas.shape != (len(blocks),):
            raise ValueError("deltas must hold one step per block row")
        out = np.empty(shape, dtype=np.float64)
    status = library.reconstruct_tile(
        components, height, width, flat.ctypes.data,
        int(flat.dtype == np.int64), len(flat), offsets.ctypes.data,
        blocks_per_component, blocks.ctypes.data, len(blocks),
        levels.ctypes.data, len(levels),
        None if deltas is None else deltas.ctypes.data,
        _LIFTING.ctypes.data, out.ctypes.data,
    )
    if status == -1:
        raise MemoryError(
            "native reconstruct kernel could not allocate scratch"
        )
    if status == -2:
        raise ValueError(f"an inverse DWT level overruns the {shape} planes")
    if status:
        raise ValueError(f"native reconstruct rejected block row {status - 1}")
    return out
