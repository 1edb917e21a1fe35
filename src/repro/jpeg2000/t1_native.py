"""The native Tier-1 kernel: build, load, and call ``t1_native.c``.

The C source is a direct port of the reference Tier-1 coder in both
directions — :class:`~repro.jpeg2000.t1.CodeBlockDecoder` over
:class:`~repro.jpeg2000.mq.MqDecoder` for decoding, and
:class:`~repro.jpeg2000.t1.CodeBlockEncoder` over
:class:`~repro.jpeg2000.mq.MqEncoder` for encoding — the entropy stage
refined one implementation level down, bit-for-bit and op-count
identical to the specification coder.

On first use in a process the source is compiled with the host C
compiler (portable ``-O2``, no ``-march=native``) into the experiment
cache root — ``$REPRO_CACHE_DIR`` when set, else ``./.repro_cache`` —
as ``native/<sha256 of source + compiler + flags + machine>.so``.  The
compiler writes a temporary name that is ``os.replace``-d into place,
so processes racing on an empty directory each end with a complete
library.  The library is loaded once per process through ``ctypes``;
when no compiler is found or the build fails, :func:`available` is
false: the planner binds the reference decoder and the encoder codes
every block with the reference coder instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import uuid
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .t1 import CodeBlockResult

SOURCE = Path(__file__).with_name("t1_native.c")
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

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
    return library, None


def available() -> bool:
    """True when the native kernel is built and loaded in this process."""
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


def decode_codeblock_batch(blocks: Sequence[BatchBlock], out=None):
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
    status = library.t1_decode_batch(
        count, payload, len(payload), meta.ctypes.data, out.ctypes.data,
        len(out), ops.ctypes.data,
    )
    if status == -1:
        raise MemoryError("native Tier-1 kernel could not allocate scratch")
    if status:
        raise ValueError(f"native kernel rejected block {status - 1}")
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
