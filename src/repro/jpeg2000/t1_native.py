"""The native Tier-1 kernel: build, load, and call ``t1_native.c``.

The C source is a direct port of the reference :class:`~repro.jpeg2000.
t1.CodeBlockDecoder` and :class:`~repro.jpeg2000.mq.MqDecoder` — the
entropy stage refined one implementation level down, bit-for-bit and
op-count identical to the specification kernel.

On first use in a process the source is compiled with the host C
compiler (portable ``-O2``, no ``-march=native``) into the experiment
cache root — ``$REPRO_CACHE_DIR`` when set, else ``./.repro_cache`` —
as ``native/<sha256 of source + compiler + flags + machine>.so``.  The
compiler writes a temporary name that is ``os.replace``-d into place,
so processes racing on an empty directory each end with a complete
library.  The library is loaded once per process through ``ctypes``;
when no compiler is found or the build fails, :func:`available` is
false and the planner binds the reference kernel instead.
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

#: Columns of the per-block int64 table handed to the kernel.
_FIELDS = 8

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
    return library, None


def available() -> bool:
    """True when the native kernel is built and loaded in this process."""
    return _load()[0] is not None


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
        code = ORIENTATIONS.get(orientation)
        if code is None:
            raise ValueError(f"unknown subband orientation {orientation!r}")
        if not (1 <= width <= MAX_SIDE and 1 <= height <= MAX_SIDE
                and width * height <= MAX_AREA):
            raise ValueError(
                f"code block {width}x{height} outside the native kernel's "
                f"geometry (sides 1..{MAX_SIDE}, at most {MAX_AREA} samples)"
            )
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
