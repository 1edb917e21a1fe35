"""Decode scheduling options and the block-level work descriptors.

:class:`DecodeOptions` is the *request* side of the decode stack: a
frozen, canonically-serialisable record of how the caller wants the
decode scheduled (workers, chunking, kernel, start method, Tier-2
parser), and the decoder's only scheduling input.  The requests are
validated here, in ``__post_init__``, where the caller writes them; the
planner (:mod:`repro.jpeg2000.plan`) then compiles every valid value —
together with the host environment, against which it alone clamps the
worker count — into the :class:`~repro.jpeg2000.plan.DecodePlan` that
runs.  Nothing below the planner reads :class:`DecodeOptions`.

:class:`BlockSpec` is the parse→entropy interface: one code block's
geometry plus the ``(start, end)`` codeword segment spans into its tile
buffer, from which either executor joins the block's codeword.

This module is the import root of the decode stack (no dependencies on
the stages, the planner, or the driver), so every layer can share the
option vocabulary without cycles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .. import telemetry

#: Kernel names accepted by :class:`DecodeOptions`.
KERNEL_NATIVE = "native"
KERNEL_REFERENCE = "reference"
_KERNELS = (KERNEL_NATIVE, KERNEL_REFERENCE)

#: Tier-2 parser selection accepted by :class:`DecodeOptions`.
TIER2_FAST = "fast"
TIER2_REFERENCE = "reference"
_TIER2 = (TIER2_FAST, TIER2_REFERENCE)

#: Pool start methods accepted by :class:`DecodeOptions` (None = platform
#: default).
_START_METHODS = (None, "fork", "spawn", "forkserver")


class ParallelDegradedWarning(RuntimeWarning):
    """A parallel decode request is actually running sequentially."""


#: Warn once per distinct degradation, not once per tile.
_degradations_warned: set = set()


def _warn_degraded(requested: int, effective: int, reason: str) -> None:
    # Metrics and the structured log see *every* degradation occurrence
    # (a degraded run is diagnosable after the fact); the warning itself
    # is deduplicated so a 16-tile decode does not print 16 times.
    telemetry.count("jpeg2000.parallel.degraded")
    telemetry.count(
        "jpeg2000.parallel.degraded_total{reason=%s}" % reason
    )
    telemetry.log_event(
        "parallel.degraded",
        reason=reason, requested=requested, effective=effective,
    )
    flight = telemetry.flight_recorder()
    if flight is not None:
        flight.dump("parallel-degraded")
    key = (requested, effective, reason)
    if key in _degradations_warned:
        return
    _degradations_warned.add(key)
    warnings.warn(
        f"parallel decode requested {requested} workers but is running "
        f"with {effective} ({reason}); wall-clock numbers from this run "
        f"are sequential numbers",
        ParallelDegradedWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class DecodeOptions:
    """How the entropy-decode stage schedules its code-block kernel.

    ``workers``
        Worker processes for block decoding.  0 or 1 decodes
        in-process, the native kernel's batches split over one thread
        per host CPU; ``None`` picks one worker per host CPU
        (:func:`repro.host.host_cpus`).
    ``chunk_size``
        Upper bound on blocks per unit of work shipped to a worker;
        larger chunks amortise per-chunk overhead, smaller chunks
        balance better.  The pool plans size-aware chunks up to this
        bound.
    ``kernel``
        ``"native"`` (the C kernel in ``t1_native.c``, decoding whole
        chunks of blocks per call; default) or ``"reference"`` (the
        readable ``t1`` specification kernel).  A host that cannot
        build the native kernel compiles ``"native"`` to
        ``"reference"`` (a recorded plan rewrite).
    ``start_method``
        Multiprocessing start method for the pool (``None`` = platform
        default; ``"fork"``/``"spawn"``/``"forkserver"``).
    ``oversubscribe``
        Allow more workers than the host has CPUs.  Off by default:
        extra workers usually only add overhead — but tests (and hosts
        whose workers stall on IO) may want real worker processes even
        on a small machine.
    ``tier2``
        Packet-header parser: ``"fast"`` (word-at-a-time
        ``FastBitReader`` + array-backed tag trees, default) or
        ``"reference"`` (the bit-by-bit specification reader).  Both
        parse bit-for-bit identically.

    A parallel request streams each tile's blocks to the workers, as
    pickled chunks, while later tiles are still being parsed; where no
    pool can be had it decodes in-process, with identical results.
    """

    workers: Optional[int] = 0
    chunk_size: int = 8
    kernel: str = KERNEL_NATIVE
    start_method: Optional[str] = None
    oversubscribe: bool = False
    tier2: str = TIER2_FAST

    def __post_init__(self):
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be None or >= 0")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}")
        if self.start_method not in _START_METHODS:
            raise ValueError(f"start_method must be one of {_START_METHODS}")
        if self.tier2 not in _TIER2:
            raise ValueError(f"tier2 must be one of {_TIER2}")

    def as_dict(self) -> dict:
        """Canonical plain-data form: exactly the dataclass fields.

        The *identity* of an options value — what a ``plan decode``
        ledger record carries next to the plan digest — so two
        equal-valued instances always serialise identically, and every
        field flip changes the serialisation.
        """
        return {
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "kernel": self.kernel,
            "start_method": self.start_method,
            "oversubscribe": self.oversubscribe,
            "tier2": self.tier2,
        }


#: Default options: in-process, native kernel on one thread per host CPU.
DEFAULT_OPTIONS = DecodeOptions()


@dataclass(frozen=True)
class BlockSpec:
    """One code block's geometry plus its codeword's segment spans.

    The spans point into a *source* buffer (a tile-part's bytes); the
    entropy stage joins them into the codeword (:meth:`codeword`) when
    it decodes the block or ships it to a worker.
    """

    width: int
    height: int
    orientation: str
    num_bitplanes: int
    num_passes: Optional[int]
    segments: tuple = ()

    @property
    def size(self) -> int:
        return self.width * self.height

    @property
    def cost(self) -> int:
        """Scheduling weight: codeword bytes dominate decode time."""
        return sum(end - start for start, end in self.segments) + 1

    def codeword(self, source) -> bytes:
        """The block's MQ codeword, joined from its spans into *source*."""
        segments = self.segments
        if len(segments) == 1:
            start, end = segments[0]
            return bytes(source[start:end])
        return b"".join(bytes(source[start:end]) for start, end in segments)
