"""Simulated time for the discrete-event kernel.

Time is held as an integer number of femtoseconds, mirroring SystemC's
``sc_time`` (integer multiples of a fixed resolution).  Integer arithmetic
keeps event ordering exact: two events scheduled at mathematically equal
times always compare equal, which floating point would not guarantee.
"""

from __future__ import annotations

from functools import total_ordering

#: Memoised SimTime instances, keyed by femtosecond count (see
#: :meth:`SimTime.intern`).  Bounded so one-off values cannot leak.
_intern_cache: dict = {}
_INTERN_LIMIT = 65536

#: Multipliers from unit name to femtoseconds.
_UNIT_FS = {
    "fs": 1,
    "ps": 10**3,
    "ns": 10**6,
    "us": 10**9,
    "ms": 10**12,
    "s": 10**15,
}


@total_ordering
class SimTime:
    """An immutable point in (or duration of) simulated time.

    >>> SimTime(1, "ns") + SimTime(500, "ps")
    SimTime('1500 ps')
    """

    __slots__ = ("_fs",)

    def __init__(self, value: float = 0, unit: str = "fs"):
        if unit not in _UNIT_FS:
            raise ValueError(f"unknown time unit {unit!r}; expected one of {sorted(_UNIT_FS)}")
        if value < 0:
            raise ValueError(f"time must be non-negative, got {value} {unit}")
        self._fs = round(value * _UNIT_FS[unit])

    @classmethod
    def from_fs(cls, fs: int) -> "SimTime":
        """Build a SimTime directly from an integer femtosecond count."""
        if fs < 0:
            raise ValueError(f"time must be non-negative, got {fs} fs")
        t = cls.__new__(cls)
        t._fs = int(fs)
        return t

    @classmethod
    def intern(cls, fs: int) -> "SimTime":
        """Like :meth:`from_fs`, but memoised.

        Simulations construct the same durations over and over (clock
        periods, bus-transfer times, EETs); interning them avoids one
        object allocation per wait on those hot paths.  The cache is
        bounded, so arbitrary one-off values (e.g. timestamps) can pass
        through without growing it forever.
        """
        t = _intern_cache.get(fs)
        if t is None:
            t = cls.from_fs(fs)
            if len(_intern_cache) < _INTERN_LIMIT:
                _intern_cache[fs] = t
        return t

    @property
    def femtoseconds(self) -> int:
        return self._fs

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SimTime") -> "SimTime":
        return SimTime.from_fs(self._fs + other._fs)

    def __mul__(self, factor: float) -> "SimTime":
        return SimTime.from_fs(round(self._fs * factor))

    __rmul__ = __mul__

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimTime) and self._fs == other._fs

    def __lt__(self, other: "SimTime") -> bool:
        return self._fs < other._fs

    def __hash__(self) -> int:
        return hash(self._fs)

    def __bool__(self) -> bool:
        return self._fs != 0

    # -- formatting ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"SimTime({str(self)!r})"

    def __str__(self) -> str:
        if self._fs == 0:
            return "0 s"
        for unit in ("s", "ms", "us", "ns", "ps", "fs"):
            scale = _UNIT_FS[unit]
            if self._fs % scale == 0:
                return f"{self._fs // scale} {unit}"
        return f"{self._fs} fs"


#: Zero duration, shared instance.
ZERO_TIME = SimTime.from_fs(0)


def fs(value: float) -> SimTime:
    return SimTime(value, "fs")


def ps(value: float) -> SimTime:
    return SimTime(value, "ps")


def ns(value: float) -> SimTime:
    return SimTime(value, "ns")


def us(value: float) -> SimTime:
    return SimTime(value, "us")


def ms(value: float) -> SimTime:
    return SimTime(value, "ms")


def sec(value: float) -> SimTime:
    return SimTime(value, "s")
