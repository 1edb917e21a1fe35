"""OSSS timing annotations: EET blocks and cycle budgets.

The paper back-annotates profiled execution times into the model with
``OSSS_EET(sc_time(180, SC_MS)) { ... }`` blocks.  Here the same concept is
a generator helper: the enclosed behaviour executes functionally in zero
simulated time and the block then consumes the annotated duration.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel import SimTime


def eet(duration: SimTime, body: Optional[Callable[[], object]] = None):
    """Estimated Execution Time block.

    ``result = yield from eet(t, lambda: compute())`` runs ``compute()``
    functionally and advances simulated time by *t*.  Without a body it is a
    pure timing annotation.
    """
    result = body() if body is not None else None
    yield duration
    return result


class CycleBudget:
    """Converts cycle counts of a frequency domain into EET durations.

    The case study annotates software in milliseconds but hardware in clock
    cycles at 100 MHz; this helper keeps both in one vocabulary.
    """

    def __init__(self, frequency_hz: float):
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.frequency_hz = frequency_hz
        self._cycle_fs = round(1e15 / frequency_hz)

    @property
    def cycle(self) -> SimTime:
        return SimTime.from_fs(self._cycle_fs)

    def cycles(self, count: float) -> SimTime:
        return SimTime.intern(round(self._cycle_fs * count))
