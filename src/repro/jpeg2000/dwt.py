"""Discrete wavelet transforms (ITU-T T.800, Annex F).

Both JPEG 2000 filter banks are implemented in lifting form on numpy
arrays:

* **5/3** (Le Gall, reversible) — integer lifting, exact reconstruction,
  used by the case study's lossless mode (``IDWT53``);
* **9/7** (Daubechies/CDF, irreversible) — four floating-point lifting
  steps plus scaling, the lossy mode (``IDWT97``).

Boundaries use whole-sample symmetric extension, handled by index
reflection so signals of any length (including 1) transform correctly.
The module also reports per-call operation counts, which feed both the
Fig. 1 profiling model and the cycle cost model of the VTA hardware IDWT
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: 9/7 lifting coefficients (T.800 Table F.4).
ALPHA = -1.586134342059924
BETA = -0.052980118572961
GAMMA = 0.882911075530934
DELTA = 0.443506852043971
KAPPA = 1.230174104914001

MODE_LOSSLESS = "5/3"
MODE_LOSSY = "9/7"


@dataclass
class DwtOpCounts:
    """Basic-operation tally of transform calls (adds/shifts vs multiplies)."""

    add_ops: int = 0
    mul_ops: int = 0
    samples: int = 0

    def merge(self, other: "DwtOpCounts") -> None:
        self.add_ops += other.add_ops
        self.mul_ops += other.mul_ops
        self.samples += other.samples

    @property
    def total(self) -> int:
        return self.add_ops + self.mul_ops


@lru_cache(maxsize=512)
def _ext_indices(offset: int, count: int, source_length: int) -> np.ndarray:
    """Memoised symmetric-extension gather indices.

    ``arange(count) + offset`` clipped into ``[0, source_length)`` — the
    one-step boundary reflection every lifting step needs.  Each subband
    shape recurs for every row/column/tile of a decode, so the arrays are
    cached and shared.
    """
    indices = np.arange(offset, offset + count)
    np.clip(indices, 0, source_length - 1, out=indices)
    indices.setflags(write=False)
    return indices


# -- 1D transforms -------------------------------------------------------------
#
# The deinterleaved convention follows the standard: for a signal of length
# n, the low band holds ceil(n/2) samples (even positions), the high band
# floor(n/2) samples (odd positions).
#
# All four transforms operate along axis 0 and accept arrays of any rank,
# so one call transforms every column of a tile plane at once — this is
# what removes the per-row/per-column Python loops from the 2D transforms.


def fdwt53_1d(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward 5/3 along axis 0; returns (low, high) integer bands."""
    x = np.asarray(signal, dtype=np.int64)
    n = x.shape[0]
    if n == 1:
        return x.copy(), np.zeros((0,) + x.shape[1:], dtype=np.int64)
    even = x[0::2]
    odd = x[1::2]
    n_even = even.shape[0]
    n_odd = odd.shape[0]
    # Predict: d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)
    nbr_right = even.take(_ext_indices(1, n_odd, n_even), axis=0)
    high = odd - ((even[:n_odd] + nbr_right) >> 1)
    # Update: s[i] = x[2i] + floor((d[i-1] + d[i] + 2) / 4)
    d_left = high.take(_ext_indices(-1, n_even, n_odd), axis=0)
    d_right = high.take(_ext_indices(0, n_even, n_odd), axis=0)
    low = even + ((d_left + d_right + 2) >> 2)
    return low, high


def idwt53_1d(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Inverse 5/3; exact inverse of :func:`fdwt53_1d`."""
    low = np.asarray(low, dtype=np.int64)
    high = np.asarray(high, dtype=np.int64)
    n = low.shape[0] + high.shape[0]
    if n == 1:
        return low.copy()
    n_even = low.shape[0]
    n_odd = high.shape[0]
    d_left = high.take(_ext_indices(-1, n_even, n_odd), axis=0)
    d_right = high.take(_ext_indices(0, n_even, n_odd), axis=0)
    even = low - ((d_left + d_right + 2) >> 2)
    nbr_right = even.take(_ext_indices(1, n_odd, n_even), axis=0)
    odd = high + ((even[:n_odd] + nbr_right) >> 1)
    out = np.empty((n,) + low.shape[1:], dtype=np.int64)
    out[0::2] = even
    out[1::2] = odd
    return out


def _lift(band_a: np.ndarray, band_b: np.ndarray, coefficient: float, into_b: bool) -> None:
    """One 9/7 lifting step: b[i] += c * (a[i] + a[i+1-ish]) with reflection.

    When *into_b* the odd band is updated from even neighbours (predict
    steps); otherwise the even band from odd neighbours (update steps).
    """
    if into_b:
        # odd[i] += c * (even[i] + even[i+1]), right edge reflects
        n = band_b.shape[0]
        if n == 0:
            return
        right = band_a.take(_ext_indices(1, n, band_a.shape[0]), axis=0)
        band_b += coefficient * (band_a[:n] + right)
    else:
        # even[i] += c * (odd[i-1] + odd[i]), both edges reflect
        n = band_a.shape[0]
        if band_b.shape[0] == 0:
            return
        left = band_b.take(_ext_indices(-1, n, band_b.shape[0]), axis=0)
        right = band_b.take(_ext_indices(0, n, band_b.shape[0]), axis=0)
        band_a += coefficient * (left + right)


def fdwt97_1d(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward 9/7 along axis 0; returns (low, high) float bands."""
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[0]
    if n == 1:
        return x.copy(), np.zeros((0,) + x.shape[1:], dtype=np.float64)
    even = x[0::2].copy()
    odd = x[1::2].copy()
    _lift(even, odd, ALPHA, into_b=True)
    _lift(even, odd, BETA, into_b=False)
    _lift(even, odd, GAMMA, into_b=True)
    _lift(even, odd, DELTA, into_b=False)
    return even * (1.0 / KAPPA), odd * KAPPA


def idwt97_1d(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Inverse 9/7."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    n = low.shape[0] + high.shape[0]
    if n == 1:
        return low.copy()
    even = low * KAPPA
    odd = high * (1.0 / KAPPA)
    _lift(even, odd, -DELTA, into_b=False)
    _lift(even, odd, -GAMMA, into_b=True)
    _lift(even, odd, -BETA, into_b=False)
    _lift(even, odd, -ALPHA, into_b=True)
    out = np.empty((n,) + low.shape[1:], dtype=np.float64)
    out[0::2] = even
    out[1::2] = odd
    return out


# -- 2D / multi-level -------------------------------------------------------------


def _forward_2d(tile: np.ndarray, mode: str) -> dict[str, np.ndarray]:
    """One decomposition level; returns the LL/HL/LH/HH quadrants.

    Fully vectorised: the row pass transforms every row at once (along
    axis 0 of the transposed tile), the column pass every column at once.
    The pass order (rows, then columns) matches :func:`_inverse_2d` in
    reverse — required for bit-exactness of the nonlinear 5/3 lifting.
    """
    fdwt = fdwt53_1d if mode == MODE_LOSSLESS else fdwt97_1d
    low_t, high_t = fdwt(tile.T)
    ll, lh = fdwt(np.ascontiguousarray(low_t.T))
    hl, hh = fdwt(np.ascontiguousarray(high_t.T))
    return {"LL": ll, "HL": hl, "LH": lh, "HH": hh}


def tally_level(ops: DwtOpCounts, mode: str, samples: int) -> None:
    """Count one inverse level producing *samples* samples into *ops*.

    The one op model of the inverse DWT: :func:`_inverse_2d` and the
    native reconstruct kernel both count through it.
    """
    ops.samples += samples
    if mode == MODE_LOSSLESS:
        # 2 lifting steps x (1 add-pair + 1 shift + 1 add) per sample, 2 dims
        ops.add_ops += samples * 8
    else:
        # 4 lifting steps x (2 adds + 1 mul) per sample + scaling, 2 dims
        ops.add_ops += samples * 16
        ops.mul_ops += samples * 10


def _inverse_2d(quads: dict[str, np.ndarray], mode: str,
                ops: "DwtOpCounts | None" = None) -> np.ndarray:
    """Invert one decomposition level from its quadrants (vectorised).

    The column pass runs first (every column at once), then the row
    pass on the transposed result.
    """
    idwt = idwt53_1d if mode == MODE_LOSSLESS else idwt97_1d
    ll, hl, lh, hh = quads["LL"], quads["HL"], quads["LH"], quads["HH"]
    rows_low = idwt(ll, lh)
    rows_high = idwt(hl, hh)
    out = idwt(
        np.ascontiguousarray(rows_low.T), np.ascontiguousarray(rows_high.T),
    ).T
    if ops is not None:
        tally_level(ops, mode, out.shape[0] * out.shape[1])
    return out


class Subbands:
    """Multi-level decomposition: LL_n plus (HL, LH, HH) per level.

    ``levels[0]`` holds the quadrants of the finest level (level 1 in
    standard numbering), ``ll`` the coarsest approximation.
    """

    def __init__(self, ll: np.ndarray, levels: list[dict[str, np.ndarray]], mode: str):
        self.ll = ll
        self.levels = levels
        self.mode = mode

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def iter_bands(self):
        """Yield (resolution_level, orientation, array), coarsest first.

        Resolution 0 is the LL band alone; resolution r >= 1 adds the
        detail quadrants of decomposition level num_levels - r + 1.
        """
        yield 0, "LL", self.ll
        for res in range(1, self.num_levels + 1):
            quads = self.levels[self.num_levels - res]
            for orientation in ("HL", "LH", "HH"):
                yield res, orientation, quads[orientation]


def forward(tile: np.ndarray, mode: str, num_levels: int) -> Subbands:
    """Multi-level forward DWT of one tile component."""
    if mode not in (MODE_LOSSLESS, MODE_LOSSY):
        raise ValueError(f"unknown DWT mode {mode!r}")
    if num_levels < 0:
        raise ValueError("decomposition level count must be non-negative")
    current = np.asarray(tile, dtype=np.int64 if mode == MODE_LOSSLESS else np.float64)
    levels: list[dict[str, np.ndarray]] = []
    for _ in range(num_levels):
        if current.shape[0] <= 1 and current.shape[1] <= 1:
            break
        quads = _forward_2d(current, mode)
        levels.append({k: v for k, v in quads.items() if k != "LL"})
        current = quads["LL"]
    return Subbands(current, levels, mode)


def inverse(subbands: Subbands, ops: "DwtOpCounts | None" = None) -> np.ndarray:
    """Multi-level inverse DWT (the case study's IDWT53 / IDWT97)."""
    current = subbands.ll
    for quads in reversed(subbands.levels):
        merged = dict(quads)
        merged["LL"] = current
        current = _inverse_2d(merged, subbands.mode, ops)
    return current
