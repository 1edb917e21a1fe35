"""Quantisation and the case study's IQ (inverse quantisation) stage
(ITU-T T.800, Annex E).

* **Reversible (5/3)**: no quantisation; coefficients are integers and the
  'step' is fixed at one.  Only ranging exponents travel in the QCD
  segment.
* **Irreversible (9/7)**: each subband b has a dead-zone scalar quantiser
  with step ``delta_b = 2^(R_b - eps_b) * (1 + mu_b / 2^11)``, where R_b is
  the subband's nominal dynamic range and (eps_b, mu_b) are coded in QCD
  (expounded style).  Inverse quantisation reconstructs at mid-point
  (r = 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: log2 gain of each subband orientation (T.800 Table E.1).
ORIENTATION_GAIN_LOG2 = {"LL": 0, "HL": 1, "LH": 1, "HH": 2}

#: Reconstruction bias for truncated irreversible coefficients.
RECONSTRUCTION_R = 0.5


@dataclass(frozen=True)
class StepSize:
    """One subband's quantisation step in (exponent, mantissa) form."""

    exponent: int  # eps_b, 5 bits
    mantissa: int  # mu_b, 11 bits

    def delta(self, dynamic_range_bits: int) -> float:
        """The physical step size for a subband of the given range."""
        return (2.0 ** (dynamic_range_bits - self.exponent)) * (1.0 + self.mantissa / 2048.0)

    def packed(self) -> int:
        """The 16-bit QCD field: exponent(5) | mantissa(11)."""
        return ((self.exponent & 0x1F) << 11) | (self.mantissa & 0x7FF)

    @classmethod
    def unpack(cls, value: int) -> "StepSize":
        return cls(exponent=(value >> 11) & 0x1F, mantissa=value & 0x7FF)

    @classmethod
    def from_delta(cls, delta: float, dynamic_range_bits: int) -> "StepSize":
        """Closest (exponent, mantissa) representation of *delta*."""
        if delta <= 0:
            raise ValueError("step size must be positive")
        exponent = dynamic_range_bits - math.floor(math.log2(delta))
        mantissa = round((delta / 2.0 ** (dynamic_range_bits - exponent) - 1.0) * 2048.0)
        if mantissa == 2048:  # rounded up to the next power of two
            exponent -= 1
            mantissa = 0
        exponent = max(0, min(31, exponent))
        mantissa = max(0, min(2047, mantissa))
        return cls(exponent, mantissa)


def default_step(orientation: str, level: int, num_levels: int,
                 base_step: float = 1.0 / 128.0) -> float:
    """A conventional step-size schedule for the 9/7 path.

    Finer decomposition levels (higher frequency) get coarser steps; the
    schedule mirrors the energy-weighting rule of T.800 E.1.1 with the
    subband gains folded in.
    """
    gain = 2.0 ** ORIENTATION_GAIN_LOG2[orientation]
    # level counts from 1 (finest). High-frequency bands tolerate coarser
    # steps; the step doubles with each finer decomposition level.
    return base_step * gain * 2.0 ** (num_levels - level)


def quantise(band: np.ndarray, delta: float) -> np.ndarray:
    """Dead-zone quantisation to signed integer indices."""
    if delta <= 0:
        raise ValueError("step size must be positive")
    return (np.sign(band) * np.floor(np.abs(band) / delta)).astype(np.int64)


def dequantise(indices: np.ndarray, delta: float) -> np.ndarray:
    """Mid-point inverse quantisation (the IQ stage of Fig. 1)."""
    magnitudes = np.abs(indices).astype(np.float64)
    reconstructed = np.where(magnitudes > 0, (magnitudes + RECONSTRUCTION_R) * delta, 0.0)
    return np.sign(indices) * reconstructed
