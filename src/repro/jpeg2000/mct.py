"""Multi-component (colour) transforms and DC level shift
(ITU-T T.800, Annex G).

The last two stages of the paper's Fig. 1 pipeline:

* **ICT** — the irreversible YCbCr transform used with the 9/7 path;
  **RCT** — its reversible integer companion for the 5/3 path;
* **DC shift** — samples are coded offset by half their dynamic range and
  shifted back (and clamped) at the very end of decoding.
"""

from __future__ import annotations

import numpy as np

# ICT (floating point) forward matrix coefficients (T.800 G.3).
_ICT_FORWARD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_ICT_INVERSE = np.array(
    [
        [1.0, 0.0, 1.402],
        [1.0, -0.344136, -0.714136],
        [1.0, 1.772, 0.0],
    ]
)


def rct_forward(r: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Reversible colour transform (integer, exact)."""
    r = np.asarray(r, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    y = (r + 2 * g + b) >> 2
    u = b - g
    v = r - g
    return y, u, v


def rct_inverse(y: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Exact inverse of :func:`rct_forward`."""
    y = np.asarray(y, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    g = y - ((u + v) >> 2)
    r = v + g
    b = u + g
    return r, g, b


def ict_forward(r: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Irreversible (YCbCr) colour transform."""
    stack = np.stack([r, g, b]).astype(np.float64)
    y, cb, cr = np.tensordot(_ICT_FORWARD, stack, axes=1)
    return y, cb, cr


def ict_inverse(y: np.ndarray, cb: np.ndarray, cr: np.ndarray):
    """Inverse ICT."""
    stack = np.stack([y, cb, cr]).astype(np.float64)
    r, g, b = np.tensordot(_ICT_INVERSE, stack, axes=1)
    return r, g, b


def dc_shift_forward(samples: np.ndarray, bit_depth: int) -> np.ndarray:
    """Subtract the half-range offset before coding."""
    return np.asarray(samples, dtype=np.int64) - (1 << (bit_depth - 1))


def dc_shift_inverse(samples: np.ndarray, bit_depth: int) -> np.ndarray:
    """Add the offset back and clamp to the sample range (the DC stage)."""
    shifted = np.asarray(samples, dtype=np.float64) + (1 << (bit_depth - 1))
    rounded = np.rint(shifted)
    return np.clip(rounded, 0, (1 << bit_depth) - 1).astype(np.int64)


# -- fused whole-plane kernels -------------------------------------------------
#
# The two-stage path above exists as the readable Fig. 1 reference; the
# fused kernels below combine the inverse colour transform with the DC
# shift in one pass per plane, each step in place on the one array per
# plane it allocates.  They are value-identical by construction: the RCT
# path stays in int64 end to end (the reference's float64 round trip is
# exact below 2^53, so skipping it changes nothing), and the ICT path
# performs the identical float64 operations in the identical order.


def rct_dc_inverse(y: np.ndarray, u: np.ndarray, v: np.ndarray, bit_depth: int):
    """Fused inverse RCT + DC level shift, all-integer (5/3 path)."""
    y = np.asarray(y, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    g = u + v
    g >>= 2
    np.subtract(y, g, out=g)
    r = v + g
    b = u + g
    for plane in (r, g, b):
        plane += 1 << (bit_depth - 1)
        np.clip(plane, 0, (1 << bit_depth) - 1, out=plane)
    return r, g, b


def ict_dc_inverse(y: np.ndarray, cb: np.ndarray, cr: np.ndarray, bit_depth: int):
    """Fused inverse ICT + DC level shift (9/7 path)."""
    stack = np.stack([y, cb, cr]).astype(np.float64, copy=False)
    planes = np.tensordot(_ICT_INVERSE, stack, axes=1)
    planes += 1 << (bit_depth - 1)
    np.rint(planes, out=planes)
    np.clip(planes, 0, (1 << bit_depth) - 1, out=planes)
    return tuple(planes.astype(np.int64))
