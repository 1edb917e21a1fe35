"""EBCOT context modelling (ITU-T T.800, section D.3).

Tier-1 drives the MQ coder with 19 contexts:

* 0..8   zero coding (significance), selected from the 8-neighbourhood
  significance pattern with subband-specific tables;
* 9..13  sign coding, with an XOR bit folded into the decision;
* 14..16 magnitude refinement;
* 17     run-length (cleanup column-of-four shortcut);
* 18     uniform (cleanup run position, also used for segmentation marks).
"""

from __future__ import annotations

from .mq import ContextState

NUM_CONTEXTS = 19

#: Context indices.
CTX_ZC_BASE = 0  # 0..8
CTX_SC_BASE = 9  # 9..13
CTX_MR_BASE = 14  # 14..16
CTX_RUN = 17
CTX_UNI = 18

#: Subband orientations.
LL, HL, LH, HH = "LL", "HL", "LH", "HH"


def initial_contexts() -> list[ContextState]:
    """Fresh context bank with the standard initial states."""
    contexts = [ContextState() for _ in range(NUM_CONTEXTS)]
    contexts[CTX_ZC_BASE].reset(index=4)  # all-zero-neighbourhood ZC context
    contexts[CTX_RUN].reset(index=3)
    contexts[CTX_UNI].reset(index=46)
    return contexts


def _zc_lh(h: int, v: int, d: int) -> int:
    """Zero-coding table for LL and LH subbands (T.800 Table D.1)."""
    if h == 2:
        return 8
    if h == 1:
        if v >= 1:
            return 7
        if d >= 1:
            return 6
        return 5
    if v == 2:
        return 4
    if v == 1:
        return 3
    if d >= 2:
        return 2
    if d == 1:
        return 1
    return 0


def _zc_hh(h: int, v: int, d: int) -> int:
    """Zero-coding table for HH subbands."""
    hv = h + v
    if d >= 3:
        return 8
    if d == 2:
        return 7 if hv >= 1 else 6
    if d == 1:
        if hv >= 2:
            return 5
        return 4 if hv == 1 else 3
    if hv >= 2:
        return 2
    return 1 if hv == 1 else 0


def zc_context(orientation: str, h: int, v: int, d: int) -> int:
    """Zero-coding context (0..8) from neighbour significance counts."""
    if orientation in (LL, LH):
        return CTX_ZC_BASE + _zc_lh(h, v, d)
    if orientation == HL:
        return CTX_ZC_BASE + _zc_lh(v, h, d)  # HL swaps the roles of H and V
    if orientation == HH:
        return CTX_ZC_BASE + _zc_hh(h, v, d)
    raise ValueError(f"unknown subband orientation {orientation!r}")


#: Sign-coding table (T.800 Table D.3): (H, V) -> (context, xor_bit),
#: where H/V are the net sign contributions clipped to [-1, 1].
_SC_TABLE = {
    (1, 1): (13, 0),
    (1, 0): (12, 0),
    (1, -1): (11, 0),
    (0, 1): (10, 0),
    (0, 0): (9, 0),
    (0, -1): (10, 1),
    (-1, 1): (11, 1),
    (-1, 0): (12, 1),
    (-1, -1): (13, 1),
}


def sc_context(h_contribution: int, v_contribution: int) -> tuple[int, int]:
    """Sign-coding context and XOR bit from neighbour sign contributions."""
    return _SC_TABLE[(h_contribution, v_contribution)]


def mr_context(first_refinement: bool, any_significant_neighbour: bool) -> int:
    """Magnitude-refinement context (T.800 Table D.4)."""
    if not first_refinement:
        return CTX_MR_BASE + 2
    return CTX_MR_BASE + (1 if any_significant_neighbour else 0)

