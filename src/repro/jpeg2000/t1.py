"""EBCOT Tier-1: bit-plane coding of code blocks (ITU-T T.800, Annex D).

Each code block of quantised wavelet coefficients is coded in sign-magnitude
form, bit-plane by bit-plane, with three passes per plane:

1. **significance propagation** — insignificant samples with a significant
   neighbour;
2. **magnitude refinement** — samples that became significant in an earlier
   plane;
3. **cleanup** — everything else, with a run-length shortcut for aligned
   all-insignificant columns of four.

The most significant plane is coded with a cleanup pass only.  All
decisions drive the MQ coder; contexts follow ``repro.jpeg2000.context``.
This module is the functional payload of the case study's *arithmetic
decoder* stage — by far the dominant share in Figure 1's profile.
"""

from __future__ import annotations

from typing import Optional

from .context import (
    CTX_RUN,
    CTX_UNI,
    initial_contexts,
    mr_context,
    sc_context,
    zc_context,
)
from .mq import MqDecoder, MqEncoder


class CodeBlockResult:
    """Encoder output for one code block."""

    __slots__ = ("data", "num_passes", "num_bitplanes", "ops", "pass_lengths")

    def __init__(self, data: bytes, num_passes: int, num_bitplanes: int, ops: int,
                 pass_lengths: Optional[list] = None):
        self.data = data
        self.num_passes = num_passes
        self.num_bitplanes = num_bitplanes
        self.ops = ops
        #: ``pass_lengths[k]`` = bytes sufficient to decode passes 0..k.
        #: The MQ decoder treats data past the end as 0xFF fill (spec
        #: behaviour for truncated codeword segments), so a small margin
        #: after the live byte position guarantees exact decoding.
        self.pass_lengths = pass_lengths or ([len(data)] * num_passes)

    def __repr__(self) -> str:
        return (
            f"CodeBlockResult({len(self.data)} bytes, passes={self.num_passes}, "
            f"bitplanes={self.num_bitplanes})"
        )


class _BlockState:
    """Per-sample coding state shared by encoder and decoder."""

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("code block dimensions must be positive")
        self.width = width
        self.height = height
        size = width * height
        self.sigma = bytearray(size)  # significance
        self.visited = bytearray(size)  # coded in current plane's SPP
        self.refined = bytearray(size)  # had at least one refinement
        self.sign = bytearray(size)  # 1 = negative

    def index(self, x: int, y: int) -> int:
        return y * self.width + x

    def neighbour_counts(self, x: int, y: int) -> tuple[int, int, int]:
        """(horizontal, vertical, diagonal) significant-neighbour counts."""
        w, h, sigma = self.width, self.height, self.sigma
        idx = y * w + x
        horizontal = 0
        vertical = 0
        diagonal = 0
        left = x > 0
        right = x < w - 1
        up = y > 0
        down = y < h - 1
        if left and sigma[idx - 1]:
            horizontal += 1
        if right and sigma[idx + 1]:
            horizontal += 1
        if up and sigma[idx - w]:
            vertical += 1
        if down and sigma[idx + w]:
            vertical += 1
        if up and left and sigma[idx - w - 1]:
            diagonal += 1
        if up and right and sigma[idx - w + 1]:
            diagonal += 1
        if down and left and sigma[idx + w - 1]:
            diagonal += 1
        if down and right and sigma[idx + w + 1]:
            diagonal += 1
        return horizontal, vertical, diagonal

    def sign_contributions(self, x: int, y: int) -> tuple[int, int]:
        """Net sign contributions of horizontal/vertical neighbours, in [-1, 1]."""
        w, h, sigma, sign = self.width, self.height, self.sigma, self.sign
        idx = y * w + x

        def contribution(neighbour: int) -> int:
            if not sigma[neighbour]:
                return 0
            return -1 if sign[neighbour] else 1

        h_sum = 0
        if x > 0:
            h_sum += contribution(idx - 1)
        if x < w - 1:
            h_sum += contribution(idx + 1)
        v_sum = 0
        if y > 0:
            v_sum += contribution(idx - w)
        if y < h - 1:
            v_sum += contribution(idx + w)
        clip = lambda v: -1 if v < -1 else (1 if v > 1 else v)
        return clip(h_sum), clip(v_sum)

    def stripe_columns(self):
        """Scan order: stripes of four rows, columns left to right."""
        for stripe_top in range(0, self.height, 4):
            stripe_rows = min(4, self.height - stripe_top)
            for x in range(self.width):
                yield stripe_top, stripe_rows, x


def _num_bitplanes(magnitudes, width: int, height: int) -> int:
    highest = 0
    for value in magnitudes:
        if value > highest:
            highest = value
    return highest.bit_length()


class CodeBlockEncoder:
    """Tier-1 encoder for one code block of sign-magnitude coefficients."""

    def __init__(self, coefficients, width: int, height: int, orientation: str):
        """*coefficients* is a row-major iterable of signed integers."""
        values = list(coefficients)
        if len(values) != width * height:
            raise ValueError("coefficient count does not match block dimensions")
        self.orientation = orientation
        self.state = _BlockState(width, height)
        self.magnitude = [abs(v) for v in values]
        for idx, value in enumerate(values):
            if value < 0:
                self.state.sign[idx] = 1

    def encode(self) -> CodeBlockResult:
        state = self.state
        planes = _num_bitplanes(self.magnitude, state.width, state.height)
        mq = MqEncoder()
        contexts = initial_contexts()
        if planes == 0:
            return CodeBlockResult(b"", 0, 0, mq.ops)
        num_passes = 0
        marks: list[int] = []

        def mark_pass() -> None:
            # Live bytes so far (minus the sentinel) plus headroom for the
            # bits still held in the MQ coder's C register.
            marks.append(len(mq._out) - 1 + 5)

        for plane in range(planes - 1, -1, -1):
            if plane != planes - 1:
                self._significance_pass(mq, contexts, plane)
                num_passes += 1
                mark_pass()
                self._refinement_pass(mq, contexts, plane)
                num_passes += 1
                mark_pass()
            self._cleanup_pass(mq, contexts, plane)
            num_passes += 1
            mark_pass()
            state.visited = bytearray(len(state.visited))
        data = mq.flush()
        pass_lengths = [min(mark, len(data)) for mark in marks]
        pass_lengths[-1] = len(data)
        return CodeBlockResult(data, num_passes, planes, mq.ops, pass_lengths)

    # -- the three passes ---------------------------------------------------------

    def _significance_pass(self, mq, contexts, plane: int) -> None:
        state = self.state
        bit_mask = 1 << plane
        for stripe_top, stripe_rows, x in state.stripe_columns():
            for y in range(stripe_top, stripe_top + stripe_rows):
                idx = state.index(x, y)
                if state.sigma[idx]:
                    continue
                h, v, d = state.neighbour_counts(x, y)
                if h + v + d == 0:
                    continue
                bit = 1 if self.magnitude[idx] & bit_mask else 0
                mq.encode(bit, contexts[zc_context(self.orientation, h, v, d)])
                state.visited[idx] = 1
                if bit:
                    state.sigma[idx] = 1
                    self._encode_sign(mq, contexts, x, y, idx)

    def _refinement_pass(self, mq, contexts, plane: int) -> None:
        state = self.state
        bit_mask = 1 << plane
        for stripe_top, stripe_rows, x in state.stripe_columns():
            for y in range(stripe_top, stripe_top + stripe_rows):
                idx = state.index(x, y)
                if not state.sigma[idx] or state.visited[idx]:
                    continue
                h, v, d = state.neighbour_counts(x, y)
                ctx = mr_context(not state.refined[idx], h + v + d > 0)
                bit = 1 if self.magnitude[idx] & bit_mask else 0
                mq.encode(bit, contexts[ctx])
                state.refined[idx] = 1

    def _cleanup_pass(self, mq, contexts, plane: int) -> None:
        state = self.state
        bit_mask = 1 << plane
        for stripe_top, stripe_rows, x in state.stripe_columns():
            start_row = 0
            if stripe_rows == 4 and self._run_mode_eligible(stripe_top, x):
                column_bits = [
                    1 if self.magnitude[state.index(x, stripe_top + k)] & bit_mask else 0
                    for k in range(4)
                ]
                if not any(column_bits):
                    mq.encode(0, contexts[CTX_RUN])
                    continue
                mq.encode(1, contexts[CTX_RUN])
                first_one = column_bits.index(1)
                mq.encode((first_one >> 1) & 1, contexts[CTX_UNI])
                mq.encode(first_one & 1, contexts[CTX_UNI])
                y = stripe_top + first_one
                idx = state.index(x, y)
                state.sigma[idx] = 1
                self._encode_sign(mq, contexts, x, y, idx)
                start_row = first_one + 1
            for k in range(start_row, stripe_rows):
                y = stripe_top + k
                idx = state.index(x, y)
                if state.sigma[idx] or state.visited[idx]:
                    continue
                h, v, d = state.neighbour_counts(x, y)
                bit = 1 if self.magnitude[idx] & bit_mask else 0
                mq.encode(bit, contexts[zc_context(self.orientation, h, v, d)])
                if bit:
                    state.sigma[idx] = 1
                    self._encode_sign(mq, contexts, x, y, idx)

    def _run_mode_eligible(self, stripe_top: int, x: int) -> bool:
        state = self.state
        for k in range(4):
            y = stripe_top + k
            idx = state.index(x, y)
            if state.sigma[idx] or state.visited[idx]:
                return False
            h, v, d = state.neighbour_counts(x, y)
            if h + v + d:
                return False
        return True

    def _encode_sign(self, mq, contexts, x: int, y: int, idx: int) -> None:
        h_contribution, v_contribution = self.state.sign_contributions(x, y)
        ctx, xor_bit = sc_context(h_contribution, v_contribution)
        mq.encode(self.state.sign[idx] ^ xor_bit, contexts[ctx])


class CodeBlockDecoder:
    """Tier-1 decoder, exactly mirroring :class:`CodeBlockEncoder`."""

    def __init__(self, data: bytes, width: int, height: int, orientation: str,
                 num_bitplanes: int, num_passes: Optional[int] = None):
        self.orientation = orientation
        self.state = _BlockState(width, height)
        self.data = data
        self.num_bitplanes = num_bitplanes
        self.num_passes = num_passes
        self.magnitude = [0] * (width * height)
        self.ops = 0

    def decode(self) -> list[int]:
        """Return the signed coefficients, row major."""
        state = self.state
        planes = self.num_bitplanes
        if planes == 0:
            return [0] * (state.width * state.height)
        mq = MqDecoder(self.data)
        contexts = initial_contexts()
        passes_done = 0
        passes_limit = self.num_passes if self.num_passes is not None else 3 * planes - 2
        for plane in range(planes - 1, -1, -1):
            if plane != planes - 1:
                if passes_done >= passes_limit:
                    break
                self._significance_pass(mq, contexts, plane)
                passes_done += 1
                if passes_done >= passes_limit:
                    break
                self._refinement_pass(mq, contexts, plane)
                passes_done += 1
            if passes_done >= passes_limit:
                break
            self._cleanup_pass(mq, contexts, plane)
            passes_done += 1
            state.visited = bytearray(len(state.visited))
        self.ops = mq.ops
        result = []
        for idx, magnitude in enumerate(self.magnitude):
            result.append(-magnitude if state.sign[idx] else magnitude)
        return result

    # -- the three passes ---------------------------------------------------------

    def _significance_pass(self, mq, contexts, plane: int) -> None:
        state = self.state
        bit_value = 1 << plane
        for stripe_top, stripe_rows, x in state.stripe_columns():
            for y in range(stripe_top, stripe_top + stripe_rows):
                idx = state.index(x, y)
                if state.sigma[idx]:
                    continue
                h, v, d = state.neighbour_counts(x, y)
                if h + v + d == 0:
                    continue
                bit = mq.decode(contexts[zc_context(self.orientation, h, v, d)])
                state.visited[idx] = 1
                if bit:
                    state.sigma[idx] = 1
                    self.magnitude[idx] |= bit_value
                    self._decode_sign(mq, contexts, x, y, idx)

    def _refinement_pass(self, mq, contexts, plane: int) -> None:
        state = self.state
        bit_value = 1 << plane
        for stripe_top, stripe_rows, x in state.stripe_columns():
            for y in range(stripe_top, stripe_top + stripe_rows):
                idx = state.index(x, y)
                if not state.sigma[idx] or state.visited[idx]:
                    continue
                h, v, d = state.neighbour_counts(x, y)
                ctx = mr_context(not state.refined[idx], h + v + d > 0)
                if mq.decode(contexts[ctx]):
                    self.magnitude[idx] |= bit_value
                state.refined[idx] = 1

    def _cleanup_pass(self, mq, contexts, plane: int) -> None:
        state = self.state
        bit_value = 1 << plane
        for stripe_top, stripe_rows, x in state.stripe_columns():
            start_row = 0
            if stripe_rows == 4 and self._run_mode_eligible(stripe_top, x):
                if not mq.decode(contexts[CTX_RUN]):
                    continue
                first_one = (mq.decode(contexts[CTX_UNI]) << 1) | mq.decode(contexts[CTX_UNI])
                y = stripe_top + first_one
                idx = state.index(x, y)
                state.sigma[idx] = 1
                self.magnitude[idx] |= bit_value
                self._decode_sign(mq, contexts, x, y, idx)
                start_row = first_one + 1
            for k in range(start_row, stripe_rows):
                y = stripe_top + k
                idx = state.index(x, y)
                if state.sigma[idx] or state.visited[idx]:
                    continue
                h, v, d = state.neighbour_counts(x, y)
                bit = mq.decode(contexts[zc_context(self.orientation, h, v, d)])
                if bit:
                    state.sigma[idx] = 1
                    self.magnitude[idx] |= bit_value
                    self._decode_sign(mq, contexts, x, y, idx)

    def _run_mode_eligible(self, stripe_top: int, x: int) -> bool:
        state = self.state
        for k in range(4):
            y = stripe_top + k
            idx = state.index(x, y)
            if state.sigma[idx] or state.visited[idx]:
                return False
            h, v, d = state.neighbour_counts(x, y)
            if h + v + d:
                return False
        return True

    def _decode_sign(self, mq, contexts, x: int, y: int, idx: int) -> None:
        h_contribution, v_contribution = self.state.sign_contributions(x, y)
        ctx, xor_bit = sc_context(h_contribution, v_contribution)
        self.state.sign[idx] = mq.decode(contexts[ctx]) ^ xor_bit
