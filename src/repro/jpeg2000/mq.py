"""The MQ arithmetic coder of JPEG 2000 (ITU-T T.800, Annex C).

This is the paper's dominant cost centre: the arithmetic decoder accounts
for 88.8 % (lossless) / 78.6 % (lossy) of the software decoding time in
Figure 1, and its resistance to affordable hardware implementation is why
the case study parallelises it as four software tasks instead.

The implementation follows the standard's flowcharts exactly:
INITENC / ENCODE / CODEMPS / CODELPS / RENORME / BYTEOUT / FLUSH for the
encoder and INITDEC / DECODE / MPS-/LPS-EXCHANGE / RENORMD / BYTEIN for the
decoder, including 0xFF byte stuffing and carry propagation.  Probability
adaptation uses the standard 47-state table.
"""

from __future__ import annotations


#: The 47-row probability state table of ITU-T T.800 Table C.2:
#: (Qe, NMPS, NLPS, SWITCH).
QE_TABLE: tuple[tuple[int, int, int, int], ...] = (
    (0x5601, 1, 1, 1),
    (0x3401, 2, 6, 0),
    (0x1801, 3, 9, 0),
    (0x0AC1, 4, 12, 0),
    (0x0521, 5, 29, 0),
    (0x0221, 38, 33, 0),
    (0x5601, 7, 6, 1),
    (0x5401, 8, 14, 0),
    (0x4801, 9, 14, 0),
    (0x3801, 10, 14, 0),
    (0x3001, 11, 17, 0),
    (0x2401, 12, 18, 0),
    (0x1C01, 13, 20, 0),
    (0x1601, 29, 21, 0),
    (0x5601, 15, 14, 1),
    (0x5401, 16, 14, 0),
    (0x5101, 17, 15, 0),
    (0x4801, 18, 16, 0),
    (0x3801, 19, 17, 0),
    (0x3401, 20, 18, 0),
    (0x3001, 21, 19, 0),
    (0x2801, 22, 19, 0),
    (0x2401, 23, 20, 0),
    (0x2201, 24, 21, 0),
    (0x1C01, 25, 22, 0),
    (0x1801, 26, 23, 0),
    (0x1601, 27, 24, 0),
    (0x1401, 28, 25, 0),
    (0x1201, 29, 26, 0),
    (0x1101, 30, 27, 0),
    (0x0AC1, 31, 28, 0),
    (0x09C1, 32, 29, 0),
    (0x08A1, 33, 30, 0),
    (0x0521, 34, 31, 0),
    (0x0441, 35, 32, 0),
    (0x02A1, 36, 33, 0),
    (0x0221, 37, 34, 0),
    (0x0141, 38, 35, 0),
    (0x0111, 39, 36, 0),
    (0x0085, 40, 37, 0),
    (0x0049, 41, 38, 0),
    (0x0025, 42, 39, 0),
    (0x0015, 43, 40, 0),
    (0x0009, 44, 41, 0),
    (0x0005, 45, 42, 0),
    (0x0001, 45, 43, 0),
    (0x5601, 46, 46, 0),
)


class ContextState:
    """Adaptive state of one coding context: table index + MPS sense."""

    __slots__ = ("index", "mps")

    def __init__(self, index: int = 0, mps: int = 0):
        self.index = index
        self.mps = mps

    def reset(self, index: int = 0) -> None:
        self.index = index
        self.mps = 0

    def __repr__(self) -> str:
        return f"ContextState(index={self.index}, mps={self.mps})"


class MqEncoder:
    """MQ encoder over caller-owned context states."""

    def __init__(self):
        self.a = 0
        self.c = 0
        self.ct = 0
        self._out = bytearray()
        #: Basic-operation counter feeding the Fig. 1 profiling model.
        self.ops = 0
        self.init()

    def init(self) -> None:
        """INITENC: reset registers; a zero sentinel byte absorbs nothing
        (CT=12 spacer bits guarantee no carry before the first real byte)."""
        self.a = 0x8000
        self.c = 0
        self._out = bytearray([0x00])  # sentinel, dropped at flush
        self.ct = 12
        self.ops = 0

    def encode(self, bit: int, ctx: ContextState) -> None:
        """ENCODE one decision *bit* in context *ctx*."""
        qe, nmps, nlps, switch = QE_TABLE[ctx.index]
        self.ops += 1
        if bit == ctx.mps:
            self._code_mps(ctx, qe, nmps)
        else:
            self._code_lps(ctx, qe, nlps, switch)

    def _code_mps(self, ctx: ContextState, qe: int, nmps: int) -> None:
        self.a -= qe
        if self.a & 0x8000 == 0:
            if self.a < qe:
                self.a = qe
            else:
                self.c += qe
            ctx.index = nmps
            self._renorm()
        else:
            self.c += qe

    def _code_lps(self, ctx: ContextState, qe: int, nlps: int, switch: int) -> None:
        self.a -= qe
        if self.a < qe:
            self.c += qe
        else:
            self.a = qe
        if switch:
            ctx.mps = 1 - ctx.mps
        ctx.index = nlps
        self._renorm()

    def _renorm(self) -> None:
        while True:
            self.a = (self.a << 1) & 0xFFFF
            self.c <<= 1
            self.ct -= 1
            self.ops += 1
            if self.ct == 0:
                self._byte_out()
            if self.a & 0x8000:
                break

    def _byte_out(self) -> None:
        out = self._out
        if out[-1] == 0xFF:
            out.append((self.c >> 20) & 0xFF)
            self.c &= 0xFFFFF
            self.ct = 7
            return
        if self.c < 0x8000000:
            out.append((self.c >> 19) & 0xFF)
            self.c &= 0x7FFFF
            self.ct = 8
            return
        out[-1] += 1  # carry into the previous byte
        if out[-1] == 0xFF:
            self.c &= 0x7FFFFFF
            out.append((self.c >> 20) & 0xFF)
            self.c &= 0xFFFFF
            self.ct = 7
        else:
            out.append((self.c >> 19) & 0xFF)
            self.c &= 0x7FFFF
            self.ct = 8

    def flush(self) -> bytes:
        """FLUSH: terminate and return the code bytes."""
        self._set_bits()
        self.c <<= self.ct
        self._byte_out()
        self.c <<= self.ct
        self._byte_out()
        data = bytes(self._out[1:])  # drop the sentinel
        if data.endswith(b"\xff"):
            data = data[:-1]  # the terminal 0xFF need not be transmitted
        return data

    def _set_bits(self) -> None:
        temp = self.c + self.a
        self.c |= 0xFFFF
        if self.c >= temp:
            self.c -= 0x8000


class MqDecoder:
    """MQ decoder, symmetric to :class:`MqEncoder`."""

    def __init__(self, data: bytes):
        self.data = data
        self.bp = 0
        self.c = 0
        self.a = 0
        self.ct = 0
        #: Basic-operation counter feeding the Fig. 1 profiling model.
        self.ops = 0
        self.init()

    def _byte_at(self, position: int) -> int:
        if position < len(self.data):
            return self.data[position]
        return 0xFF  # reading past the end behaves like 0xFF (spec C.2.2)

    def init(self) -> None:
        """INITDEC."""
        self.bp = 0
        self.c = self._byte_at(0) << 16
        self._byte_in()
        self.c <<= 7
        self.ct -= 7
        self.a = 0x8000

    def decode(self, ctx: ContextState) -> int:
        """DECODE one decision in context *ctx*.

        DECODE, MPS-/LPS-EXCHANGE, RENORMD and BYTEIN are flattened into
        one function with local-variable register state: the per-bit cost
        of this call dominates the whole decoder (Fig. 1), so the usual
        flowchart-per-procedure structure is collapsed here.
        """
        qe, nmps, nlps, switch = QE_TABLE[ctx.index]
        self.ops += 1
        a = self.a - qe
        c = self.c
        if (c >> 16) & 0xFFFF < qe:
            # LPS exchange path
            if a < qe:
                bit = ctx.mps
                ctx.index = nmps
            else:
                bit = 1 - ctx.mps
                if switch:
                    ctx.mps = 1 - ctx.mps
                ctx.index = nlps
            a = qe
        else:
            c -= qe << 16
            if a & 0x8000:
                self.a = a
                self.c = c
                return ctx.mps
            # MPS exchange path
            if a < qe:
                bit = 1 - ctx.mps
                if switch:
                    ctx.mps = 1 - ctx.mps
                ctx.index = nlps
            else:
                bit = ctx.mps
                ctx.index = nmps
        # RENORMD, with BYTEIN inline
        data = self.data
        length = len(data)
        ct = self.ct
        bp = self.bp
        ops = self.ops
        while True:
            if ct == 0:
                byte = data[bp] if bp < length else 0xFF
                if byte == 0xFF:
                    if (data[bp + 1] if bp + 1 < length else 0xFF) > 0x8F:
                        c += 0xFF00
                        ct = 8
                    else:
                        bp += 1
                        c += (data[bp] if bp < length else 0xFF) << 9
                        ct = 7
                else:
                    bp += 1
                    c += (data[bp] if bp < length else 0xFF) << 8
                    ct = 8
            a = (a << 1) & 0xFFFF
            c = (c << 1) & 0xFFFFFFFF
            ct -= 1
            ops += 1
            if a & 0x8000:
                break
        self.a = a
        self.c = c
        self.ct = ct
        self.bp = bp
        self.ops = ops
        return bit

    def _byte_in(self) -> None:
        if self._byte_at(self.bp) == 0xFF:
            if self._byte_at(self.bp + 1) > 0x8F:
                self.c += 0xFF00
                self.ct = 8
            else:
                self.bp += 1
                self.c += self._byte_at(self.bp) << 9
                self.ct = 7
        else:
            self.bp += 1
            self.c += self._byte_at(self.bp) << 8
            self.ct = 8
