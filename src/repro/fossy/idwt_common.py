"""Shared structure of the two IDWT hardware models.

Both the 5/3 and the 9/7 block follow the same architecture (as the paper
notes, "the overall structure of the SystemC and the reference VHDL model
is very similar"): a control part iterating decomposition levels, rows and
columns, line load/store procedures against the tile RAM, and a line
buffer of ``2N+5`` samples — the paper's
``osss_array<short, 2*N+5>`` mapped to a ``xilinx_block_ram``.

The filter-specific lifting procedures are supplied by the callers
(``idwt53`` / ``idwt97``).
"""

from __future__ import annotations

from .behaviour import (
    Assign,
    Bin,
    Call,
    Const,
    Design,
    For,
    If,
    MemRef,
    Memory,
    Procedure,
    Tick,
    Var,
)

#: Maximum line length the hardware supports (one 128-sample tile line).
MAX_LINE = 128
#: Sample width inside the datapath (short, as in the paper's listing).
SAMPLE_BITS = 18
#: Address width of the tile coefficient RAM (the paper's 16-bit example).
ADDR_BITS = 16
#: Loop counter width.
IDX_BITS = 10


def idx(name: str) -> Var:
    return Var(name, IDX_BITS)


def line_access_procedures() -> list:
    """Load/store a line between the tile RAM and the line buffer.

    Horizontal lines are contiguous; vertical lines are strided — both
    variants exist, as in the handcrafted model.
    """
    k = idx("k")
    length = idx("length")
    base = Var("base", ADDR_BITS)
    stride = Var("stride", ADDR_BITS)
    addr = Var("addr", ADDR_BITS)

    def loader(name: str) -> Procedure:
        return Procedure(
            name=name,
            params=[base, stride, length],
            locals=[k, addr],
            body=[
                Assign(addr, base),
                For(k, Const(0, IDX_BITS), length, [
                    Assign(
                        MemRef("line_buf", Bin("+", k, Const(2, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                        MemRef("tile_ram", addr, SAMPLE_BITS),
                    ),
                    Assign(addr, Bin("+", addr, stride, ADDR_BITS)),
                    Tick(),
                ]),
            ],
        )

    def storer(name: str) -> Procedure:
        return Procedure(
            name=name,
            params=[base, stride, length],
            locals=[k, addr],
            body=[
                Assign(addr, base),
                For(k, Const(0, IDX_BITS), length, [
                    Assign(
                        MemRef("tile_ram", addr, SAMPLE_BITS),
                        MemRef("line_buf", Bin("+", k, Const(2, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                    ),
                    Assign(addr, Bin("+", addr, stride, ADDR_BITS)),
                    Tick(),
                ]),
            ],
        )

    return [
        loader("load_line_h"),
        loader("load_line_v"),
        storer("store_line_h"),
        storer("store_line_v"),
    ]


def extension_procedure() -> Procedure:
    """Whole-sample symmetric extension at both line-buffer edges."""
    length = idx("length")
    return Procedure(
        name="extend_symmetric",
        params=[length],
        locals=[],
        body=[
            # left edge: buf[1] = buf[3], buf[0] = buf[4]
            Assign(MemRef("line_buf", Const(1, IDX_BITS), SAMPLE_BITS),
                   MemRef("line_buf", Const(3, IDX_BITS), SAMPLE_BITS)),
            Assign(MemRef("line_buf", Const(0, IDX_BITS), SAMPLE_BITS),
                   MemRef("line_buf", Const(4, IDX_BITS), SAMPLE_BITS)),
            Tick(),
            # right edge: buf[len+2] = buf[len], buf[len+3] = buf[len-1]
            Assign(
                MemRef("line_buf", Bin("+", length, Const(2, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                MemRef("line_buf", length, SAMPLE_BITS),
            ),
            Assign(
                MemRef("line_buf", Bin("+", length, Const(3, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                MemRef("line_buf", Bin("-", length, Const(1, IDX_BITS), IDX_BITS), SAMPLE_BITS),
            ),
            Tick(),
        ],
    )


def interleave_procedure() -> Procedure:
    """De-interleave low/high halves into even/odd positions in place.

    The subband layout stores lowpass samples first; lifting operates on
    interleaved even/odd samples, so each line is re-ordered through the
    scratch half of the buffer before the lifting steps run.
    """
    k = idx("k")
    half = idx("half")
    length = idx("length")
    return Procedure(
        name="interleave",
        params=[length, half],
        locals=[k],
        body=[
            For(k, Const(0, IDX_BITS), half, [
                Assign(
                    MemRef("scratch_buf", Bin("<<", k, Const(1, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                    MemRef("line_buf", Bin("+", k, Const(2, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                ),
                Assign(
                    MemRef(
                        "scratch_buf",
                        Bin("+", Bin("<<", k, Const(1, IDX_BITS), IDX_BITS), Const(1, IDX_BITS), IDX_BITS),
                        SAMPLE_BITS,
                    ),
                    MemRef("line_buf", Bin("+", Bin("+", k, half, IDX_BITS), Const(2, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                ),
                Tick(),
            ]),
            For(k, Const(0, IDX_BITS), length, [
                Assign(
                    MemRef("line_buf", Bin("+", k, Const(2, IDX_BITS), IDX_BITS), SAMPLE_BITS),
                    MemRef("scratch_buf", k, SAMPLE_BITS),
                ),
                Tick(),
            ]),
        ],
    )


def clamp_procedure(sample_bits: int) -> Procedure:
    """Saturate every reconstructed sample to the legal output range."""
    length = idx("length")
    k = idx("k")
    value = Var("value", sample_bits)
    limit_hi = (1 << (sample_bits - 2)) - 1
    limit_lo = -(1 << (sample_bits - 2))
    return Procedure(
        name="clamp_line",
        params=[length],
        locals=[k, value],
        body=[
            For(k, Const(0, IDX_BITS), length, [
                Assign(value, MemRef("line_buf", Bin("+", k, Const(2, IDX_BITS), IDX_BITS), sample_bits)),
                Tick(),
                If(Bin(">", value, Const(limit_hi, sample_bits), 1), [
                    Assign(MemRef("line_buf", Bin("+", k, Const(2, IDX_BITS), IDX_BITS), sample_bits),
                           Const(limit_hi, sample_bits)),
                ], [
                    If(Bin("<", value, Const(limit_lo, sample_bits), 1), [
                        Assign(MemRef("line_buf", Bin("+", k, Const(2, IDX_BITS), IDX_BITS), sample_bits),
                               Const(limit_lo, sample_bits)),
                    ], []),
                ]),
                Tick(),
            ]),
        ],
    )


def handshake_preamble() -> list:
    """Parameter latching and sanity checks before processing starts."""
    tile_w = idx("tile_w")
    tile_h = idx("tile_h")
    num_levels = idx("num_levels")
    lw = idx("latched_w")
    lh = idx("latched_h")
    ln = idx("latched_n")
    return [
        Assign(Var("busy_flag", 1), Const(1, 1)),
        Assign(lw, tile_w),
        Assign(lh, tile_h),
        Assign(ln, num_levels),
        Tick(),
        If(Bin(">", ln, Const(6, IDX_BITS), 1), [
            Assign(ln, Const(6, IDX_BITS)),  # clamp to supported depth
        ], []),
        If(Bin("<", lw, Const(2, IDX_BITS), 1), [
            Assign(lw, Const(2, IDX_BITS)),
        ], []),
        If(Bin("<", lh, Const(2, IDX_BITS), 1), [
            Assign(lh, Const(2, IDX_BITS)),
        ], []),
        Tick(),
    ]


def control_main(lift_line_proc: str) -> list:
    """The 2D multi-level control part shared by both filters.

    For each decomposition level (coarse to fine): transform every row,
    then every column of the current sub-image, calling the filter's
    ``lift_line`` procedure on the line buffer.
    """
    level = idx("level")
    row = idx("row")
    col = idx("col")
    cur_w = idx("cur_w")
    cur_h = idx("cur_h")
    num_levels = idx("num_levels")
    tile_w = idx("tile_w")
    row_base = Var("row_base", ADDR_BITS)

    num_levels_l = idx("latched_n")
    tile_w_l = idx("latched_w")
    tile_h_l = idx("latched_h")
    return handshake_preamble() + [
        Assign(cur_w, Bin(">>", tile_w_l, Bin("-", num_levels_l, Const(1, IDX_BITS), IDX_BITS), IDX_BITS)),
        Assign(cur_h, Bin(">>", tile_h_l, Bin("-", num_levels_l, Const(1, IDX_BITS), IDX_BITS), IDX_BITS)),
        Tick(),
        For(level, Const(0, IDX_BITS), num_levels_l, [
            # the inverse transform undoes the forward row/column order:
            # columns of the current sub-image first ...
            For(col, Const(0, IDX_BITS), cur_w, [
                Call("load_line_v", [_widen(col), _widen(tile_w_l), cur_h]),
                Call("interleave", [cur_h, Bin("+", Bin(">>", cur_h, Const(1, IDX_BITS), IDX_BITS), Bin("&", cur_h, Const(1, IDX_BITS), IDX_BITS), IDX_BITS)]),
                Call(lift_line_proc, [cur_h]),
                Call("store_line_v", [_widen(col), _widen(tile_w_l), cur_h]),
            ]),
            # ... then the rows; the row base address is accumulated, not
            # multiplied (no DSP in the address path)
            Assign(row_base, Const(0, ADDR_BITS)),
            For(row, Const(0, IDX_BITS), cur_h, [
                Call("load_line_h", [row_base, Const(1, ADDR_BITS), cur_w]),
                Call("interleave", [cur_w, Bin("+", Bin(">>", cur_w, Const(1, IDX_BITS), IDX_BITS), Bin("&", cur_w, Const(1, IDX_BITS), IDX_BITS), IDX_BITS)]),
                Call(lift_line_proc, [cur_w]),
                # the finest level produces output samples: clamp them
                If(Bin("=", level, Bin("-", num_levels_l, Const(1, IDX_BITS), IDX_BITS), 1), [
                    Call("clamp_line", [cur_w]),
                ], []),
                Call("store_line_h", [row_base, Const(1, ADDR_BITS), cur_w]),
                Assign(row_base, Bin("+", row_base, _widen(tile_w_l), ADDR_BITS)),
            ]),
            Assign(cur_w, Bin("<<", cur_w, Const(1, IDX_BITS), IDX_BITS)),
            Assign(cur_h, Bin("<<", cur_h, Const(1, IDX_BITS), IDX_BITS)),
            Tick(),
        ]),
        Assign(Var("busy_flag", 1), Const(0, 1)),
        Tick(),
    ]


def _widen(var: Var) -> Bin:
    """Zero-extend an index to the address width."""
    return Bin("+", Var(var.name, ADDR_BITS), Const(0, ADDR_BITS), ADDR_BITS)


def base_design(name: str) -> Design:
    """Ports, registers and memories shared by both IDWT blocks."""
    return Design(
        name=name,
        inputs=[idx("tile_w"), idx("tile_h"), idx("num_levels")],
        outputs=[Var("busy_flag", 1)],
        registers=[
            idx("level"), idx("row"), idx("col"), idx("cur_w"), idx("cur_h"),
            idx("latched_w"), idx("latched_h"), idx("latched_n"),
            Var("row_base", ADDR_BITS),
        ],
        memories=[
            # the paper's xilinx_block_ram<osss_array<short, 2N+5>, 32, 16>
            Memory("line_buf", SAMPLE_BITS, 2 * MAX_LINE + 5),
            Memory("scratch_buf", SAMPLE_BITS, 2 * MAX_LINE),
            Memory("tile_ram", SAMPLE_BITS, MAX_LINE * MAX_LINE),
        ],
        procedures=line_access_procedures() + [extension_procedure(), interleave_procedure()],
    )
