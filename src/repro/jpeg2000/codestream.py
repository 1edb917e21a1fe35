"""Codestream syntax: marker segments (ITU-T T.800, Annex A).

Implements the main-header and tile-part structure the case-study decoder
parses: SOC, SIZ (image/tile geometry), COD (coding style), QCD
(quantisation), SOT/SOD tile-parts and EOC.  The writer and parser are
exact inverses; everything the decoder needs travels in the codestream —
no side channels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from .errors import DecodeError
from .quant import StepSize

SOC = 0xFF4F
SIZ = 0xFF51
COD = 0xFF52
QCD = 0xFF5C
SOT = 0xFF90
SOD = 0xFF93
EOC = 0xFFD9

#: COD transform field values.
TRANSFORM_97 = 0
TRANSFORM_53 = 1

#: Progression orders (SGcod).
PROGRESSION_LRCP = 0
PROGRESSION_RLCP = 1

_PROGRESSION_NAMES = {PROGRESSION_LRCP: "LRCP", PROGRESSION_RLCP: "RLCP"}

#: The most decoded samples (width x height x components) a codestream
#: may claim.  SIZ fields are 32-bit, so a 16-byte header edit can
#: announce a 40000 x 40000 image whose code-block grids alone take
#: seconds and gigabytes to build before the first packet fails; this
#: bound rejects it at parse time.  2^26 is 85x the paper's 512x512x3
#: image and far above every test and benchmark workload.
MAX_DECODED_SAMPLES = 1 << 26


class CodestreamError(DecodeError, ValueError):
    """Malformed or unsupported codestream."""


@dataclass
class CodingParameters:
    """Everything SIZ/COD/QCD carry, in decoded form."""

    width: int
    height: int
    num_components: int = 3
    bit_depth: int = 8
    tile_width: int = 128
    tile_height: int = 128
    num_levels: int = 3
    codeblock_exp: int = 5  # 32x32 code blocks
    lossless: bool = True
    use_mct: bool = True
    num_layers: int = 1
    progression: int = PROGRESSION_LRCP
    #: Error-resilience markers: SOP (start-of-packet, with a sequence
    #: number that detects desynchronisation) and EPH (end of packet
    #: header).
    use_sop: bool = False
    use_eph: bool = False
    guard_bits: int = 2
    base_step: float = 1.0 / 128.0
    #: Step sizes per subband for the irreversible path, in QCD order
    #: (LL, then HL/LH/HH per resolution, coarse to fine).  Filled by the
    #: encoder; reconstructed by the parser.
    step_sizes: list = field(default_factory=list)
    #: Ranging exponents for the reversible path, same order.
    exponents: list = field(default_factory=list)

    @property
    def codeblock_size(self) -> int:
        return 1 << self.codeblock_exp

    @property
    def transform(self) -> str:
        return "5/3" if self.lossless else "9/7"

    def num_subbands(self) -> int:
        return 1 + 3 * self.num_levels

    def num_tiles(self) -> int:
        across = -(-self.width // self.tile_width)
        return across * -(-self.height // self.tile_height)

    def validate(self) -> None:
        if self.width < 1 or self.height < 1:
            raise CodestreamError("image dimensions must be positive")
        if self.tile_width < 1 or self.tile_height < 1:
            raise CodestreamError("tile dimensions must be positive")
        if not 1 <= self.num_components <= 16384:
            raise CodestreamError("component count out of range")
        if not 1 <= self.bit_depth <= 16:
            raise CodestreamError("bit depth out of range (1..16 supported)")
        if self.num_levels < 0 or self.num_levels > 32:
            raise CodestreamError("decomposition level count out of range")
        if not 2 <= self.codeblock_exp <= 10:
            raise CodestreamError("code block exponent out of range")
        if not 1 <= self.num_layers <= 64:
            raise CodestreamError("layer count out of the supported range 1..64")
        if self.use_mct and self.num_components < 3:
            raise CodestreamError("the colour transform needs 3 components")


@dataclass
class TilePart:
    """One SOT..SOD..data unit."""

    tile_index: int
    data: bytes


@dataclass
class Codestream:
    """A parsed codestream: header parameters plus tile-part bodies."""

    parameters: CodingParameters
    tile_parts: list


# -- writer --------------------------------------------------------------------


def _marker(code: int) -> bytes:
    return struct.pack(">H", code)


def _segment(code: int, body: bytes) -> bytes:
    return struct.pack(">HH", code, len(body) + 2) + body


def write_siz(params: CodingParameters) -> bytes:
    body = struct.pack(
        ">HIIIIIIII",
        0,  # Rsiz: baseline capabilities
        params.width,
        params.height,
        0,
        0,  # image offset
        params.tile_width,
        params.tile_height,
        0,
        0,  # tile offset
    )
    body += struct.pack(">H", params.num_components)
    for _ in range(params.num_components):
        body += struct.pack(">BBB", params.bit_depth - 1, 1, 1)  # unsigned, no subsampling
    return _segment(SIZ, body)


def write_cod(params: CodingParameters) -> bytes:
    scod = (0x02 if params.use_sop else 0) | (0x04 if params.use_eph else 0)
    sgcod = struct.pack(
        ">BHB", params.progression, params.num_layers, 1 if params.use_mct else 0
    )
    transform = TRANSFORM_53 if params.lossless else TRANSFORM_97
    spcod = struct.pack(
        ">BBBBB",
        params.num_levels,
        params.codeblock_exp - 2,  # xcb
        params.codeblock_exp - 2,  # ycb
        0,  # code block style: all defaults
        transform,
    )
    return _segment(COD, bytes([scod]) + sgcod + spcod)


def write_qcd(params: CodingParameters) -> bytes:
    if params.lossless:
        sqcd = 0 | (params.guard_bits << 5)  # style 0: no quantisation
        body = bytes([sqcd]) + bytes((exp & 0x1F) << 3 for exp in params.exponents)
    else:
        sqcd = 2 | (params.guard_bits << 5)  # style 2: scalar expounded
        body = bytes([sqcd])
        for step in params.step_sizes:
            body += struct.pack(">H", step.packed())
    return _segment(QCD, body)


def write_sot(tile_index: int, tile_length: int) -> bytes:
    # Psot covers SOT segment + SOD marker + data.
    psot = 12 + 2 + tile_length
    return struct.pack(">HHHIBB", SOT, 10, tile_index, psot, 0, 1)


def write_codestream(params: CodingParameters, tile_parts) -> bytes:
    """Assemble a full codestream from parameters and tile bodies."""
    params.validate()
    out = bytearray()
    out += _marker(SOC)
    out += write_siz(params)
    out += write_cod(params)
    out += write_qcd(params)
    for part in tile_parts:
        out += write_sot(part.tile_index, len(part.data))
        out += _marker(SOD)
        out += part.data
    out += _marker(EOC)
    return bytes(out)


# -- parser --------------------------------------------------------------------


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    # Every read goes through take(), so a truncated header raises
    # CodestreamError rather than struct.error or IndexError.
    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def take(self, count: int) -> bytes:
        chunk = self.data[self.pos : self.pos + count]
        if len(chunk) != count:
            raise CodestreamError("truncated codestream")
        self.pos += count
        return chunk


def parse_codestream(data: bytes) -> Codestream:
    """Parse a codestream produced by :func:`write_codestream`."""
    cursor = _Cursor(data)
    if cursor.u16() != SOC:
        raise CodestreamError("missing SOC marker")
    params: Optional[CodingParameters] = None
    quant_pending: Optional[bytes] = None
    tile_parts: list[TilePart] = []
    while True:
        marker = cursor.u16()
        if marker == EOC:
            break
        if marker == SIZ:
            params = _parse_siz(cursor)
        elif marker == COD:
            if params is None:
                raise CodestreamError("COD before SIZ")
            _parse_cod(cursor, params)
        elif marker == QCD:
            if params is None:
                raise CodestreamError("QCD before SIZ")
            quant_pending = cursor.take(cursor.u16() - 2)
        elif marker == SOT:
            if params is None:
                raise CodestreamError("tile-part before main header")
            length = cursor.u16()
            if length != 10:
                raise CodestreamError(f"unexpected Lsot {length}")
            tile_index = cursor.u16()
            psot = cursor.u32()
            cursor.u8()  # TPsot
            cursor.u8()  # TNsot
            if cursor.u16() != SOD:
                raise CodestreamError("expected SOD after SOT")
            body = cursor.take(psot - 12 - 2)
            tile_parts.append(TilePart(tile_index=tile_index, data=body))
        else:
            raise CodestreamError(f"unsupported marker 0x{marker:04X}")
    if params is None:
        raise CodestreamError("codestream has no SIZ segment")
    if quant_pending is not None:
        _parse_qcd_body(quant_pending, params)
    params.validate()
    # Bound the work the header announces before any array is built.
    num_tiles = params.num_tiles()
    for part in tile_parts:
        if part.tile_index >= num_tiles:
            raise CodestreamError(
                f"tile-part for tile {part.tile_index}, but SIZ declares "
                f"{num_tiles} tile(s)"
            )
    samples = params.width * params.height * params.num_components
    if samples > MAX_DECODED_SAMPLES:
        raise CodestreamError(
            f"SIZ declares {samples} decoded samples, above the "
            f"supported {MAX_DECODED_SAMPLES}"
        )
    return Codestream(parameters=params, tile_parts=tile_parts)


def _parse_siz(cursor: _Cursor) -> CodingParameters:
    cursor.u16()  # Lsiz
    cursor.u16()  # Rsiz
    width = cursor.u32()
    height = cursor.u32()
    if cursor.u32() or cursor.u32():
        raise CodestreamError("image offsets are not supported")
    tile_width = cursor.u32()
    tile_height = cursor.u32()
    if cursor.u32() or cursor.u32():
        raise CodestreamError("tile offsets are not supported")
    num_components = cursor.u16()
    bit_depth = None
    for _ in range(num_components):
        ssiz = cursor.u8()
        if ssiz & 0x80:
            raise CodestreamError("signed components are not supported")
        depth = (ssiz & 0x7F) + 1
        if bit_depth is not None and depth != bit_depth:
            raise CodestreamError("per-component bit depths must match")
        bit_depth = depth
        if cursor.u8() != 1 or cursor.u8() != 1:
            raise CodestreamError("component subsampling is not supported")
    return CodingParameters(
        width=width,
        height=height,
        num_components=num_components,
        bit_depth=bit_depth,
        tile_width=tile_width,
        tile_height=tile_height,
    )


def _parse_cod(cursor: _Cursor, params: CodingParameters) -> None:
    cursor.u16()  # Lcod
    scod = cursor.u8()
    if scod & ~0x06:
        raise CodestreamError("precinct coding styles are not supported")
    params.use_sop = bool(scod & 0x02)
    params.use_eph = bool(scod & 0x04)
    progression = cursor.u8()
    if progression not in _PROGRESSION_NAMES:
        raise CodestreamError(f"unsupported progression order {progression}")
    params.progression = progression
    params.num_layers = cursor.u16()
    if not 1 <= params.num_layers <= 64:
        raise CodestreamError("layer count out of the supported range 1..64")
    params.use_mct = bool(cursor.u8())
    params.num_levels = cursor.u8()
    xcb = cursor.u8() + 2
    ycb = cursor.u8() + 2
    if xcb != ycb:
        raise CodestreamError("non-square code blocks are not supported")
    params.codeblock_exp = xcb
    if cursor.u8() != 0:
        raise CodestreamError("code block style options are not supported")
    params.lossless = cursor.u8() == TRANSFORM_53


def _parse_qcd_body(body: bytes, params: CodingParameters) -> None:
    sqcd = body[0]
    style = sqcd & 0x1F
    params.guard_bits = sqcd >> 5
    expected = params.num_subbands()
    if style == 0:
        exponents = [value >> 3 for value in body[1:]]
        if len(exponents) != expected:
            raise CodestreamError("QCD exponent count does not match COD levels")
        params.exponents = exponents
    elif style == 2:
        raw = body[1:]
        if len(raw) != 2 * expected:
            raise CodestreamError("QCD step count does not match COD levels")
        params.step_sizes = [
            StepSize.unpack(struct.unpack_from(">H", raw, 2 * i)[0]) for i in range(expected)
        ]
    else:
        raise CodestreamError(f"unsupported quantisation style {style}")
