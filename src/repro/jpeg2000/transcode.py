"""Codestream transcoding without re-encoding.

The point of embedded quality layers is that a middlebox can reduce the
rate of a codestream by *dropping packets* — no entropy decoding, no
wavelet work, just byte surgery.  :func:`drop_layers` does exactly that
for LRCP streams: it locates the byte boundary after the last kept layer
in every tile (by replaying the packet headers), truncates the tile
bodies, and rewrites the main header to announce the smaller layer count.

The output is a fully valid codestream; decoding it equals decoding the
original with ``max_layers`` set — which the tests assert bit for bit.
"""

from __future__ import annotations

import dataclasses

from .codestream import (
    CodingParameters,
    PROGRESSION_LRCP,
    TilePart,
    parse_codestream,
    write_codestream,
)
from .encoder import _progression
from .errors import DecodeError
from .image import TileGrid
from .stages.parse import band_bounds
from .structure import band_shapes, codeblock_grid
from .t2 import CodeBlockContribution, PacketBand, consume_sop, decode_packet


class TranscodeError(DecodeError, ValueError):
    """The requested transformation is not possible on this stream."""


def _tile_prefix_length(
    params: CodingParameters,
    tile_width: int,
    tile_height: int,
    data: bytes,
    keep_layers: int,
) -> int:
    """Bytes of tile data covering the first *keep_layers* layers."""
    shapes = band_shapes(tile_width, tile_height, params.num_levels)
    bounds = band_bounds(params)
    bands_per_component = []
    for _ in range(params.num_components):
        bands = {}
        for shape in shapes:
            bands[(shape.resolution, shape.orientation)] = PacketBand(
                orientation=shape.orientation,
                band_width=shape.width,
                band_height=shape.height,
                cb_size=params.codeblock_size,
                blocks=[
                    CodeBlockContribution(geometry=geo)
                    for geo in codeblock_grid(
                        shape.width, shape.height, params.codeblock_size
                    )
                ],
            )
        bands_per_component.append(bands)
    offset = 0
    packet_sequence = 0
    for layer, resolution in _progression(params):
        if layer >= keep_layers:
            break
        for comp_index in range(params.num_components):
            bands = bands_per_component[comp_index]
            packet_bands = [
                band for (res, _), band in bands.items() if res == resolution
            ]
            res_bounds = {
                orientation: bound
                for (res, orientation), bound in bounds.items()
                if res == resolution
            }
            if params.use_sop:
                offset = consume_sop(data, offset, packet_sequence)
            offset = decode_packet(
                data, offset, packet_bands, res_bounds, layer,
                use_eph=params.use_eph,
            )
            packet_sequence += 1
    return offset


def drop_layers(codestream: bytes, keep_layers: int) -> bytes:
    """Return a codestream containing only the first *keep_layers* layers."""
    parsed = parse_codestream(codestream)
    params = parsed.parameters
    if keep_layers < 1:
        raise TranscodeError("at least one layer must be kept")
    if params.progression != PROGRESSION_LRCP:
        raise TranscodeError(
            "layer dropping needs the LRCP progression (layer-major packets)"
        )
    if keep_layers >= params.num_layers:
        return codestream  # nothing to drop
    grid = TileGrid(params.width, params.height, params.tile_width, params.tile_height)
    new_parts = []
    for part in parsed.tile_parts:
        x0, y0, x1, y1 = grid.tile_bounds(part.tile_index)
        prefix = _tile_prefix_length(
            params, x1 - x0, y1 - y0, part.data, keep_layers
        )
        new_parts.append(TilePart(part.tile_index, part.data[:prefix]))
    new_params = dataclasses.replace(params, num_layers=keep_layers)
    return write_codestream(new_params, new_parts)
