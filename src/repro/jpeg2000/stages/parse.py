"""The parse stage: Tier-2 packet decoding and QCD interpretation.

Turns one tile's codestream bytes into *work descriptions*: the
per-component band layout (Tier-2 protocol state) and every code
block's :class:`~repro.jpeg2000.options.BlockSpec` — geometry plus
``(start, end)`` codeword segment spans left in place in the tile
buffer, which the entropy stage joins into each block's codeword.  Also
owns the QCD-segment interpretation (step sizes, M_b
bounds) that the parse and reconstruct stages both consult.

Pure functions of the coding parameters and tile bytes: no executors,
no telemetry, no options — the driver decides how the results are
scheduled.
"""

from __future__ import annotations

from typing import Optional

from .. import quant
from ..bitio import ff_positions
from ..codestream import CodingParameters, PROGRESSION_RLCP
from ..encoder import _progression, subband_order
from ..errors import DecodingError
from ..options import BlockSpec, TIER2_REFERENCE
from ..structure import band_shapes, codeblock_grid
from ..t2 import CodeBlockContribution, PacketBand, consume_sop, decode_packet


def entropy_specs(
    params: CodingParameters,
    tile_width: int,
    tile_height: int,
    data: bytes,
    *,
    tier2: str,
    max_layers: Optional[int] = None,
    max_resolution: Optional[int] = None,
) -> tuple:
    """Tier-2 only: parse every packet, describe every code block.

    Returns ``(layout, specs)``: *layout* is the per-component band
    dict (the Tier-2 protocol state, needed again by the gather step)
    and *specs* is the tile's :class:`~repro.jpeg2000.options.BlockSpec`
    list in scatter order.  The packet bodies are left in place — the
    specs carry the ``(start, end)`` segment spans into *data* that
    :func:`~repro.jpeg2000.t2.decode_packet` records, and the entropy
    stage joins each block's codeword from them only when it decodes or
    ships the block (:func:`repro.jpeg2000.stages.entropy.run_specs`).
    Tier-1 itself runs in :mod:`repro.jpeg2000.stages.entropy`.
    """
    shapes = band_shapes(tile_width, tile_height, params.num_levels)
    bounds = band_bounds(params)
    # Tier-2 parser selection: the fast path shares one NumPy scan
    # for the 0xFF stuffing boundaries across every packet of the
    # tile and decodes tag trees over flat arrays.  Bit-for-bit
    # identical to the reference parse.
    fast_t2 = tier2 != TIER2_REFERENCE
    ff_index = ff_positions(data) if fast_t2 else None
    per_component_bands: list[dict] = []
    for _ in range(params.num_components):
        bands: dict[tuple[int, str], PacketBand] = {}
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
                fast=fast_t2,
            )
        per_component_bands.append(bands)
    offset = 0
    packet_sequence = 0
    layer_limit = params.num_layers
    if max_layers is not None:
        if params.progression == PROGRESSION_RLCP:
            raise DecodingError(
                "layer truncation needs the LRCP progression; this "
                "codestream is RLCP (use max_resolution instead)"
            )
        layer_limit = min(layer_limit, max_layers)
    for layer, resolution in _progression(params):
        if layer >= layer_limit:
            break
        if (
            max_resolution is not None
            and params.progression == PROGRESSION_RLCP
            and resolution > max_resolution
        ):
            break  # RLCP: everything beyond is a discardable suffix
        for comp_index in range(params.num_components):
            bands = per_component_bands[comp_index]
            packet_bands = [
                band
                for (res, _), band in bands.items()
                if res == resolution
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
                use_eph=params.use_eph, fast=fast_t2, ff_index=ff_index,
            )
            packet_sequence += 1
    # Every code block is an independent decode task; describe them
    # all (across components and subbands) as segment-span specs in
    # the fixed scatter order.
    specs: list[BlockSpec] = []
    for comp_index in range(params.num_components):
        bands = per_component_bands[comp_index]
        for shape in shapes:
            for block in bands[(shape.resolution, shape.orientation)].blocks:
                geo = block.geometry
                specs.append(BlockSpec(
                    geo.width,
                    geo.height,
                    shape.orientation,
                    block.num_bitplanes,
                    block.num_passes,
                    tuple(block.segments),
                ))
    return per_component_bands, specs


def qcd_delta(params: CodingParameters, resolution: int, orientation: str) -> float:
    """Quantisation step of one subband, from the parsed QCD fields."""
    order = subband_order(params.num_levels)
    try:
        index = order.index((resolution, orientation))
    except ValueError:
        raise DecodingError(
            f"no QCD entry for resolution {resolution} band {orientation}"
        ) from None
    if index >= len(params.step_sizes):
        raise DecodingError("QCD step sizes missing or inconsistent")
    range_bits = params.bit_depth + quant.ORIENTATION_GAIN_LOG2[orientation]
    return params.step_sizes[index].delta(range_bits)


def band_bounds(params: CodingParameters) -> dict:
    """M_b bounds per (resolution, orientation), from the QCD fields."""
    order = subband_order(params.num_levels)
    bounds = {}
    if params.lossless:
        if len(params.exponents) != len(order):
            raise DecodingError("QCD exponents missing or inconsistent")
        for key, exponent in zip(order, params.exponents):
            bounds[key] = params.guard_bits + exponent - 1
    else:
        if len(params.step_sizes) != len(order):
            raise DecodingError("QCD step sizes missing or inconsistent")
        for key, step in zip(order, params.step_sizes):
            bounds[key] = params.guard_bits + step.exponent - 1
    return bounds
