"""The JPEG 2000 encoder.

The paper only needs a *decoder*, but the original Thales image material
and codestreams are unavailable; this encoder fabricates standard-shaped
codestreams from synthetic images so the decoder — the profiling subject
and the functional payload of every OSSS model — has real work to do.

Pipeline per tile component: DC level shift, colour transform (RCT for the
5/3 path, ICT for 9/7), multi-level DWT, quantisation (9/7 only), Tier-1
code-block coding, Tier-2 packet assembly (LRCP or RLCP, one or more
quality layers).  Tier-1 runs each band as one batch through the native
kernel (``t1_native``) when it is available; the reference
:class:`~repro.jpeg2000.t1.CodeBlockEncoder` codes every block otherwise,
and any block deeper than 30 bit planes.  Both produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dwt, mct, quant, t1_native
from .codestream import (
    CodingParameters,
    PROGRESSION_RLCP,
    TilePart,
    write_codestream,
)
from .image import Image, TileGrid
from .structure import codeblock_grid
from .t1 import CodeBlockEncoder
from .t2 import CodeBlockContribution, PacketBand, encode_packet, sop_segment


class EncodingError(RuntimeError):
    """The image cannot be represented with the chosen parameters."""


@dataclass
class _CodedBand:
    resolution: int
    orientation: str
    width: int
    height: int
    blocks: list = field(default_factory=list)


def subband_order(num_levels: int):
    """(resolution, orientation) pairs in QCD/packet order."""
    order = [(0, "LL")]
    for res in range(1, num_levels + 1):
        order.extend([(res, "HL"), (res, "LH"), (res, "HH")])
    return order


def _progression(params: CodingParameters):
    """(layer, resolution) pairs in the signalled progression order."""
    layers = range(params.num_layers)
    resolutions = range(params.num_levels + 1)
    if params.progression == PROGRESSION_RLCP:
        return [(l, r) for r in resolutions for l in layers]
    return [(l, r) for l in layers for r in resolutions]


def decomposition_level(num_levels: int, resolution: int) -> int:
    """Decomposition level (1 = finest) of a resolution's detail bands."""
    return num_levels - resolution + 1 if resolution > 0 else num_levels


def signalled_delta(params: CodingParameters, resolution: int, orientation: str) -> float:
    """The exact (QCD-representable) quantisation step for one subband."""
    level = decomposition_level(params.num_levels, resolution)
    raw = quant.default_step(orientation, level, params.num_levels, params.base_step)
    range_bits = params.bit_depth + quant.ORIENTATION_GAIN_LOG2[orientation]
    return quant.StepSize.from_delta(raw, range_bits).delta(range_bits)


def _tier1(blocks: list) -> list:
    """Tier-1 results for one band's ``(array, width, height, orientation)``
    blocks: one native batch, and the reference coder for the blocks it
    cannot take (no C compiler, more than 30 bit planes, or more than the
    4096 samples T.800 allows a code block)."""
    results = [None] * len(blocks)
    if t1_native.available():
        native = [
            index
            for index, (array, *_) in enumerate(blocks)
            if array.size <= t1_native.MAX_AREA
            and int(np.abs(array).max()) >> t1_native.MAX_BITPLANES == 0
        ]
        coded = t1_native.encode_codeblock_batch([blocks[i] for i in native])
        for index, result in zip(native, coded):
            results[index] = result
    for index, result in enumerate(results):
        if result is None:
            array, width, height, orientation = blocks[index]
            results[index] = CodeBlockEncoder(
                array.ravel().tolist(), width, height, orientation
            ).encode()
    return results


class Jpeg2000Encoder:
    """Encode an :class:`~repro.jpeg2000.image.Image` to a codestream."""

    def __init__(self, params: CodingParameters):
        params.validate()
        self.params = params

    def encode(self, image: Image) -> bytes:
        params = self.params
        if image.width != params.width or image.height != params.height:
            raise EncodingError("image size does not match coding parameters")
        if image.num_components != params.num_components:
            raise EncodingError("component count does not match coding parameters")
        if image.bit_depth != params.bit_depth:
            raise EncodingError("bit depth does not match coding parameters")
        grid = TileGrid(params.width, params.height, params.tile_width, params.tile_height)
        # Phase 1: transform + Tier-1 for every tile; collect per-band maxima.
        coded_tiles = []
        max_planes: dict[tuple[int, str], int] = {}
        for tile_index in range(grid.num_tiles):
            bands_per_component = self._code_tile(image, grid, tile_index)
            coded_tiles.append(bands_per_component)
            for component_bands in bands_per_component:
                for band in component_bands:
                    key = (band.resolution, band.orientation)
                    planes = max((b.num_bitplanes for b in band.blocks), default=0)
                    max_planes[key] = max(max_planes.get(key, 0), planes)
        # Phase 2: derive QCD fields and the M_b bounds.
        bounds = self._fill_quantisation_fields(max_planes)
        # Phase 3: assemble packets per tile (LRCP progression).  The
        # PacketBand objects persist across layers: they carry the
        # inter-layer protocol state (tag trees, inclusion, LBlock).
        tile_parts = []
        for tile_index, bands_per_component in enumerate(coded_tiles):
            packet_bands_per_component = [
                [
                    PacketBand(
                        orientation=band.orientation,
                        band_width=band.width,
                        band_height=band.height,
                        cb_size=params.codeblock_size,
                        blocks=band.blocks,
                    )
                    for band in component_bands
                ]
                for component_bands in bands_per_component
            ]
            resolutions_per_component = [
                [band.resolution for band in component_bands]
                for component_bands in bands_per_component
            ]
            body = bytearray()
            packet_sequence = 0
            for layer, resolution in _progression(params):
                for comp_index, packet_bands in enumerate(packet_bands_per_component):
                    selected = [
                        band
                        for band, res in zip(
                            packet_bands, resolutions_per_component[comp_index]
                        )
                        if res == resolution
                    ]
                    res_bounds = {
                        band.orientation: bounds[(resolution, band.orientation)]
                        for band in selected
                    }
                    if params.use_sop:
                        body += sop_segment(packet_sequence)
                    body += encode_packet(
                        selected, res_bounds, layer, params.num_layers,
                        use_eph=params.use_eph,
                    )
                    packet_sequence += 1
            tile_parts.append(TilePart(tile_index=tile_index, data=bytes(body)))
        return write_codestream(params, tile_parts)

    # -- per-tile coding ------------------------------------------------------------

    def _code_tile(self, image: Image, grid: TileGrid, tile_index: int):
        params = self.params
        tiles = [grid.extract(comp, tile_index) for comp in image.components]
        shifted = [mct.dc_shift_forward(t, params.bit_depth) for t in tiles]
        if params.use_mct:
            if params.lossless:
                y, u, v = mct.rct_forward(*shifted[:3])
            else:
                y, u, v = mct.ict_forward(*shifted[:3])
            planes = [y, u, v] + shifted[3:]
        else:
            planes = shifted
        bands_per_component = []
        for plane in planes:
            subbands = dwt.forward(plane, params.transform, params.num_levels)
            component_bands = []
            for resolution, orientation, array in subbands.iter_bands():
                component_bands.append(
                    self._code_band(resolution, orientation, array)
                )
            bands_per_component.append(component_bands)
        return bands_per_component

    def _code_band(self, resolution: int, orientation: str, array: np.ndarray) -> _CodedBand:
        params = self.params
        if params.lossless:
            indices = np.asarray(array, dtype=np.int64)
        else:
            # Quantise with the QCD-representable step so encoder and decoder
            # use bit-identical deltas.
            indices = quant.quantise(array, signalled_delta(params, resolution, orientation))
        height, width = indices.shape
        band = _CodedBand(resolution, orientation, width, height)
        geometries = codeblock_grid(width, height, params.codeblock_size)
        blocks = [
            (
                indices[g.y0 : g.y0 + g.height, g.x0 : g.x0 + g.width],
                g.width,
                g.height,
                orientation,
            )
            for g in geometries
        ]
        for geometry, result in zip(geometries, _tier1(blocks)):
            band.blocks.append(
                CodeBlockContribution(
                    geometry=geometry,
                    data=result.data,
                    num_passes=result.num_passes,
                    num_bitplanes=result.num_bitplanes,
                    pass_lengths=result.pass_lengths,
                )
            )
        return band

    # -- quantisation signalling -------------------------------------------------------

    def _fill_quantisation_fields(self, max_planes: dict) -> dict:
        """Write QCD fields into the parameters; return M_b per band."""
        params = self.params
        order = subband_order(params.num_levels)
        bounds: dict[tuple[int, str], int] = {}
        if params.lossless:
            exponents = []
            guard = params.guard_bits
            for key in order:
                planes = max_planes.get(key, 0)
                exponent = max(0, planes + 1 - guard)
                if exponent > 31:
                    raise EncodingError("dynamic range exceeds QCD exponent field")
                exponents.append(exponent)
                bounds[key] = guard + exponent - 1
            params.exponents = exponents
            params.step_sizes = []
        else:
            steps = []
            needed_guard = params.guard_bits
            for resolution, orientation in order:
                level = decomposition_level(params.num_levels, resolution)
                delta = quant.default_step(
                    orientation, level, params.num_levels, params.base_step
                )
                range_bits = params.bit_depth + quant.ORIENTATION_GAIN_LOG2[orientation]
                step = quant.StepSize.from_delta(delta, range_bits)
                steps.append(step)
                planes = max_planes.get((resolution, orientation), 0)
                needed_guard = max(needed_guard, planes + 1 - step.exponent)
            if needed_guard > 7:
                raise EncodingError(
                    "quantised coefficients exceed the representable bit-plane "
                    "budget; increase base_step"
                )
            params.guard_bits = needed_guard
            for (key, step) in zip(order, steps):
                bounds[key] = params.guard_bits + step.exponent - 1
            params.step_sizes = steps
            params.exponents = []
        return bounds


def encode_image(image: Image, params: CodingParameters) -> bytes:
    """Convenience one-shot encode."""
    return Jpeg2000Encoder(params).encode(image)
