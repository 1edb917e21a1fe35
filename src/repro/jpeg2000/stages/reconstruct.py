"""The reconstruct stage: gather, IQ, inverse DWT, ICT/RCT, DC shift.

Everything after the entropy kernels and before the tile mosaic.  The
per-tile functions mirror Fig. 1's stage structure (and accumulate
basic-op counts into the caller's ``StageOps``).  The driver calls two
of them per tile, :func:`scatter_entropy` then :func:`finish_tiles`,
and the plan's reconstruct binding picks what they run:

``vectorised``
    the executable specification: the gather into band planes,
    dequantisation one NumPy pass per subband, and the inverse DWT of
    each component through :func:`repro.jpeg2000.dwt.inverse`;
``native``
    the gather, dequantisation and inverse DWT of the whole tile in one
    call of the native kernel
    (:func:`repro.jpeg2000.t1_native.reconstruct_tile`), sample- and
    op-count-identical to the specification.

Both end in the fused colour-transform + DC-shift kernels in NumPy, whose
ICT goes through BLAS — the same call on either path, so host-dependent
rounding there cannot tell the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from ... import telemetry
from .. import dwt, mct, quant, t1_native
from ..codestream import CodingParameters
from ..pipeline import STAGE_ARITH, STAGE_DC, STAGE_ICT, STAGE_IDWT, STAGE_IQ
from ..plan import RECONSTRUCT_NATIVE, RECONSTRUCT_VECTORISED
from ..structure import band_shapes, codeblock_grid
from .parse import qcd_delta


@dataclass
class DecodedBand:
    """One subband's coefficient plane after entropy decoding."""

    resolution: int
    orientation: str
    indices: np.ndarray  # signed quantisation indices


@dataclass(frozen=True)
class FlatTile:
    """One tile's entropy-stage result left flat: the native reconstruct
    gathers it itself."""

    flat: np.ndarray  # every block's coefficients, row-major, scatter order
    offsets: np.ndarray  # each block's start in *flat*


def scatter_entropy(
    params: CodingParameters,
    tile_width: int,
    tile_height: int,
    layout: list,
    flat,
    offsets,
    block_ops: list,
    ops,
    impl: str = RECONSTRUCT_VECTORISED,
):
    """Scatter one tile's entropy-stage result into per-band planes.

    Returns the per-component :class:`DecodedBand` lists and accumulates
    the per-block op counts into *ops*.  Under the ``native``
    reconstruct the gather belongs to the kernel: the result comes back
    as a :class:`FlatTile` for :func:`finish_tiles`.
    """
    if impl == RECONSTRUCT_NATIVE:
        ops.add(STAGE_ARITH, sum(block_ops))
        return FlatTile(flat, offsets)
    shapes = band_shapes(tile_width, tile_height, params.num_levels)
    components: list[list[DecodedBand]] = []
    index = 0
    for comp_index in range(params.num_components):
        bands = layout[comp_index]
        decoded: list[DecodedBand] = []
        for shape in shapes:
            band = bands[(shape.resolution, shape.orientation)]
            plane = np.zeros((shape.height, shape.width), dtype=np.int64)
            for block in band.blocks:
                geo = block.geometry
                start = int(offsets[index])
                ops.add(STAGE_ARITH, block_ops[index])
                plane[
                    geo.y0 : geo.y0 + geo.height, geo.x0 : geo.x0 + geo.width
                ] = flat[start : start + geo.width * geo.height].reshape(
                    geo.height, geo.width
                )
                index += 1
            decoded.append(DecodedBand(shape.resolution, shape.orientation, plane))
        components.append(decoded)
    return components


def dequantise(
    params: CodingParameters,
    decoded_bands: list,
    ops,
    max_resolution: Optional[int] = None,
) -> list:
    """Per component, the dequantised :class:`~repro.jpeg2000.dwt.Subbands`."""
    result = []
    for component in decoded_bands:
        ll: Optional[np.ndarray] = None
        level_quads: dict[int, dict[str, np.ndarray]] = {}
        for band in component:
            if (
                max_resolution is not None
                and band.resolution > max_resolution
            ):
                continue  # resolution-truncated reconstruction
            ops.add(STAGE_IQ, band.indices.size)
            if params.lossless:
                values = band.indices
            else:
                # The step size comes from the parsed QCD segment — the
                # codestream is self-contained, no side channel.
                values = quant.dequantise(
                    band.indices,
                    qcd_delta(params, band.resolution, band.orientation),
                )
            if band.resolution == 0:
                ll = values
            else:
                level_quads.setdefault(band.resolution, {})[band.orientation] = values
        levels = [
            level_quads[res]
            for res in sorted(level_quads.keys(), reverse=True)
        ]
        result.append(dwt.Subbands(ll, levels, params.transform))
    return result


def inverse_dwt(subbands_per_component: list, ops) -> list:
    planes = []
    for subbands in subbands_per_component:
        counts = dwt.DwtOpCounts()
        planes.append(dwt.inverse(subbands, counts))
        ops.add(STAGE_IDWT, counts.total)
    return planes


def inverse_mct(params: CodingParameters, planes: list, ops) -> list:
    if not params.use_mct:
        return planes
    if params.lossless:
        r, g, b = mct.rct_inverse(
            np.rint(planes[0]).astype(np.int64),
            np.rint(planes[1]).astype(np.int64),
            np.rint(planes[2]).astype(np.int64),
        )
    else:
        r, g, b = mct.ict_inverse(planes[0], planes[1], planes[2])
    ops.add(STAGE_ICT, 3 * planes[0].size)
    return [r, g, b] + list(planes[3:])


def dc_shift(params: CodingParameters, planes: list, ops) -> list:
    out = []
    for plane in planes:
        out.append(mct.dc_shift_inverse(plane, params.bit_depth))
        ops.add(STAGE_DC, plane.size)
    return out


def finish_mct_dc(params: CodingParameters, planes: list, ops) -> list:
    """Fused inverse colour transform + DC shift, one pass per plane.

    Value- and op-count-identical to :func:`inverse_mct` followed by
    :func:`dc_shift` (see the fused kernels in
    :mod:`repro.jpeg2000.mct`); the batched reconstruction path uses
    this so each tile plane is traversed once instead of three times.
    """
    if params.use_mct:
        if params.lossless:
            fused = mct.rct_dc_inverse(
                planes[0], planes[1], planes[2], params.bit_depth
            )
        else:
            fused = mct.ict_dc_inverse(
                planes[0], planes[1], planes[2], params.bit_depth
            )
        ops.add(STAGE_ICT, 3 * planes[0].size)
        out = list(fused)
        rest = planes[3:]
    else:
        out = []
        rest = planes
    for plane in rest:
        out.append(mct.dc_shift_inverse(plane, params.bit_depth))
    for plane in planes:
        ops.add(STAGE_DC, plane.size)
    return out


@dataclass(frozen=True)
class NativeLayout:
    """Where the native reconstruct puts one component's samples.

    Every kept subband sits in the Mallat layout of the output plane;
    ``blocks`` holds one ``(index, y, x, height, width)`` row per code
    block of the kept bands (*index* in scatter order within the
    component) and ``bands`` each row's ``(resolution, orientation)``.
    ``levels`` holds each inverse level's ``(height, width)``, coarsest
    first; ``band_samples`` the kept bands' total size (the IQ count).
    """

    height: int
    width: int
    blocks_per_component: int
    blocks: np.ndarray
    bands: tuple
    levels: np.ndarray
    band_samples: int


@lru_cache(maxsize=64)
def native_layout(tile_width: int, tile_height: int, num_levels: int,
                  codeblock_size: int,
                  max_resolution: Optional[int]) -> NativeLayout:
    """The :class:`NativeLayout` of one tile shape (cached: every tile of
    a grid but the edge ones shares it)."""
    shapes = band_shapes(tile_width, tile_height, num_levels)
    top = shapes[-1].resolution
    kept = top if max_resolution is None else min(max_resolution, top)
    # (height, width) of each resolution's image, from the LL band up.
    dims = [(shapes[0].height, shapes[0].width)]
    for res in range(1, top + 1):
        hl, lh = shapes[3 * res - 2], shapes[3 * res - 1]
        dims.append((dims[-1][0] + lh.height, dims[-1][1] + hl.width))
    blocks, bands, samples, index = [], [], 0, 0
    for shape in shapes:
        grid = codeblock_grid(shape.width, shape.height, codeblock_size)
        if shape.resolution <= kept:
            # Detail bands sit beside and below their level's LL.
            low_h, low_w = dims[max(shape.resolution - 1, 0)]
            y = low_h if shape.orientation in ("LH", "HH") else 0
            x = low_w if shape.orientation in ("HL", "HH") else 0
            for number, geo in enumerate(grid):
                blocks.append((index + number, y + geo.y0, x + geo.x0,
                               geo.height, geo.width))
                bands.append((shape.resolution, shape.orientation))
            samples += shape.height * shape.width
        index += len(grid)
    tables = (
        np.array(blocks, dtype=np.int64).reshape(-1, t1_native.BLOCK_FIELDS),
        np.array(dims[1:kept + 1], dtype=np.int64).reshape(
            -1, t1_native.LEVEL_FIELDS
        ),
    )
    for table in tables:
        table.setflags(write=False)
    return NativeLayout(*dims[kept], index, tables[0], tuple(bands),
                        tables[1], samples)


def reconstruct_native(
    params: CodingParameters,
    tile_width: int,
    tile_height: int,
    tile: FlatTile,
    ops,
    max_resolution: Optional[int] = None,
) -> list:
    """Gather, IQ and inverse DWT of one tile in one native call.

    Returns the per-component planes (int64 for 5/3, float64 for 9/7)
    and accumulates the IQ and IDWT op counts into *ops*: values and
    counts are exactly those of :func:`scatter_entropy`,
    :func:`dequantise` and :func:`inverse_dwt` run one after another.
    """
    layout = native_layout(
        tile_width, tile_height, params.num_levels, params.codeblock_size,
        max_resolution,
    )
    components = params.num_components
    deltas = None
    if not params.lossless:
        steps = {
            band: qcd_delta(params, *band) for band in set(layout.bands)
        }
        deltas = np.array([steps[band] for band in layout.bands])
    planes = t1_native.reconstruct_tile(
        tile.flat, tile.offsets, layout.blocks_per_component, layout.blocks,
        layout.levels, (components, layout.height, layout.width), deltas,
    )
    counts = dwt.DwtOpCounts()
    for height, width in layout.levels.tolist():
        dwt.tally_level(counts, params.transform, height * width)
    ops.add(STAGE_IQ, components * layout.band_samples)
    ops.add(STAGE_IDWT, components * counts.total)
    return list(planes)


def finish_tiles(stages, bands) -> list:
    """Stages 2–5 for one tile; returns its component sample planes.

    *stages* is the tile's ``TileStages`` driver (op accumulator and
    coding parameters) and *bands* what :func:`scatter_entropy` returned
    for it.  A :class:`FlatTile` is gathered, dequantised and inverted
    by the native kernel in one call; band planes are dequantised one
    NumPy pass per subband and inverted per component by
    :func:`~repro.jpeg2000.dwt.inverse`.  The colour transform and DC
    shift then run as fused whole-plane kernels.  Values and op counts
    are exactly those of the per-stage path.
    """
    if isinstance(bands, FlatTile):
        with telemetry.software_span("stage", "iq_idwt", "decode"):
            planes = reconstruct_native(
                stages.params, stages.tile_width, stages.tile_height, bands,
                stages.ops, stages.max_resolution,
            )
    else:
        with telemetry.software_span("stage", "dequant", "decode"):
            subbands = stages._staged(STAGE_IQ, stages.dequantise, bands)
        with telemetry.software_span("stage", "idwt", "decode"):
            planes = stages.inverse_dwt(subbands)
    with telemetry.software_span("stage", "mct_dc", "decode"):
        return stages.finish_mct_dc(planes)
