"""Tile / subband / code-block geometry.

Pure bookkeeping shared by encoder and decoder: how a tile component
decomposes into subbands per resolution, and how each subband partitions
into code blocks.  The decoder must derive exactly the same geometry from
header parameters that the encoder derived from the data, so both sides
call the same functions here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BandShape:
    """One subband's place in the decomposition."""

    resolution: int  # 0 = LL only; r >= 1 adds detail bands
    orientation: str  # LL, HL, LH, HH
    height: int
    width: int


def band_shapes(tile_width: int, tile_height: int, num_levels: int) -> list[BandShape]:
    """All subbands of a tile, in QCD/packet order (coarse to fine).

    Mirrors ``repro.jpeg2000.dwt.forward``: each level splits the current
    LL into a ceil-sized low half and floor-sized high half per dimension.
    Levels stop early for degenerate (1x1) tiles, exactly like the DWT.
    """
    dims = [(tile_height, tile_width)]
    h, w = tile_height, tile_width
    effective_levels = 0
    for _ in range(num_levels):
        if h <= 1 and w <= 1:
            break
        h, w = (h + 1) // 2, (w + 1) // 2
        dims.append((h, w))
        effective_levels += 1
    shapes = [BandShape(0, "LL", dims[-1][0], dims[-1][1])]
    # Resolution r corresponds to decomposition level (effective_levels - r + 1).
    for res in range(1, effective_levels + 1):
        parent_h, parent_w = dims[effective_levels - res]
        low_h, low_w = dims[effective_levels - res + 1]
        shapes.append(BandShape(res, "HL", low_h, parent_w - low_w))
        shapes.append(BandShape(res, "LH", parent_h - low_h, low_w))
        shapes.append(BandShape(res, "HH", parent_h - low_h, parent_w - low_w))
    return shapes


@dataclass(frozen=True)
class CodeBlockGeometry:
    """Position and size of one code block inside its subband."""

    index_x: int
    index_y: int
    x0: int
    y0: int
    width: int
    height: int


def codeblock_grid(band_width: int, band_height: int, cb_size: int) -> list[CodeBlockGeometry]:
    """Raster-order code blocks covering a subband (anchored at its origin)."""
    if band_width == 0 or band_height == 0:
        return []
    blocks = []
    blocks_across = -(-band_width // cb_size)
    blocks_down = -(-band_height // cb_size)
    for by in range(blocks_down):
        for bx in range(blocks_across):
            x0 = bx * cb_size
            y0 = by * cb_size
            blocks.append(
                CodeBlockGeometry(
                    index_x=bx,
                    index_y=by,
                    x0=x0,
                    y0=y0,
                    width=min(cb_size, band_width - x0),
                    height=min(cb_size, band_height - y0),
                )
            )
    return blocks


def grid_dimensions(band_width: int, band_height: int, cb_size: int) -> tuple[int, int]:
    """(blocks_across, blocks_down) of a subband's code-block grid."""
    if band_width == 0 or band_height == 0:
        return 0, 0
    return -(-band_width // cb_size), -(-band_height // cb_size)
