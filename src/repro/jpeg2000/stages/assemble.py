"""The assemble stage: the output frame and each tile's window of it.

The frame is allocated once, before the first tile decodes, and every
tile's reconstruction writes its samples straight into its window
(:func:`~repro.jpeg2000.stages.reconstruct.finish_mct_dc`), so no
finished tile plane outlives its tile.  At full size a window is the
tile's grid bounds (:func:`assemble_full`); a resolution-truncated
decode packs the shrunken tiles edge to edge (:func:`assemble_reduced`),
their sizes read off the tile geometry alone.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..codestream import CodestreamError, CodingParameters
from ..image import Image, TileGrid
from .reconstruct import native_layout


def assemble_full(grid: TileGrid, params: CodingParameters) -> tuple:
    """The full-size frame and each tile's window: ``(image, windows)``,
    ``windows[tile]`` one view per component at the tile's grid bounds."""
    image = _frame(params, params.height, params.width)
    return image, [
        _window(image, grid.tile_bounds(index))
        for index in range(grid.num_tiles)
    ]


def assemble_reduced(grid: TileGrid, params: CodingParameters,
                     max_resolution: int) -> tuple:
    """The resolution-truncated frame and each tile's window, as
    :func:`assemble_full`; each column (row) of tiles is as wide (high)
    as its first tile at *max_resolution*.

    Raises :class:`CodestreamError` when a tile does not fit its column
    or row: small edge tiles stop their DWT early, so on some grids the
    reduced tiles do not pack into one frame.
    """
    sizes = []
    for index in range(grid.num_tiles):
        x0, y0, x1, y1 = grid.tile_bounds(index)
        layout = native_layout(x1 - x0, y1 - y0, params.num_levels,
                               params.codeblock_size, max_resolution)
        sizes.append((layout.width, layout.height))
    across = grid.tiles_across
    for index, (width, height) in enumerate(sizes):
        column = sizes[index % across][0]
        row = sizes[index - index % across][1]
        if (width, height) != (column, row):
            raise CodestreamError(
                f"tile {index} is {width}x{height} at resolution "
                f"{max_resolution}, but its column is {column} wide and its "
                f"row {row} high: the tiles stop their DWT at different "
                "levels and do not pack into one reduced frame"
            )
    xs = [0, *accumulate(width for width, _ in sizes[:across])]
    ys = [0, *accumulate(height for _, height in sizes[::across])]
    image = _frame(params, ys[-1], xs[-1])
    return image, [
        _window(image, (xs[index % across], ys[index // across],
                        xs[index % across] + width,
                        ys[index // across] + height))
        for index, (width, height) in enumerate(sizes)
    ]


def _frame(params: CodingParameters, height: int, width: int) -> Image:
    """The zeroed frame as one ``(components, height, width)`` array,
    its components views of it: separately allocated planes measured
    several times the page faults per decode (EXPERIMENTS.md, "Each
    tile into the frame")."""
    frame = np.zeros((params.num_components, height, width), dtype=np.int64)
    return Image(components=list(frame), bit_depth=params.bit_depth)


def _window(image: Image, bounds: tuple) -> list:
    x0, y0, x1, y1 = bounds
    return [component[y0:y1, x0:x1] for component in image.components]
