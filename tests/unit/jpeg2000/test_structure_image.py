"""Geometry bookkeeping and image containers."""

import numpy as np
import pytest

from repro.jpeg2000 import dwt
from repro.jpeg2000.image import Image, TileGrid, synthetic_image
from repro.jpeg2000.structure import band_shapes, codeblock_grid, grid_dimensions


class TestBandShapes:
    def test_matches_dwt_output(self):
        rng = np.random.default_rng(3)
        for shape in [(16, 16), (17, 13), (5, 9), (128, 128)]:
            tile = rng.integers(0, 10, shape)
            subbands = dwt.forward(tile, "5/3", 3)
            actual = {
                (res, orient): arr.shape for res, orient, arr in subbands.iter_bands()
            }
            predicted = {
                (s.resolution, s.orientation): (s.height, s.width)
                for s in band_shapes(shape[1], shape[0], 3)
            }
            assert predicted == actual

    def test_level_zero(self):
        shapes = band_shapes(16, 16, 0)
        assert len(shapes) == 1
        assert shapes[0].orientation == "LL"
        assert (shapes[0].height, shapes[0].width) == (16, 16)

    def test_effective_levels_stops_at_degenerate(self):
        for size, levels, applied in ((1, 5, 0), (2, 5, 1), (128, 3, 3)):
            top = band_shapes(size, size, levels)[-1].resolution
            assert top == applied


class TestCodeblockGrid:
    def test_exact_division(self):
        blocks = codeblock_grid(64, 64, 32)
        assert len(blocks) == 4
        assert blocks[0].width == blocks[0].height == 32

    def test_edge_blocks_truncated(self):
        blocks = codeblock_grid(40, 40, 32)
        assert grid_dimensions(40, 40, 32) == (2, 2)
        widths = {(b.index_x, b.index_y): b.width for b in blocks}
        assert widths[(0, 0)] == 32 and widths[(1, 0)] == 8

    def test_empty_band(self):
        assert codeblock_grid(0, 16, 32) == []
        assert grid_dimensions(0, 16, 32) == (0, 0)

    def test_raster_order(self):
        blocks = codeblock_grid(96, 64, 32)
        order = [(b.index_x, b.index_y) for b in blocks]
        assert order == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]


class TestTileGrid:
    def test_tile_counts(self):
        grid = TileGrid(512, 512, 128, 128)
        assert grid.num_tiles == 16
        assert grid.tiles_across == grid.tiles_down == 4

    def test_partial_edge_tiles(self):
        grid = TileGrid(100, 60, 32, 32)
        assert grid.tiles_across == 4 and grid.tiles_down == 2
        x0, y0, x1, y1 = grid.tile_bounds(3)
        assert (x1 - x0, y1 - y0) == (4, 32)

    def test_extract_insert_roundtrip(self):
        rng = np.random.default_rng(4)
        source = rng.integers(0, 256, (64, 64))
        grid = TileGrid(64, 64, 32, 32)
        target = np.zeros_like(source)
        for index in range(grid.num_tiles):
            x0, y0, x1, y1 = grid.tile_bounds(index)
            target[y0:y1, x0:x1] = grid.extract(source, index)
        assert np.array_equal(source, target)

    def test_out_of_range_tile(self):
        grid = TileGrid(64, 64, 32, 32)
        with pytest.raises(IndexError):
            grid.tile_bounds(4)


class TestImage:
    def test_equality(self):
        a = synthetic_image(32, 32, 3, seed=1)
        b = synthetic_image(32, 32, 3, seed=1)
        c = synthetic_image(32, 32, 3, seed=2)
        assert a == b
        assert a != c

    def test_mismatched_component_shapes_rejected(self):
        with pytest.raises(ValueError):
            Image(components=[np.zeros((4, 4)), np.zeros((8, 8))])

    def test_psnr_identical_is_infinite(self):
        image = synthetic_image(32, 32, 1)
        assert image.psnr(image) == float("inf")

    def test_psnr_decreases_with_noise(self):
        image = synthetic_image(32, 32, 1, seed=5)
        slightly = Image([image.components[0] + 1], bit_depth=8)
        very = Image([image.components[0] + 16], bit_depth=8)
        assert image.psnr(slightly) > image.psnr(very)

    def test_synthetic_respects_bit_depth(self):
        image = synthetic_image(32, 32, 2, bit_depth=10)
        for comp in image.components:
            assert comp.min() >= 0
            assert comp.max() <= 1023

    def test_synthetic_has_texture(self):
        image = synthetic_image(64, 64, 1)
        assert image.components[0].std() > 10  # not flat
