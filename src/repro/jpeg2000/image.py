"""Image and tile containers plus synthetic test material.

The case study decodes a tiled still image: the paper's workload is
**16 tiles with 3 components** (a 512x512 RGB image in 128x128 tiles at
the sizes used throughout this reproduction).  Since the original Thales
image material is unavailable, :func:`synthetic_image` fabricates natural-
looking content (smooth gradients + texture + edges) so the arithmetic
coder sees realistic significance statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Image:
    """A raster image: ``components`` is a list of (height, width) arrays."""

    components: list
    bit_depth: int = 8

    def __post_init__(self):
        if not self.components:
            raise ValueError("an image needs at least one component")
        shape = self.components[0].shape
        for comp in self.components:
            if comp.shape != shape:
                raise ValueError("all components must share one size")

    @property
    def height(self) -> int:
        return self.components[0].shape[0]

    @property
    def width(self) -> int:
        return self.components[0].shape[1]

    @property
    def num_components(self) -> int:
        return len(self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return (
            self.bit_depth == other.bit_depth
            and self.num_components == other.num_components
            and all(np.array_equal(a, b) for a, b in zip(self.components, other.components))
        )

    def psnr(self, other: "Image") -> float:
        """Peak signal-to-noise ratio against a reference image, in dB."""
        peak = (1 << self.bit_depth) - 1
        errors = []
        for mine, theirs in zip(self.components, other.components):
            errors.append(np.mean((mine.astype(np.float64) - theirs.astype(np.float64)) ** 2))
        mse = float(np.mean(errors))
        if mse == 0:
            return float("inf")
        return 10.0 * np.log10(peak * peak / mse)


@dataclass(frozen=True)
class TileGrid:
    """Regular tiling of an image (anchored at the origin)."""

    image_width: int
    image_height: int
    tile_width: int
    tile_height: int

    def __post_init__(self):
        if self.tile_width < 1 or self.tile_height < 1:
            raise ValueError("tile dimensions must be positive")

    @property
    def tiles_across(self) -> int:
        return -(-self.image_width // self.tile_width)

    @property
    def tiles_down(self) -> int:
        return -(-self.image_height // self.tile_height)

    @property
    def num_tiles(self) -> int:
        return self.tiles_across * self.tiles_down

    def tile_bounds(self, tile_index: int) -> tuple[int, int, int, int]:
        """(x0, y0, x1, y1) pixel bounds of a tile, clipped to the image."""
        if not 0 <= tile_index < self.num_tiles:
            raise IndexError(f"tile {tile_index} out of range 0..{self.num_tiles - 1}")
        tx = tile_index % self.tiles_across
        ty = tile_index // self.tiles_across
        x0 = tx * self.tile_width
        y0 = ty * self.tile_height
        x1 = min(x0 + self.tile_width, self.image_width)
        y1 = min(y0 + self.tile_height, self.image_height)
        return x0, y0, x1, y1

    def extract(self, component: np.ndarray, tile_index: int) -> np.ndarray:
        x0, y0, x1, y1 = self.tile_bounds(tile_index)
        return component[y0:y1, x0:x1].copy()


def synthetic_image(
    width: int = 512,
    height: int = 512,
    num_components: int = 3,
    bit_depth: int = 8,
    seed: int = 2008,
) -> Image:
    """Fabricate natural-statistics test content.

    Layers: smooth illumination gradient, low-frequency blobs, oriented
    texture, hard edges and mild noise — enough structure that wavelet
    subbands carry realistic sparsity for the entropy coder.
    """
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    peak = (1 << bit_depth) - 1
    components = []
    for comp_index in range(num_components):
        phase = comp_index * 0.7
        gradient = 0.35 * (xs / max(width - 1, 1)) + 0.25 * (ys / max(height - 1, 1))
        blobs = 0.20 * np.sin(2 * np.pi * xs / (width / 3.0) + phase) * np.cos(
            2 * np.pi * ys / (height / 2.5) - phase
        )
        texture = 0.08 * np.sin(2 * np.pi * (xs + 2 * ys) / 17.0 + phase)
        edges = 0.15 * ((xs // (width / 4.0) + ys // (height / 4.0)) % 2)
        noise = 0.02 * rng.standard_normal((height, width))
        value = 0.15 + gradient + blobs + texture + edges + noise
        samples = np.clip(np.rint(value * peak), 0, peak).astype(np.int64)
        components.append(samples)
    return Image(components=components, bit_depth=bit_depth)
