"""The case-study workload: what every model version decodes.

Table 1 measures "time needed to decode 16 tiles with 3 components" at
100 MHz.  :func:`paper_workload` builds exactly that in performance mode
(EET-annotated, synthetic payload sizes).  :func:`functional_workload`
builds a small real-codestream workload where the models actually decode
image data through the OSSS structure — used to verify that every
refinement step preserves function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .profiles import HW_COPROCESSOR_SPEEDUP, StageTimes, profile_for

if TYPE_CHECKING:
    from ..jpeg2000 import Image, Jpeg2000Decoder

#: Paper workload geometry: 512x512 RGB in 128x128 tiles = 16 tiles.
PAPER_TILE_SIZE = 128
PAPER_TILES = 16
PAPER_COMPONENTS = 3


@dataclass
class Workload:
    """Everything a model version needs to know about its input."""

    num_tiles: int
    num_components: int
    tile_width: int
    tile_height: int
    lossless: bool
    #: Per-tile software stage times (already scaled to the tile size).
    stage_times: StageTimes
    #: Functional mode: the parsed decoder (None in performance mode).
    decoder: Optional[Jpeg2000Decoder] = None
    #: Functional mode: the reference (golden) decode for comparison.
    reference: Optional[Image] = None
    #: Speed-up of the hardware IQ/IDWT over the software stage times.
    hw_speedup: float = HW_COPROCESSOR_SPEEDUP

    @property
    def functional(self) -> bool:
        return self.decoder is not None

    @property
    def samples_per_component(self) -> int:
        return self.tile_width * self.tile_height

    @property
    def words_per_component(self) -> int:
        """32-bit words of one tile component on the wire."""
        return self.samples_per_component

    @property
    def stripe_words(self) -> int:
        """Transfer granularity: eight tile lines per stripe burst."""
        return min(8 * self.tile_width, self.words_per_component)

    @property
    def stripes_per_component(self) -> int:
        return -(-self.words_per_component // self.stripe_words)

    def tile_indices(self) -> range:
        return range(self.num_tiles)


def paper_workload(lossless: bool) -> Workload:
    """The Table 1 workload in performance mode."""
    return Workload(
        num_tiles=PAPER_TILES,
        num_components=PAPER_COMPONENTS,
        tile_width=PAPER_TILE_SIZE,
        tile_height=PAPER_TILE_SIZE,
        lossless=lossless,
        stage_times=profile_for(lossless),
    )


def functional_workload(
    lossless: bool,
    image_size: int = 64,
    tile_size: int = 32,
) -> Workload:
    """A small real-data workload for functional verification.

    Stage EETs are scaled by tile area so the timing model stays in
    proportion; the payload is a real codestream decoded for real inside
    the models.
    """
    from ..jpeg2000 import CodingParameters, Jpeg2000Decoder, encode_image, synthetic_image

    image = synthetic_image(image_size, image_size, PAPER_COMPONENTS)
    params = CodingParameters(
        width=image_size,
        height=image_size,
        num_components=PAPER_COMPONENTS,
        tile_width=tile_size,
        tile_height=tile_size,
        num_levels=3,
        lossless=lossless,
        base_step=1 / 8,
    )
    codestream = encode_image(image, params)
    decoder = Jpeg2000Decoder(codestream)
    reference = Jpeg2000Decoder(codestream).decode()
    tiles = (image_size // tile_size) ** 2
    scale = (tile_size * tile_size) / (PAPER_TILE_SIZE * PAPER_TILE_SIZE)
    return Workload(
        num_tiles=tiles,
        num_components=PAPER_COMPONENTS,
        tile_width=tile_size,
        tile_height=tile_size,
        lossless=lossless,
        stage_times=profile_for(lossless).scaled(scale),
        decoder=decoder,
        reference=reference,
    )
