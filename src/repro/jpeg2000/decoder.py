"""The JPEG 2000 decoder — the case study's application.

Mirrors Fig. 1 of the paper: entropy (arithmetic) decoding of the
codestream, inverse quantisation (IQ), inverse DWT, inverse colour
transform (ICT/RCT) and DC level shift.  Stage boundaries are explicit —
``decode_tile_stages`` exposes each stage as a separate call — because the
OSSS case-study models distribute exactly these stages between software
tasks and hardware Shared Objects.

Decoding is *plan-driven*: the caller's one
:class:`~repro.jpeg2000.options.DecodeOptions` value is compiled up
front into a :class:`~repro.jpeg2000.plan.DecodePlan`, which the
:mod:`~repro.jpeg2000.driver` executes over the stage modules
(:mod:`~repro.jpeg2000.stages`) — the same single description, lowered
step by step, that the paper's seamless refinement applies to the
hardware design, and the reason no decode path here hides behind an
``if`` ladder.

Every stage reports basic-operation counts (see ``pipeline.StageOps``)
used by the profiling model that reconstructs Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import telemetry
from . import driver as plan_driver
from .codestream import (
    Codestream,
    CodestreamError,
    CodingParameters,
    parse_codestream,
)
from .errors import DecodingError  # noqa: F401 - re-exported
from .image import Image, TileGrid
from .options import DEFAULT_OPTIONS, DecodeOptions, _warn_degraded
from .pipeline import (
    STAGE_ARITH,
    STAGE_DC,
    STAGE_ICT,
    STAGE_IDWT,
    STAGE_IQ,
    StageOps,
)
from .plan import (
    STAGE_ASSEMBLE,
    STAGE_ENTROPY,
    STAGE_PARSE,
    RECONSTRUCT_VECTORISED,
    DecodePlan,
    compile_plan,
    schedule_info,
)
from .stages import assemble as assemble_stage
from .stages import entropy as entropy_stage
from .stages import parse as parse_stage
from .stages import reconstruct as reconstruct_stage
from .stages.reconstruct import DecodedBand


@dataclass
class TileStages:
    """Stage-by-stage decoder for one tile (the OSSS models drive this).

    The methods are thin seams over the stage modules
    (:mod:`~repro.jpeg2000.stages`): each one binds this tile's coding
    parameters, buffer, and op accumulator to the corresponding stage
    function, so the OSSS models (and the tests) can still drive the
    pipeline one stage at a time while the driver schedules the same
    functions from a compiled plan.
    """

    params: CodingParameters
    tile_width: int
    tile_height: int
    data: bytes
    ops: StageOps = field(default_factory=StageOps)
    #: Decode only the first N quality layers (None = all): the rate
    #: scalability that layered codestreams exist for.
    max_layers: Optional[int] = None
    #: Reconstruct only up to resolution R (None = full size): the image
    #: comes out smaller by 2^(levels-R) per axis.
    max_resolution: Optional[int] = None
    #: The decoder's compiled plan: the Tier-2 parser and Tier-1 kernel
    #: this tile's stages run.
    plan: DecodePlan = field(default_factory=compile_plan)
    #: Which tile of the grid this is (telemetry span attribution only).
    tile_index: Optional[int] = None

    # -- stage 1: arithmetic decoding (Tier-2 + Tier-1) ---------------------------

    def entropy_specs(self) -> tuple:
        """Tier-2 only: parse every packet, describe every code block.

        Returns ``(layout, specs)``; see
        :func:`repro.jpeg2000.stages.parse.entropy_specs`.
        """
        return parse_stage.entropy_specs(
            self.params, self.tile_width, self.tile_height, self.data,
            tier2=self.plan.stage(STAGE_PARSE).impl,
            max_layers=self.max_layers,
            max_resolution=self.max_resolution,
        )

    def scatter_entropy(self, layout: list, flat, offsets, ops: list,
                        impl: str = RECONSTRUCT_VECTORISED):
        """Scatter an entropy-stage result into band planes (or, for the
        ``native`` reconstruct, leave it flat); see
        :func:`repro.jpeg2000.stages.reconstruct.scatter_entropy`."""
        return reconstruct_stage.scatter_entropy(
            self.params, self.tile_width, self.tile_height,
            layout, flat, offsets, ops, self.ops, impl,
        )

    def entropy_decode(self) -> list:
        """Per component, the list of :class:`DecodedBand` planes.

        Always inline: a worker pool is scheduled only by the plan
        driver (:func:`repro.jpeg2000.driver.run_tiles`).
        """
        layout, specs = self.entropy_specs()
        binding = self.plan.stage(STAGE_ENTROPY)
        flat, offsets, ops = entropy_stage.run_specs(
            self.data, specs, binding.impl, threads=binding.executor.threads
        )
        return self.scatter_entropy(layout, flat, offsets, ops)

    # -- stage 2: inverse quantisation ------------------------------------------------

    def dequantise(self, decoded_bands: list) -> list:
        """Per component, the dequantised :class:`~repro.jpeg2000.dwt.Subbands`."""
        return reconstruct_stage.dequantise(
            self.params, decoded_bands, self.ops, self.max_resolution
        )

    # -- stage 3: inverse DWT ----------------------------------------------------------

    def inverse_dwt(self, subbands_per_component: list) -> list:
        return reconstruct_stage.inverse_dwt(subbands_per_component, self.ops)

    # -- stage 4: inverse colour transform ----------------------------------------------

    def inverse_mct(self, planes: list) -> list:
        return reconstruct_stage.inverse_mct(self.params, planes, self.ops)

    # -- stage 5: DC level shift ----------------------------------------------------------

    def dc_shift(self, planes: list) -> list:
        return reconstruct_stage.dc_shift(self.params, planes, self.ops)

    # -- all stages ------------------------------------------------------------------------

    def _staged(self, stage, fn, *args):
        track = (
            "decode" if self.tile_index is None else f"tile{self.tile_index}"
        )
        with telemetry.software_span("sw", stage, track, tile=self.tile_index):
            return fn(*args)

    def finish(self, bands: list) -> list:
        """Stages 2–5 (IQ, IDWT, ICT, DC) on entropy-decoded *bands*."""
        subbands = self._staged(STAGE_IQ, self.dequantise, bands)
        planes = self._staged(STAGE_IDWT, self.inverse_dwt, subbands)
        planes = self._staged(STAGE_ICT, self.inverse_mct, planes)
        return self._staged(STAGE_DC, self.dc_shift, planes)

    def run(self) -> list:
        """Run the full tile pipeline; returns component sample planes.

        Each stage runs under a telemetry span (clocked on the recorder:
        host time standalone, simulated time inside a simulation) so a
        trace of a software decode shows the Fig. 1 stage structure per
        tile without any bespoke counters.
        """
        bands = self._staged(STAGE_ARITH, self.entropy_decode)
        return self.finish(bands)


class Jpeg2000Decoder:
    """Decode a codestream into an :class:`~repro.jpeg2000.image.Image`.

    ``max_layers`` truncates the quality progression: only the first N
    layers of every packet sequence are entropy-decoded, trading quality
    for rate exactly as a network transcoder would by dropping packets.

    Scheduling is decided once, up front: ``options`` is compiled into
    the :class:`~repro.jpeg2000.plan.DecodePlan` that runs, before any
    worker spawns; the plan's digest is what benchmarks and ledgers
    record, and ``schedule`` (derived from the plan) what they report.
    Every tile must have a tile-part; that is checked here too, before
    any sample array exists.
    """

    def __init__(
        self,
        data: bytes,
        max_layers: Optional[int] = None,
        max_resolution: Optional[int] = None,
        options: Optional[DecodeOptions] = None,
    ):
        self.codestream: Codestream = parse_codestream(data)
        self._parts: dict = {}
        for part in self.codestream.tile_parts:
            self._parts.setdefault(part.tile_index, part)
        # parse_codestream bounds every index by the tile count, so a
        # short dict means a missing tile; find the first cheaply.
        num_tiles = self.parameters.num_tiles()
        if len(self._parts) < num_tiles:
            missing = next(i for i in range(num_tiles) if i not in self._parts)
            raise CodestreamError(
                f"codestream has no tile-part for tile {missing} "
                f"(of {num_tiles})"
            )
        self.max_layers = max_layers
        self.max_resolution = max_resolution
        self.options = options if options is not None else DEFAULT_OPTIONS
        self.plan = compile_plan(self.options)
        self.schedule = schedule_info(self.options, self.plan)
        if max_resolution is not None and max_resolution < 0:
            raise ValueError("max_resolution must be non-negative")
        self.ops = StageOps()
        self.fates: Optional[plan_driver.StageFates] = None

    @property
    def parameters(self) -> CodingParameters:
        return self.codestream.parameters

    def tile_stages(self, tile_index: int) -> TileStages:
        """Stage-wise decoder for one tile (used by the OSSS models)."""
        params = self.parameters
        grid = TileGrid(params.width, params.height, params.tile_width, params.tile_height)
        x0, y0, x1, y1 = grid.tile_bounds(tile_index)
        return TileStages(
            params=params,
            tile_width=x1 - x0,
            tile_height=y1 - y0,
            data=self._parts[tile_index].data,
            max_layers=self.max_layers,
            max_resolution=self.max_resolution,
            plan=self.plan,
            tile_index=tile_index,
        )

    def decode(self) -> Image:
        params = self.parameters
        grid = TileGrid(params.width, params.height, params.tile_width, params.tile_height)
        if telemetry.flight_recorder() is not None:
            telemetry.log_event(
                "decode.start",
                width=params.width, height=params.height,
                components=params.num_components, tiles=grid.num_tiles,
                schedule=self.schedule,
                plan=self.plan.digest(),
                max_layers=self.max_layers,
                max_resolution=self.max_resolution,
            )
            try:
                image = self._decode_image(grid)
            except BaseException as error:
                telemetry.log_event(
                    "decode.failed", error=type(error).__name__,
                )
                raise
            telemetry.log_event(
                "decode.done",
                width=image.components[0].shape[1],
                height=image.components[0].shape[0],
            )
            return image
        return self._decode_image(grid)

    def _decode_image(self, grid: TileGrid) -> Image:
        """Allocate the frame, then execute the plan over every tile,
        each writing its samples into its window of the frame."""
        params = self.parameters
        stages_list = [
            self.tile_stages(tile_index) for tile_index in range(grid.num_tiles)
        ]
        if self.schedule["degraded"]:
            _warn_degraded(
                self.schedule["requested_workers"],
                self.schedule["effective_workers"],
                "clamped to the host CPU count",
            )
        self.fates = plan_driver.StageFates(self.plan)
        self.fates.begin(STAGE_ASSEMBLE)
        if self.max_resolution is None:
            image, windows = assemble_stage.assemble_full(grid, params)
        else:
            image, windows = assemble_stage.assemble_reduced(
                grid, params, self.max_resolution
            )
        plan_driver.run_tiles(
            self.plan, stages_list, windows,
            schedule=self.schedule, fates=self.fates,
        )
        for stages in stages_list:
            self.ops.merge(stages.ops)
        self.fates.done(STAGE_ASSEMBLE)
        return image
