"""The decode-plan driver: one tile loop for every executor.

Executes a compiled :class:`~repro.jpeg2000.plan.DecodePlan`
over a list of per-tile ``TileStages`` drivers.  The driver — not the
stage modules — owns the schedule, the runtime degradation, and
the :class:`StageFates` record of what actually ran.  The stage modules
only ever see their own slice of the plan.

One schedule, like the paper's tile-by-tile decoder: tiles finish in
order, each through Tier-2 parse → Tier-1 entropy → gather →
reconstruction, and a tile's coefficients and band planes are freed
before the next tile decodes, so the transient memory tracks one tile
rather than the image.  The entropy executor decides only where a
tile's coefficients come from:

inline
    an in-process :func:`~repro.jpeg2000.stages.entropy.run_specs`
    call over the tile's blocks, right after the tile parses, its native
    batch split over the executor's threads;
pool
    :meth:`~repro.jpeg2000.stages.entropy.SpecStream.drain_tile`: every
    tile's chunks ship to the workers the moment its packet headers are
    read, before the first drain, so later tiles decode in the workers
    while earlier ones are gathered and reconstructed here.

A pool plan that gets no pool runs the same loop inline.
That degradation and a broken-pool resume are each recorded as one
rewrite on the fate map, which the flight recorder embeds (with the
compiled plan) in every crash report.
"""

from __future__ import annotations

from typing import Optional

from .. import telemetry
from .pipeline import STAGE_ARITH
from .plan import (
    EXECUTOR_POOL,
    STAGE_ENTROPY,
    STAGE_PARSE,
    STAGE_RECONSTRUCT,
    DecodePlan,
)
from .stages import entropy as entropy_stage
from .stages import reconstruct as reconstruct_stage


#: Rewrites that move pool work onto the calling process.
_DEGRADED_RULES = {"pool-unavailable"}


class StageFates:
    """What actually happened to each planned stage of one decode.

    ``fates[stage]`` is ``{"state": ..., "rewrites": [...]}`` where
    *state* walks planned → running → done and each rewrite is a
    ``{"rule", "detail"}`` record of the compile-time rewrite carried on
    the plan (native kernel unavailable → reference) or a runtime
    degradation (no pool → inline, broken-pool resume).
    :meth:`publish` installs the compiled plan and this (live, mutable)
    map into the flight-recorder context, so a crash report dumped at
    any point shows both the plan and the per-stage fates as of the
    crash.
    """

    def __init__(self, plan: DecodePlan):
        self.plan = plan
        self.fates: dict = {
            binding.stage: {"state": "planned", "rewrites": []}
            for binding in plan.stages
        }
        for stage, rule, detail in plan.rewrites:
            self.fates[stage]["rewrites"].append(
                {"rule": rule, "detail": detail}
            )

    def publish(self) -> None:
        flight = telemetry.flight_recorder()
        if flight is not None:
            flight.set_context("plan", {
                "digest": self.plan.digest(), **self.plan.as_dict(),
            })
            flight.set_context("stage_fates", self.fates)

    def begin(self, stage: str) -> None:
        self.fates[stage]["state"] = "running"

    def done(self, stage: str) -> None:
        self.fates[stage]["state"] = "done"

    def rewrite(self, stage: str, rule: str, detail: str) -> None:
        self.fates[stage]["rewrites"].append({"rule": rule, "detail": detail})
        telemetry.log_event("plan.rewrite", stage=stage, rule=rule,
                            detail=detail)

    def health(self) -> dict:
        """The run's ``degraded`` (pool work decoded in-process) and
        ``resumed`` (broken-pool resume) flags, read from the rewrites."""
        rules = {
            rewrite["rule"]
            for fate in self.fates.values() for rewrite in fate["rewrites"]
        }
        return {
            "degraded": bool(rules & _DEGRADED_RULES),
            "resumed": "broken-pool-resume" in rules,
        }


def run_tiles(
    plan: DecodePlan,
    stages_list: list,
    *,
    schedule: Optional[dict] = None,
    fates: Optional[StageFates] = None,
) -> dict:
    """Execute *plan* over the tiles; returns tile index → sample planes.

    *schedule* is the caller's reporting dict
    (:func:`~repro.jpeg2000.plan.schedule_info`) installed into crash
    reports; *fates* collects the per-stage outcome (one is created if
    the caller keeps none).
    """
    if fates is None:
        fates = StageFates(plan)
    fates.publish()
    binding = plan.stage(STAGE_ENTROPY)
    stream = None
    if binding.executor.kind == EXECUTOR_POOL:
        stream = entropy_stage.open_stream(
            [stages.data for stages in stages_list], binding,
            schedule=schedule, fates=fates,
        )
    stages_run = (STAGE_PARSE, STAGE_ENTROPY, STAGE_RECONSTRUCT)
    for stage in stages_run:
        fates.begin(stage)
    planes: dict = {}
    layouts: dict = {}
    try:
        if stream is not None:
            # Every tile ships before the first drain, so the workers
            # decode ahead while finished tiles reconstruct here.
            for index, stages in enumerate(stages_list):
                layouts[index], specs = _parse(stages)
                stream.submit_tile(index, specs)
            fates.done(STAGE_PARSE)
        for index, stages in enumerate(stages_list):
            planes[stages.tile_index] = reconstruct_stage.finish_tiles(
                stages, _tile_bands(stages, index, binding, stream, layouts,
                                    plan.stage(STAGE_RECONSTRUCT).impl)
            )
    finally:
        if stream is not None:
            stream.close()
    for stage in stages_run:
        fates.done(stage)
    return planes


def _parse(stages) -> tuple:
    with telemetry.software_span("stage", "t2_parse", "decode"):
        return stages.entropy_specs()


def _tile_bands(stages, index, binding, stream, layouts, reconstruct):
    """One tile's entropy result, gathered as the *reconstruct* binding
    wants it (band planes, or left flat for the native kernel)."""
    if stream is None:
        layout, specs = _parse(stages)
        with telemetry.software_span("sw", STAGE_ARITH, "decode"):
            with telemetry.software_span("stage", "t1_decode", "decode"):
                flat, offsets, ops = entropy_stage.run_specs(
                    stages.data, specs, binding.impl,
                    threads=binding.executor.threads,
                )
    else:
        layout = layouts.pop(index)
        with telemetry.software_span("stage", "t1_decode", "decode"):
            flat, offsets, ops = stream.drain_tile(index)
    with telemetry.software_span("stage", "gather", "decode"):
        return stages.scatter_entropy(layout, flat, offsets, ops,
                                      impl=reconstruct)
