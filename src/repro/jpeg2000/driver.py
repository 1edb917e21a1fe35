"""The decode-plan driver: one executor for every schedule.

Executes a compiled :class:`~repro.jpeg2000.plan.DecodePlan`
over a list of per-tile ``TileStages`` drivers.  The driver — not the
stage modules — owns the schedule choice, the runtime degradation, and
the :class:`StageFates` record of what actually ran.  The stage modules
only ever see their own slice of the plan.

Two schedules, dispatched from the plan's entropy executor:

``_run_sequential``
    Inline: every tile's Tier-2 parse first, then one entropy call over
    all blocks of the image (a single kernel batch), then the
    cross-tile vectorised reconstruction.
``_run_pooled``
    Pool: each tile's chunks ship the moment its packet headers are
    read, and finished tiles gather and reconstruct on the main process
    while later tiles are still decoding in the workers.

A pool plan that gets no pool runs the sequential schedule instead.
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
    if binding.executor.kind == EXECUTOR_POOL:
        planes = _run_pooled(binding, stages_list, schedule, fates)
        if planes is not None:
            return planes
    return _run_sequential(binding.impl, stages_list, fates)


def _run_sequential(kernel, stages_list, fates) -> dict:
    """Parse and decode every tile in one batch (see module doc)."""
    layouts: list = []
    firsts: list = []
    sources: list = []
    spec_pairs: list = []
    fates.begin(STAGE_PARSE)
    with telemetry.software_span("stage", "t2_parse", "decode"):
        for stages in stages_list:
            layout, specs = stages.entropy_specs()
            layouts.append(layout)
            firsts.append(len(spec_pairs))
            source_index = len(sources)
            sources.append(stages.data)
            spec_pairs.extend((source_index, spec) for spec in specs)
    fates.done(STAGE_PARSE)
    fates.begin(STAGE_ENTROPY)
    with telemetry.software_span("sw", STAGE_ARITH, "decode"):
        with telemetry.software_span("stage", "t1_decode", "decode"):
            flat, offsets, ops = entropy_stage.run_specs(
                sources, spec_pairs, kernel
            )
    with telemetry.software_span("stage", "gather", "decode"):
        bands_by_tile = [
            stages.scatter_entropy(
                layouts[index], flat, offsets, ops, firsts[index]
            )
            for index, stages in enumerate(stages_list)
        ]
    fates.done(STAGE_ENTROPY)
    fates.begin(STAGE_RECONSTRUCT)
    planes = reconstruct_stage.finish_tiles(stages_list, bands_by_tile)
    fates.done(STAGE_RECONSTRUCT)
    return planes


def _run_pooled(binding, stages_list, schedule, fates) -> Optional[dict]:
    """Stream Tier-1 chunks to the pool as each tile's spans parse.

    Every tile's chunks ship the moment its packet headers are read;
    tiles then drain in submission order, and each finished tile's
    gather + reconstruction runs on the main process while the
    remaining tiles' entropy chunks are still decoding in the workers.
    Returns ``None`` when no pool can be had (the caller decodes
    inline).
    """
    stream = entropy_stage.open_stream(
        [stages.data for stages in stages_list], binding,
        schedule=schedule, fates=fates,
    )
    if stream is None:
        return None
    fates.begin(STAGE_PARSE)
    fates.begin(STAGE_ENTROPY)
    planes: dict[int, list] = {}
    try:
        with telemetry.software_span("stage", "t2_parse", "decode"):
            layouts = []
            for source_index, stages in enumerate(stages_list):
                layout, specs = stages.entropy_specs()
                layouts.append(layout)
                stream.submit_tile(source_index, specs)
        fates.done(STAGE_PARSE)
        fates.begin(STAGE_RECONSTRUCT)
        for source_index, stages in enumerate(stages_list):
            with telemetry.software_span("stage", "t1_decode", "decode"):
                flat, offsets, ops = stream.drain_tile(source_index)
            with telemetry.software_span("stage", "gather", "decode"):
                bands = stages.scatter_entropy(
                    layouts[source_index], flat, offsets, ops
                )
            planes.update(reconstruct_stage.finish_tiles([stages], [bands]))
        fates.done(STAGE_ENTROPY)
        fates.done(STAGE_RECONSTRUCT)
    finally:
        stream.close()
    return planes
