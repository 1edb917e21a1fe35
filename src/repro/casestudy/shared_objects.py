"""The two Shared Objects of the case-study architecture (paper Fig. 3).

* **HW/SW Shared Object** (:class:`TileStoreBehaviour`): stores tiles in
  flight, performs the IQ algorithm *inside* the object ("the ability not
  only to store and transfer data but also to perform computations within
  the object was considered to be very useful"), and synchronises the
  software task(s) with the three IDWT hardware blocks — up to seven
  clients in version 5.

* **IDWT-params Shared Object** (:class:`IdwtParamsBehaviour`): exchanges
  job parameters between the control part (IDWT2D) and the lossless
  (IDWT53) / lossy (IDWT97) filters, and arbitrates between the three
  concurrent IDWT components.
"""

from __future__ import annotations

from typing import Optional

from ..core import guarded, guarded_args, osss_method
from ..kernel import SimTime, ZERO_TIME, ms, us
from .messages import IdwtResult, TileComponentJob, WirePayload
from .workload import Workload


class _TileSlot:
    """In-flight state of one tile inside the store."""

    __slots__ = ("present", "bands", "subbands", "results", "done", "claimed")

    def __init__(self, num_components: int):
        self.present = [False] * num_components  # component stored?
        self.bands = [None] * num_components  # entropy-decoded, pre-IQ
        self.subbands = [None] * num_components  # post-IQ, pre-IDWT
        self.results = [None] * num_components  # post-IDWT planes
        self.done = [False] * num_components  # IDWT finished?
        self.claimed = [False] * num_components

    def all_done(self) -> bool:
        return all(self.done)


class TileStoreBehaviour:
    """Behaviour of the HW/SW Shared Object."""

    def __init__(self, workload: Workload, capacity_tiles: int = 4):
        self.workload = workload
        self.capacity = capacity_tiles
        self.slots: dict[int, _TileSlot] = {}
        #: Count of stored-but-unclaimed components.  The ``component_ready``
        #: guard is re-evaluated on every arbitration decision, so it must
        #: not walk all slots each time; ``put_component`` and
        #: ``claim_component`` keep the count exact (slots are only deleted
        #: once every component is done, i.e. claimed).
        self._unclaimed = 0
        #: VTA knobs — the Application Layer leaves them neutral.
        self.iq_time_scale = 1.0
        self.ram_seconds_per_word = 0.0
        #: Per-method port-handoff time at the VTA.  The per-word streaming
        #: cost is carried by the channel transfer itself — the block RAM
        #: keeps pace with any single stream — so the object is only held
        #: for the address/port setup, not for the whole burst.
        self.port_setup = ZERO_TIME
        #: VTA refinement: the IQ multiplier sits directly behind the RAM
        #: read port and dequantises at streaming rate, so the explicit
        #: ``iq`` call degenerates to a short setup and the cost is already
        #: inside the stripe read-out time.
        self.iq_streaming = False
        #: Cumulative time [fs] spent in the IDWT portion of co-processor
        #: calls (versions 2/4 route IDWT through iq_idwt()).
        self.coprocessor_idwt_fs = 0

    # -- guards ---------------------------------------------------------------

    def _has_space(self) -> bool:
        return len(self.slots) < self.capacity

    def _has_unclaimed(self) -> bool:
        return self._unclaimed > 0

    def _slot(self, tile_index: int) -> _TileSlot:
        if tile_index not in self.slots:
            self.slots[tile_index] = _TileSlot(self.workload.num_components)
        return self.slots[tile_index]

    # -- timing helpers ----------------------------------------------------------

    def _iq_eet(self) -> SimTime:
        if self.iq_streaming:
            return us(0.2)  # coefficient/step-size setup only
        per_component_ms = (
            self.workload.stage_times.iq
            / self.workload.num_components
            / self.workload.hw_speedup
        ) * self.iq_time_scale
        return ms(per_component_ms)

    def _ram_time(self, words: int) -> SimTime:
        if self.ram_seconds_per_word == 0.0:
            return ZERO_TIME
        return SimTime(self.ram_seconds_per_word * words * 1e15, "fs")

    # -- software-facing methods ------------------------------------------------------

    @osss_method(
        guard=guarded_args(
            lambda self, tile_index, component, payload: (
                tile_index in self.slots or self._has_space()
            ),
            "store_space",
        )
    )
    def put_component(self, tile_index: int, component: int, payload: WirePayload):
        """Store one entropy-decoded tile component (from the SW task)."""
        slot = self._slot(tile_index)
        if not slot.present[component]:
            self._unclaimed += 1
        slot.present[component] = True
        slot.bands[component] = payload.content
        if self.port_setup:
            yield self.port_setup
        return None

    @osss_method(guard=guarded(lambda self: True, "always"))
    def iq_idwt(self, tile_index: int, payload: WirePayload):
        """Co-processor style (versions 2 and 4): blocking IQ + IDWT.

        In the pipelined versions this work is split over claim/iq/filter
        blocks instead; here the whole tile is transformed inside the
        object while the caller blocks.
        """
        workload = self.workload
        iq_ms = workload.stage_times.iq / workload.hw_speedup * self.iq_time_scale
        idwt_ms = workload.stage_times.idwt / workload.hw_speedup * self.iq_time_scale
        result_planes = None
        if payload.content is not None:
            stages, bands = payload.content
            subbands = stages.dequantise(bands)
            result_planes = stages.inverse_dwt(subbands)
        yield ms(iq_ms)
        ram = self._ram_time(2 * workload.num_components * payload.words)
        idwt_time = ms(idwt_ms) + ram
        yield idwt_time
        self.coprocessor_idwt_fs += idwt_time.femtoseconds
        return WirePayload(
            workload.num_components * workload.words_per_component, result_planes
        )

    @osss_method(
        guard=guarded_args(
            lambda self, tile_index: (
                tile_index in self.slots and self.slots[tile_index].all_done()
            ),
            "tile_done",
        )
    )
    def get_result(self, tile_index: int):
        """Fetch a finished tile (blocks until all its components are done)."""
        slot = self.slots[tile_index]
        planes = list(slot.results)
        words = self.workload.num_components * self.workload.words_per_component
        del self.slots[tile_index]
        if self.port_setup:
            yield self.port_setup
        content = planes if all(p is not None for p in planes) else None
        return WirePayload(words, content)

    # -- IDWT-subsystem-facing methods ---------------------------------------------------

    @osss_method(guard=guarded(lambda self: self._has_unclaimed(), "component_ready"))
    def claim_component(self):
        """Hand the next entropy-decoded component to the IDWT control."""
        for tile_index in sorted(self.slots):
            slot = self.slots[tile_index]
            for component in range(self.workload.num_components):
                if slot.present[component] and not slot.claimed[component]:
                    slot.claimed[component] = True
                    self._unclaimed -= 1
                    return TileComponentJob(
                        tile_index=tile_index,
                        component=component,
                        lossless=self.workload.lossless,
                        words=self.workload.words_per_component,
                    )
        raise RuntimeError("guard admitted claim_component without a ready component")

    @osss_method()
    def iq(self, tile_index: int, component: int):
        """Inverse quantisation of one component, inside the object."""
        slot = self.slots[tile_index]
        content = slot.bands[component]
        if content is not None:
            stages, bands = content
            slot.subbands[component] = (stages, stages.dequantise([bands])[0])
        yield self._iq_eet()
        return None

    @osss_method()
    def read_stripe(self, tile_index: int, component: int, stripe: int):
        """One stripe of coefficients for the IDWT reader."""
        words = self.workload.stripe_words
        if self.port_setup:
            yield self.port_setup
        slot = self.slots[tile_index]
        return WirePayload(words, slot.subbands[component])

    @osss_method()
    def write_stripe(self, tile_index: int, component: int, stripe: int,
                     payload: WirePayload):
        """One stripe of reconstructed samples from the IDWT writer."""
        if self.port_setup:
            yield self.port_setup
        return None

    @osss_method()
    def component_done(self, result: IdwtResult):
        """Completion notice from a filter block."""
        slot = self.slots[result.tile_index]
        slot.done[result.component] = True
        slot.results[result.component] = result.plane
        return None


#: Jobs the IDWT-params Shared Object queues before ``put_job`` blocks.
PARAMS_QUEUE_CAPACITY = 8


class IdwtParamsBehaviour:
    """Behaviour of the IDWT-params Shared Object."""

    def __init__(self):
        self.capacity = PARAMS_QUEUE_CAPACITY
        self.jobs: list[TileComponentJob] = []
        self.finished = False

    def _has_space(self) -> bool:
        return len(self.jobs) < self.capacity

    def _job_available(self, mode: str) -> bool:
        return self.finished or any(job.mode == mode for job in self.jobs)

    @osss_method(guard=guarded(lambda self: self._has_space(), "queue_space"))
    def put_job(self, job: TileComponentJob):
        self.jobs.append(job)
        return None

    @osss_method()
    def shutdown(self):
        """No more jobs will arrive; pending get_job calls return None."""
        self.finished = True
        return None

    @osss_method(guard=guarded(lambda self: self._job_available("5/3"), "job53"))
    def get_job_53(self) -> Optional[TileComponentJob]:
        return self._take("5/3")

    @osss_method(guard=guarded(lambda self: self._job_available("9/7"), "job97"))
    def get_job_97(self) -> Optional[TileComponentJob]:
        return self._take("9/7")

    def _take(self, mode: str) -> Optional[TileComponentJob]:
        for index, job in enumerate(self.jobs):
            if job.mode == mode:
                return self.jobs.pop(index)
        if self.finished:
            return None
        raise RuntimeError("guard admitted get_job without a matching job")
