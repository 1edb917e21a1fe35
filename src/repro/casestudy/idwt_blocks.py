"""The IDWT hardware subsystem: IDWT2D control plus IDWT53/IDWT97 filters.

Mirrors the paper's Fig. 3 structure: a control module (IDWT2D) claims
tile components from the HW/SW Shared Object, triggers the in-object IQ
and dispatches jobs through the IDWT-params Shared Object; the two filter
modules (lossless 5/3 and lossy 9/7) stream coefficient stripes out of the
tile store, transform them and stream the samples back.

Each filter block runs a **reader / compute / writer** process pipeline
connected by FIFOs.  On the Application Layer, stripe transfers take no
time and only the compute EETs matter; after channel refinement the exact
same method calls run over OPB or point-to-point links, so the transfer
and contention costs of Table 1's VTA rows emerge from this structure
rather than from tuned constants.
"""

from __future__ import annotations

from typing import Optional

from ..core import OsssModule
from ..kernel import Fifo, SimTime, Simulator, ms
from .messages import IdwtResult, TileComponentJob, WirePayload
from .workload import Workload


class IdwtMetrics:
    """Accumulates the Table 1 'IDWT time' metric.

    The reported time is the union of the intervals during which the IDWT
    subsystem has at least one job in flight (claimed by a filter but not
    yet written back).  That matches the software measurement of version 1
    — time actually spent on the IDWT — while staying well defined when
    the reader/compute/writer pipeline overlaps jobs.  The per-job latency
    sum is kept as a secondary statistic.
    """

    def __init__(self):
        self.busy_fs = 0
        self.latency_fs = 0
        self.jobs = 0
        self._in_flight = 0
        self._active_since_fs = 0

    def job_started(self, now_fs: int) -> None:
        if self._in_flight == 0:
            self._active_since_fs = now_fs
        self._in_flight += 1

    def job_finished(self, now_fs: int, started_fs: int) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self.busy_fs += now_fs - self._active_since_fs
        self.latency_fs += now_fs - started_fs
        self.jobs += 1

    @property
    def busy_ms(self) -> float:
        return self.busy_fs / 1e12


#: Stripes each stream-pipeline FIFO of a filter block holds.
FIFO_DEPTH = 4


class Idwt2dControl(OsssModule):
    """Control part: claims components, runs IQ, dispatches filter jobs."""

    def __init__(self, sim: Simulator, name: str, workload: Workload,
                 total_jobs: int):
        super().__init__(sim, name)
        self.workload = workload
        self.total_jobs = total_jobs
        self.store_port = self.port("store")
        self.params_port = self.port("params")

    def start(self):
        return self.add_thread(self._control, name="control")

    def _control(self):
        for _ in range(self.total_jobs):
            job = yield from self.store_port.call("claim_component")
            yield from self.store_port.call("iq", job.tile_index, job.component)
            yield from self.params_port.call("put_job", job)
        yield from self.params_port.call("shutdown")


class IdwtFilterBlock(OsssModule):
    """One filter module (IDWT53 or IDWT97) with a 3-stage stream pipeline."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        workload: Workload,
        mode: str,
        metrics: IdwtMetrics,
    ):
        super().__init__(sim, name)
        if mode not in ("5/3", "9/7"):
            raise ValueError(f"unknown IDWT mode {mode!r}")
        self.workload = workload
        self.mode = mode
        self.metrics = metrics
        self.store_port = self.port("store")
        self.params_port = self.port("params")
        #: VTA knob: explicit-memory insertion inflates the per-stripe
        #: compute time (single-port block RAM instead of registers).
        self.compute_time_scale = 1.0
        self._in_fifo: Fifo = Fifo(sim, FIFO_DEPTH, name=f"{name}.in")
        self._out_fifo: Fifo = Fifo(sim, FIFO_DEPTH, name=f"{name}.out")
        self._job_started_fs: dict[tuple[int, int], int] = {}

    def start(self):
        self.add_thread(self._reader, name="reader")
        self.add_thread(self._compute, name="compute")
        self.add_thread(self._writer, name="writer")

    # -- timing -----------------------------------------------------------------

    def _stripe_compute_time(self) -> SimTime:
        """EET of transforming one stripe in hardware."""
        per_component_ms = (
            self.workload.stage_times.idwt
            / self.workload.num_components
            / self.workload.hw_speedup
        ) * self.compute_time_scale
        return ms(per_component_ms / self.workload.stripes_per_component)

    # -- the three pipeline processes ------------------------------------------------

    def _reader(self):
        """Stream coefficient stripes from the store into the pipeline."""
        get_job = "get_job_53" if self.mode == "5/3" else "get_job_97"
        last_stripe = self.workload.stripes_per_component - 1
        while True:
            job: Optional[TileComponentJob] = yield from self.params_port.call(get_job)
            if job is None:
                yield from self._in_fifo.put(None)
                return
            self._job_started_fs[(job.tile_index, job.component)] = (
                self.sim.now.femtoseconds
            )
            self.metrics.job_started(self.sim.now.femtoseconds)
            for stripe in range(self.workload.stripes_per_component):
                payload = yield from self.store_port.call(
                    "read_stripe", job.tile_index, job.component, stripe
                )
                yield from self._in_fifo.put((job, stripe, payload, stripe == last_stripe))

    def _compute(self):
        """Transform stripes as they arrive (one EET per stripe)."""
        while True:
            item = yield from self._in_fifo.get()
            if item is None:
                yield from self._out_fifo.put(None)
                return
            job, stripe, payload, last = item
            yield self._stripe_compute_time()
            plane = None
            if last and payload.content is not None:
                stages, subbands = payload.content
                plane = stages.inverse_dwt([subbands])[0]
            yield from self._out_fifo.put((job, stripe, plane, last))

    def _writer(self):
        """Stream reconstructed stripes back and sign the job off."""
        while True:
            item = yield from self._out_fifo.get()
            if item is None:
                return
            job, stripe, plane, last = item
            yield from self.store_port.call(
                "write_stripe",
                job.tile_index,
                job.component,
                stripe,
                WirePayload(self.workload.stripe_words),
            )
            if last:
                yield from self.store_port.call(
                    "component_done",
                    IdwtResult(job.tile_index, job.component, plane),
                )
                started = self._job_started_fs.pop((job.tile_index, job.component))
                self.metrics.job_finished(self.sim.now.femtoseconds, started)
