"""Elaboration: turn one :class:`DesignSpec` into an executable model.

``ElaboratedModel`` is the single model harness behind every Table 1
version.  The spec says *what* exists and *where* it runs; this module
instantiates the existing ``core``/``kernel`` machinery (Application
Layer) or additionally the ``vta`` platform (processors, object sockets,
RMI transactors, channels, explicit memories) — the behavioural task
bodies are identical across layers, which is the paper's seamless
refinement claim made executable.

The spec is statically validated before any simulator is constructed, so
a broken mapping fails with actionable messages instead of a deadlock.

Elaboration order is deliberately fixed (Shared Objects, modules,
architecture preparation, port binding, module start, tasks) and
reproduces the pre-spec hand-built classes exactly — the topology-parity
and Table 1 regression tests in ``tests/integration/test_design_parity.py``
hold the elaborator to bit-identical results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..core import FunctionTask, SharedObject
from ..kernel import Simulator, join, us
from .catalog import CODED_WORDS_RATIO, PORT_SETUP_CYCLES
from .spec import DesignSpec, MODULE_KINDS
from .validate import check_spec


@dataclass
class DecodingReport:
    """What Table 1 reports for one model version and mode."""

    version: str
    lossless: bool
    decode_ms: float
    idwt_ms: float
    image: Optional[object] = None  # functional mode: the decoded Image
    details: dict = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return "lossless" if self.lossless else "lossy"

    def __repr__(self) -> str:
        return (
            f"DecodingReport({self.version}, {self.mode}, "
            f"decode={self.decode_ms:.1f} ms, idwt={self.idwt_ms:.2f} ms)"
        )


def elaborate_design(spec: DesignSpec, workload) -> "ElaboratedModel":
    """Validate *spec* and build the executable model for *workload*."""
    return ElaboratedModel(spec, workload)


class ElaboratedModel:
    """One executable OSSS model, elaborated from a declarative spec."""

    def __init__(self, spec: DesignSpec, workload):
        # Static validation first: errors surface before any simulation
        # state exists.
        check_spec(spec)
        from ..casestudy.idwt_blocks import IdwtMetrics

        self.spec = spec
        self.version = spec.name
        self.workload = workload
        self.sim = Simulator()
        self.tasks: list = []
        self._finish_time_fs = 0
        self.results: dict = {}
        self.idwt_metrics = IdwtMetrics()
        self._behaviour = spec.tasks[0].behaviour
        self._shared: dict = {}
        self._modules: dict = {}
        self._rmi_clients: list = []
        tel = self.sim.telemetry
        if tel is not None:
            # Spec-derived labels make traces comparable across mappings.
            tel.set_design(spec.name, spec.label, spec.mapping.layer)
            tel.metrics.gauge_set("design.tasks", float(len(spec.tasks)))
            tel.metrics.gauge_set(
                "design.processors", float(len(spec.mapping.processors))
            )
            tel.metrics.gauge_set(
                "design.p2p_channels", float(len(spec.p2p_channels))
            )
        self.build()

    # -- model assembly --------------------------------------------------------

    def build(self) -> None:
        if self._behaviour == "decode_all_stages":
            self._build_sw_only()
        elif self._behaviour == "decode_coprocessor":
            self._build_coprocessor()
        else:
            self._build_pipelined()

    def _make_shared_object(self, so_spec) -> SharedObject:
        from ..casestudy.shared_objects import (
            IdwtParamsBehaviour,
            TileStoreBehaviour,
        )

        if so_spec.behaviour == "tile_store":
            if so_spec.capacity is not None:
                behaviour = TileStoreBehaviour(
                    self.workload, capacity_tiles=so_spec.capacity
                )
            else:
                behaviour = TileStoreBehaviour(self.workload)
        else:
            behaviour = IdwtParamsBehaviour()
        kwargs = {}
        if so_spec.grant_overhead_us is not None:
            kwargs["grant_overhead"] = us(so_spec.grant_overhead_us)
        if so_spec.per_client_overhead_us is not None:
            kwargs["per_client_overhead"] = us(so_spec.per_client_overhead_us)
        shared = SharedObject(self.sim, so_spec.name, behaviour, **kwargs)
        self._shared[so_spec.name] = shared
        return shared

    def _build_sw_only(self) -> None:
        self._idwt_fs = 0
        task_spec = self.spec.tasks[0]
        self.tasks = [FunctionTask(self.sim, task_spec.name, self._body_all_stages)]

    def _build_coprocessor(self) -> None:
        store_spec = self.spec.shared_objects[0]
        self.shared_object = self._make_shared_object(store_spec)
        self.store = self.shared_object.behaviour
        self.tasks = []
        for task_index, task_spec in enumerate(self.spec.tasks):
            task = FunctionTask(
                self.sim, task_spec.name, self._body_coprocessor, task_index
            )
            for port_name in task_spec.ports:
                port = task.port(port_name)
                self._bind_port(task_spec.name, port, role="sw")
                if port_name == "so":
                    task.so_port = port
            self.tasks.append(task)

    def _build_pipelined(self) -> None:
        from ..casestudy.idwt_blocks import Idwt2dControl, IdwtFilterBlock

        workload = self.workload
        for so_spec in self.spec.shared_objects:
            shared = self._make_shared_object(so_spec)
            if so_spec.behaviour == "tile_store":
                self.shared_object = shared
                self.store = shared.behaviour
            else:
                self.params_so = shared
                self.params = shared.behaviour
        total_jobs = workload.num_tiles * workload.num_components
        self.filters = []
        for module_spec in self.spec.modules:
            if module_spec.kind == "idwt2d_control":
                module = Idwt2dControl(self.sim, module_spec.name, workload, total_jobs)
                self.control = module
            else:
                module = IdwtFilterBlock(
                    self.sim,
                    module_spec.name,
                    workload,
                    module_spec.mode,
                    self.idwt_metrics,
                )
                self.filters.append(module)
            self._modules[module_spec.name] = module
        # The mapping step: the Application Layer binds ports straight to
        # the Shared Objects; a VTA mapping interposes processors, object
        # sockets, RMI transactors, channels, and explicit memories — the
        # behavioural code is untouched (seamless refinement).
        self._prepare_architecture()
        for module_spec in self.spec.modules:
            module = self._modules[module_spec.name]
            role = (
                "control"
                if module_spec.kind == "idwt2d_control"
                else f"filter_{module_spec.name}"
            )
            for port_name in MODULE_KINDS[module_spec.kind]:
                port = getattr(module, f"{port_name}_port")
                self._bind_port(module_spec.name, port, role)
        for module_spec in self.spec.modules:
            self._modules[module_spec.name].start()
        self.tasks = []
        for task_index, task_spec in enumerate(self.spec.tasks):
            task = FunctionTask(
                self.sim, task_spec.name, self._body_pipelined, task_index
            )
            for port_name in task_spec.ports:
                port = task.port(port_name)
                self._bind_port(task_spec.name, port, role="sw")
                if port_name == "so":
                    task.so_port = port
            self._map_task(task)
            self.tasks.append(task)

    # -- architecture preparation (VTA refinement) -----------------------------

    def _prepare_architecture(self) -> None:
        mapping = self.spec.mapping
        if mapping.layer != "vta":
            return
        from ..casestudy.profiles import BRAM_EXTRA_CYCLES_PER_SAMPLE, FREQUENCY_HZ
        from ..vta import (
            DdrMemoryController,
            ObjectSocket,
            OpbBus,
            PlbBus,
            SoftwareProcessor,
        )
        from ..vta.platform import BUDGET, CLOCK_PERIOD

        buses = {"opb": OpbBus, "plb": PlbBus}
        self._channels: dict = {}
        for bus_spec in self.spec.bus_channels:
            self.opb = self._channels[bus_spec.name] = buses[bus_spec.kind](
                self.sim,
                CLOCK_PERIOD,
                name=bus_spec.name,
                cycles_per_word=bus_spec.cycles_per_word,
                arbitration_cycles=bus_spec.arbitration_cycles,
            )
        self._sockets = {
            name: ObjectSocket(shared) for name, shared in self._shared.items()
        }
        self.store_socket = self._sockets.get("hwsw_so")
        self.params_socket = self._sockets.get("idwt_params_so")
        self.processors = [
            SoftwareProcessor(self.sim, cpu.name, BUDGET)
            for cpu in mapping.processors
        ]
        self._cpu_index = {
            task_name: index
            for index, cpu in enumerate(mapping.processors)
            for task_name in cpu.tasks
        }
        # External DDR behind the multi-channel memory controller: the
        # coded input and the decoded output live there (paper Fig. 2/4).
        self.ddr = DdrMemoryController(self.sim, CLOCK_PERIOD)
        self._ddr_masters: dict = {}
        self._p2p_count = 0
        # Explicit memory insertion: the object's storage moves into the
        # placed block RAM; the IQ stage streams through the RAM port at
        # one sample per cycle, so only the filter datapaths pay the
        # refinement inflation below.
        for placement in mapping.placements:
            behaviour = self._shared[placement.target].behaviour
            behaviour.ram_seconds_per_word = 1 / FREQUENCY_HZ
            behaviour.port_setup = BUDGET.cycles(PORT_SETUP_CYCLES)
            behaviour.iq_streaming = True
        for datapath in mapping.datapaths:
            module = self._modules[datapath.module]
            module.compute_time_scale = 1.0 + BRAM_EXTRA_CYCLES_PER_SAMPLE

    def _resolve_channel(self, link):
        channel = self._channels.get(link.channel)
        if channel is None:
            from ..vta import P2PChannel
            from ..vta.platform import CLOCK_PERIOD

            channel_spec = self.spec.channel(link.channel)
            self._p2p_count += 1
            channel = self._channels[link.channel] = P2PChannel(
                self.sim,
                CLOCK_PERIOD,
                name=channel_spec.name,
                cycles_per_word=channel_spec.cycles_per_word,
            )
        return channel

    def _bind_port(self, client: str, port, role: str) -> None:
        link = self.spec.link_for(client, port.basename)
        if link.priority is not None:
            port.priority = link.priority
        if link.transport == "direct":
            port.bind(self._shared[link.target])
            return
        from ..vta import RmiClient
        from ..vta.platform import BUDGET

        channel = self._resolve_channel(link)
        target_spec = self.spec.shared_object(link.target)
        if target_spec.behaviour == "idwt_params":
            rmi_name = f"rmi_params_{role}"
        else:
            rmi_name = f"rmi_store_{role}_{port.name}"
        client = RmiClient(
            channel,
            self._sockets[link.target],
            name=rmi_name,
            chunk_words=link.chunk_words,
            poll_interval=(
                BUDGET.cycles(link.poll_cycles)
                if link.poll_cycles is not None
                else None
            ),
        )
        self._rmi_clients.append(client)
        port.bind(client)

    def _map_task(self, task) -> None:
        if not self.spec.is_vta:
            return
        self.processors[self._cpu_index[task.name]].add_sw_task(task)
        self._ddr_masters[task.name] = self.ddr.connect_master(f"ddr[{task.name}]")

    # -- execution -------------------------------------------------------------

    def run(self) -> DecodingReport:
        for task in self.tasks:
            task.start()
        self.sim.spawn(self._finisher(), name="finisher")
        self.sim.run()
        unfinished = [t.name for t in self.tasks if not t.finished]
        if unfinished:
            raise RuntimeError(
                f"{self.version}: simulation deadlocked; unfinished tasks: {unfinished}"
            )
        return DecodingReport(
            version=self.version,
            lossless=self.workload.lossless,
            decode_ms=self._finish_time_fs / 1e12,
            idwt_ms=self.idwt_time_ms(),
            image=self._assemble_image(),
            details=self.detail_stats(),
        )

    def _finisher(self):
        """Record the instant the last software task completes."""
        yield from join([task.process for task in self.tasks])
        self._finish_time_fs = self.sim.now.femtoseconds

    def idwt_time_ms(self) -> float:
        if self._behaviour == "decode_all_stages":
            return self._idwt_fs / 1e12
        if self._behaviour == "decode_coprocessor":
            return self.store.coprocessor_idwt_fs / 1e12
        return self.idwt_metrics.busy_ms

    def detail_stats(self) -> dict:
        stats: dict = {}
        if self._behaviour == "decode_coprocessor":
            stats["so"] = self.shared_object.stats
        elif self._behaviour == "decode_pipelined":
            stats["so"] = self.shared_object.stats
            stats["params_so"] = self.params_so.stats
            stats["idwt_jobs"] = self.idwt_metrics.jobs
        if self.spec.is_vta:
            stats["opb"] = self.opb.stats
            stats["ddr"] = self.ddr.stats
            stats["cpu_busy_ms"] = [cpu.busy_fs / 1e12 for cpu in self.processors]
            stats["polls"] = sum(client.polls for client in self._rmi_clients)
        return stats

    def _assemble_image(self):
        if not self.workload.functional or not self.results:
            return None
        from ..jpeg2000.image import TileGrid
        from ..jpeg2000.stages.assemble import assemble_full

        params = self.workload.decoder.parameters
        grid = TileGrid(params.width, params.height, params.tile_width, params.tile_height)
        image, windows = assemble_full(grid, params)
        for tile_index, planes in self.results.items():
            for window, plane in zip(windows[tile_index], planes):
                window[...] = plane
        return image

    # -- external-memory hooks (no-ops at the Application Layer) ---------------

    def _fetch_coded_tile(self, task, tile_index: int):
        """Load the coded input of one tile (external memory on the VTA)."""
        ddr = getattr(self, "ddr", None)
        if ddr is None:
            return iter(())
        words = int(
            self.workload.num_components
            * self.workload.words_per_component
            * CODED_WORDS_RATIO
        )
        return ddr.read_burst(self._ddr_masters[task.name], words)

    def _store_decoded_tile(self, task, tile_index: int):
        """Write one decoded tile back (external memory on the VTA)."""
        ddr = getattr(self, "ddr", None)
        if ddr is None:
            return iter(())
        words = self.workload.num_components * self.workload.words_per_component
        return ddr.write_burst(self._ddr_masters[task.name], words)

    # -- shared stage helpers --------------------------------------------------

    def _tile_stages(self, tile_index: int):
        if self.workload.functional:
            return self.workload.decoder.tile_stages(tile_index)
        return None

    def _staged(self, task, stage: str, tile_index: int, duration, body=None):
        """``task.eet`` wrapped in a per-tile telemetry stage span.

        The span lands on the task's track in simulated time, so a trace
        of any model version carries the Fig. 1 stage decomposition
        (category ``stage``) without extra counters.  Spans carry the
        design name, making traces of different mappings comparable.
        """
        tel = self.sim.telemetry
        if tel is None:
            result = yield from task.eet(duration, body)
            return result
        begin_fs = self.sim._now_fs
        result = yield from task.eet(duration, body)
        tel.complete(
            "stage", stage, task.name, begin_fs, self.sim._now_fs,
            {"tile": tile_index, "design": self.version},
        )
        return result

    def _finish_tile_sw(self, task, tile_index, stages, planes):
        """The software tail of the pipeline: inverse MCT + DC shift."""
        times = self.workload.stage_times
        planes = yield from self._staged(
            task, "ict", tile_index, times.eet("ict"),
            (lambda: stages.inverse_mct(planes)) if stages else None,
        )
        planes = yield from self._staged(
            task, "dc", tile_index, times.eet("dc"),
            (lambda: stages.dc_shift(planes)) if stages else None,
        )
        yield from self._store_decoded_tile(task, tile_index)
        if stages is not None:
            self.results[tile_index] = planes

    # -- task behaviours -------------------------------------------------------

    def _body_all_stages(self, task):
        """v1: one software task runs all five decoder stages."""
        times = self.workload.stage_times
        for tile_index in self.workload.tile_indices():
            stages = self._tile_stages(tile_index)
            yield from self._fetch_coded_tile(task, tile_index)
            bands = yield from self._staged(
                task, "arith", tile_index, times.eet("arith"),
                (lambda s=stages: s.entropy_decode()) if stages else None,
            )
            subbands = yield from self._staged(
                task, "iq", tile_index, times.eet("iq"),
                (lambda s=stages, b=bands: s.dequantise(b)) if stages else None,
            )
            start = self.sim.now.femtoseconds
            planes = yield from self._staged(
                task, "idwt", tile_index, times.eet("idwt"),
                (lambda s=stages, sb=subbands: s.inverse_dwt(sb)) if stages else None,
            )
            self._idwt_fs += self.sim.now.femtoseconds - start
            yield from self._finish_tile_sw(task, tile_index, stages, planes)

    def _body_coprocessor(self, task, task_index):
        """v2/v4: entropy decode in SW, IQ+IDWT as one blocking SO call."""
        from ..casestudy.messages import WirePayload

        times = self.workload.stage_times
        workload = self.workload
        num_tasks = len(self.spec.tasks)
        tiles = list(workload.tile_indices())[task_index::num_tasks]
        for tile_index in tiles:
            stages = self._tile_stages(tile_index)
            yield from self._fetch_coded_tile(task, tile_index)
            bands = yield from self._staged(
                task, "arith", tile_index, times.eet("arith"),
                (lambda s=stages: s.entropy_decode()) if stages else None,
            )
            content = (stages, bands) if stages else None
            payload = WirePayload(
                workload.num_components * workload.words_per_component, content
            )
            result = yield from task.so_port.call("iq_idwt", tile_index, payload)
            yield from self._finish_tile_sw(task, tile_index, stages, result.content)

    def _body_pipelined(self, task, task_index):
        """v3/v5/6x/7x: per-component streaming into the Fig. 3 pipeline."""
        from ..casestudy.messages import WirePayload

        times = self.workload.stage_times
        workload = self.workload
        num_tasks = len(self.spec.tasks)
        tiles = list(workload.tile_indices())[task_index::num_tasks]
        # Keep one slot of headroom per task so a put never deadlocks the
        # window (store capacity is four tiles per task).
        window = 3
        pending: deque = deque()
        for tile_index in tiles:
            while len(pending) >= window:
                yield from self._collect(task, pending)
            stages = self._tile_stages(tile_index)
            yield from self._fetch_coded_tile(task, tile_index)
            bands = yield from self._staged(
                task, "arith", tile_index, times.eet("arith"),
                (lambda s=stages: s.entropy_decode()) if stages else None,
            )
            for component in range(workload.num_components):
                content = (stages, bands[component]) if stages else None
                yield from task.so_port.call(
                    "put_component",
                    tile_index,
                    component,
                    WirePayload(workload.words_per_component, content),
                )
            pending.append((tile_index, stages))
        while pending:
            yield from self._collect(task, pending)

    def _collect(self, task, pending: deque):
        tile_index, stages = pending.popleft()
        result = yield from task.so_port.call("get_result", tile_index)
        yield from self._finish_tile_sw(task, tile_index, stages, result.content)
