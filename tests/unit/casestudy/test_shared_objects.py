"""The tile-store and IDWT-params Shared Object behaviours in isolation."""

import pytest

from repro.casestudy.messages import IdwtResult, TileComponentJob, WirePayload
from repro.casestudy.shared_objects import IdwtParamsBehaviour, TileStoreBehaviour
from repro.casestudy.workload import paper_workload
from repro.core import FunctionTask, SharedObject
from repro.kernel import Simulator, ms


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def workload():
    return paper_workload(True)


def bind_task(sim, so, name, body):
    task = FunctionTask(sim, name, body)
    port = task.port("p")
    port.bind(so)
    task.p = port
    task.start()
    return task


class TestTileStore:
    def test_claim_follows_put(self, sim, workload):
        store = TileStoreBehaviour(workload)
        so = SharedObject(sim, "store", store)
        claimed = []

        def producer(task):
            yield from task.p.call("put_component", 0, 1, WirePayload(16384))

        def consumer(task):
            job = yield from task.p.call("claim_component")
            claimed.append(job)

        bind_task(sim, so, "prod", producer)
        bind_task(sim, so, "cons", consumer)
        sim.run()
        assert claimed[0].tile_index == 0
        assert claimed[0].component == 1
        assert claimed[0].lossless

    def test_component_claimed_only_once(self, sim, workload):
        store = TileStoreBehaviour(workload)
        so = SharedObject(sim, "store", store)
        claims = []

        def producer(task):
            for comp in range(2):
                yield from task.p.call("put_component", 0, comp, WirePayload(1))

        def consumer(task):
            for _ in range(2):
                job = yield from task.p.call("claim_component")
                claims.append((job.tile_index, job.component))

        bind_task(sim, so, "prod", producer)
        bind_task(sim, so, "cons", consumer)
        sim.run()
        assert sorted(claims) == [(0, 0), (0, 1)]

    def test_get_result_waits_for_all_components(self, sim, workload):
        store = TileStoreBehaviour(workload)
        so = SharedObject(sim, "store", store)
        collected = []

        def producer(task):
            for comp in range(3):
                yield from task.p.call("put_component", 0, comp, WirePayload(1))
            # mark components done one at a time with visible delays
            for comp in range(3):
                yield ms(10)
                yield from task.p.call("component_done", IdwtResult(0, comp))

        def collector(task):
            yield from task.p.call("get_result", 0)
            collected.append(sim.now)

        bind_task(sim, so, "prod", producer)
        bind_task(sim, so, "col", collector)
        sim.run()
        assert collected == [ms(30)]

    def test_capacity_backpressure(self, sim, workload):
        store = TileStoreBehaviour(workload, capacity_tiles=2)
        so = SharedObject(sim, "store", store)
        timeline = []

        def producer(task):
            for tile in range(3):
                yield from task.p.call("put_component", tile, 0, WirePayload(1))
                timeline.append((tile, sim.now))

        def drainer(task):
            yield ms(50)
            # complete tile 0 so its slot frees up
            yield from task.p.call("claim_component")
            yield from task.p.call("component_done", IdwtResult(0, 0))
            # other components of tile 0 never arrived: fake completion
            store.slots[0].done = [True] * 3
            so._state_changed.notify(delta=True)
            yield from task.p.call("get_result", 0)

        bind_task(sim, so, "prod", producer)
        bind_task(sim, so, "drain", drainer)
        sim.run()
        assert timeline[0][1] < ms(1) and timeline[1][1] < ms(1)
        assert timeline[2][1] >= ms(50)  # third tile waited for space

    def test_iq_consumes_hardware_time(self, sim, workload):
        store = TileStoreBehaviour(workload)
        so = SharedObject(sim, "store", store)
        marks = []

        def body(task):
            yield from task.p.call("put_component", 0, 0, WirePayload(1))
            start = sim.now
            yield from task.p.call("iq", 0, 0)
            marks.append(sim.now.femtoseconds - start.femtoseconds)

        bind_task(sim, so, "t", body)
        sim.run()
        expected_ms = workload.stage_times.iq / 3 / 16.0
        assert marks[0] == pytest.approx(expected_ms * 1e12, rel=0.01)

    def test_iq_streaming_mode_is_cheap(self, sim, workload):
        store = TileStoreBehaviour(workload)
        store.iq_streaming = True
        so = SharedObject(sim, "store", store)
        marks = []

        def body(task):
            yield from task.p.call("put_component", 0, 0, WirePayload(1))
            start = sim.now
            yield from task.p.call("iq", 0, 0)
            marks.append(sim.now.femtoseconds - start.femtoseconds)

        bind_task(sim, so, "t", body)
        sim.run()
        assert marks[0] < ms(0.001).femtoseconds

    def test_coprocessor_call_records_idwt_time(self, sim, workload):
        store = TileStoreBehaviour(workload)
        so = SharedObject(sim, "store", store)

        def body(task):
            yield from task.p.call("iq_idwt", 0, WirePayload(3 * 16384))

        bind_task(sim, so, "t", body)
        sim.run()
        expected_ms = workload.stage_times.idwt / 16.0
        assert store.coprocessor_idwt_fs == pytest.approx(expected_ms * 1e12, rel=0.01)


class TestIdwtParams:
    def test_jobs_dispatched_by_mode(self, sim):
        params = IdwtParamsBehaviour()
        so = SharedObject(sim, "params", params)
        got = {}

        def control(task):
            yield from task.p.call(
                "put_job", TileComponentJob(0, 0, lossless=True, words=1)
            )
            yield from task.p.call(
                "put_job", TileComponentJob(0, 1, lossless=False, words=1)
            )
            yield from task.p.call("shutdown")

        def filter53(task):
            job = yield from task.p.call("get_job_53")
            got["53"] = job
            assert (yield from task.p.call("get_job_53")) is None

        def filter97(task):
            job = yield from task.p.call("get_job_97")
            got["97"] = job
            assert (yield from task.p.call("get_job_97")) is None

        bind_task(sim, so, "ctl", control)
        bind_task(sim, so, "f53", filter53)
        bind_task(sim, so, "f97", filter97)
        sim.run()
        assert got["53"].mode == "5/3"
        assert got["97"].mode == "9/7"

    def test_queue_capacity_blocks_put(self, sim):
        params = IdwtParamsBehaviour()
        params.capacity = 1
        so = SharedObject(sim, "params", params)
        puts = []

        def control(task):
            for index in range(2):
                yield from task.p.call(
                    "put_job", TileComponentJob(index, 0, True, 1)
                )
                puts.append(sim.now)

        def consumer(task):
            yield ms(5)
            yield from task.p.call("get_job_53")

        bind_task(sim, so, "ctl", control)
        bind_task(sim, so, "f", consumer)
        sim.run()
        assert puts[0] < ms(1)
        assert puts[1] >= ms(5)

    def test_shutdown_releases_blocked_filters(self, sim):
        params = IdwtParamsBehaviour()
        so = SharedObject(sim, "params", params)
        released = []

        def filter53(task):
            job = yield from task.p.call("get_job_53")
            released.append(job)

        def control(task):
            yield ms(3)
            yield from task.p.call("shutdown")

        bind_task(sim, so, "f53", filter53)
        bind_task(sim, so, "ctl", control)
        sim.run()
        assert released == [None]
