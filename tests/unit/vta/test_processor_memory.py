"""Software processors (N-to-1 mapping) and the target platform."""

import pytest

from repro.core import CycleBudget, FunctionTask
from repro.kernel import Simulator, ms, ns
from repro.vta import SoftwareProcessor, ml401


@pytest.fixture
def sim():
    return Simulator()


BUDGET = CycleBudget(100e6)


class TestSoftwareProcessor:
    def test_single_task_runs_at_full_speed(self, sim):
        cpu = SoftwareProcessor(sim, "cpu", BUDGET)
        marks = []

        def body(task):
            yield from task.eet(ms(5))
            marks.append(sim.now)

        task = FunctionTask(sim, "t", body)
        cpu.add_sw_task(task)
        task.start()
        sim.run()
        assert marks == [ms(5)]

    def test_two_tasks_share_one_processor(self, sim):
        cpu = SoftwareProcessor(sim, "cpu", BUDGET)
        marks = {}

        def body(task):
            yield from task.eet(ms(4))
            marks[task.name] = sim.now

        for name in ("a", "b"):
            task = FunctionTask(sim, name, body)
            cpu.add_sw_task(task)
            task.start()
        sim.run()
        # 8 ms of work on one CPU: both finish close to 8 ms, not 4.
        assert min(marks.values()) > ms(7)
        assert max(marks.values()) >= ms(8)

    def test_two_processors_run_in_parallel(self, sim):
        finish = {}

        def body(task):
            yield from task.eet(ms(4))
            finish[task.name] = sim.now

        for name in ("a", "b"):
            cpu = SoftwareProcessor(sim, f"cpu_{name}", BUDGET)
            task = FunctionTask(sim, name, body)
            cpu.add_sw_task(task)
            task.start()
        sim.run()
        assert all(when == ms(4) for when in finish.values())

    def test_context_switch_cost_accumulates(self, sim):
        cpu = SoftwareProcessor(sim, "cpu", BUDGET)

        def body(task):
            yield from task.eet(ms(3))

        for name in ("a", "b"):
            task = FunctionTask(sim, name, body)
            cpu.add_sw_task(task)
            task.start()
        sim.run()
        assert cpu.switches >= 4
        assert sim.now > ms(6)  # work plus switching overhead

    def test_double_mapping_rejected(self, sim):
        cpu = SoftwareProcessor(sim, "cpu", BUDGET)
        task = FunctionTask(sim, "t", lambda t: iter(()))
        cpu.add_sw_task(task)
        with pytest.raises(RuntimeError, match="already mapped"):
            cpu.add_sw_task(task)


class TestPlatform:
    def test_ml401_defaults(self):
        platform = ml401()
        assert platform.device.part == "xc4vlx25"
        assert platform.frequency_hz == 100e6
        assert platform.clock_period == ns(10)
