"""Software-task mechanics."""

import pytest

from repro.core import FunctionTask, SoftwareTask
from repro.kernel import Simulator, ms, ns


@pytest.fixture
def sim():
    return Simulator()


class TestSoftwareTask:
    def test_subclass_main_runs(self, sim):
        marks = []

        class MyTask(SoftwareTask):
            def main(self):
                yield from self.eet(ms(1))
                marks.append(self.sim.now)

        task = MyTask(sim, "t")
        task.start()
        sim.run()
        assert marks == [ms(1)]

    def test_start_idempotent(self, sim):
        class MyTask(SoftwareTask):
            def main(self):
                yield ns(1)

        task = MyTask(sim, "t")
        first = task.start()
        second = task.start()
        assert first is second

    def test_main_must_be_overridden(self, sim):
        task = SoftwareTask(sim, "t")
        task.start()
        with pytest.raises(Exception, match="must implement"):
            sim.run()

    def test_eet_scale_multiplies(self, sim):
        marks = []

        class MyTask(SoftwareTask):
            def main(self):
                yield from self.eet(ms(1))
                marks.append(self.sim.now)

        task = MyTask(sim, "t")
        task.eet_scale = 2.0
        task.start()
        sim.run()
        assert marks == [ms(2)]

    def test_function_task_receives_args(self, sim):
        results = []

        def body(task, first, second):
            yield ns(1)
            results.append((task.name, first, second))

        FunctionTask(sim, "ft", body, "a", "b").start()
        sim.run()
        assert results == [("ft", "a", "b")]

    def test_finished_property(self, sim):
        def body(task):
            yield ns(1)

        task = FunctionTask(sim, "t", body)
        assert not task.finished
        task.start()
        sim.run()
        assert task.finished
