"""Failure injection: the library must fail loudly and legibly."""

import pytest

from repro.casestudy import paper_workload
from repro.core import (
    FunctionTask,
    SharedObject,
    guarded,
    osss_method,
)
from repro.core.serialisation import SerialisationError, payload_bits
from repro.design import catalog, elaborate_design
from repro.fossy import Call, Design, InlineError, Procedure, inline_design
from repro.jpeg2000 import CodestreamError, parse_codestream
from repro.kernel import ProcessError, Simulator


class TestDeadlockDetection:
    def test_model_reports_deadlock_with_task_names(self):
        workload = paper_workload(True)
        model = elaborate_design(catalog.get("3"), workload)
        # Sabotage: the params queue never accepts jobs, so the control
        # blocks and software waits for results forever.
        model.params.capacity = 0
        with pytest.raises(RuntimeError, match="deadlock"):
            model.run()

    def test_guard_deadlock_visible_in_stats(self):
        sim = Simulator()

        class Never:
            @osss_method(guard=guarded(lambda self: False))
            def wait(self):
                return None

        so = SharedObject(sim, "never", Never())
        task = FunctionTask(sim, "t", lambda t: (yield from t.p.call("wait")))
        port = task.port("p")
        port.bind(so)
        task.p = port
        task.start()
        sim.run()
        assert not task.finished
        assert len(so._pending) == 1


class TestErrorPropagation:
    def test_exception_inside_shared_object_reaches_caller(self):
        sim = Simulator()

        class Bad:
            @osss_method()
            def explode(self):
                raise ValueError("internal fault")

        so = SharedObject(sim, "bad", Bad())
        task = FunctionTask(sim, "t", lambda t: (yield from t.p.call("explode")))
        port = task.port("p")
        port.bind(so)
        task.p = port
        task.start()
        with pytest.raises(ProcessError, match="internal fault"):
            sim.run()

    def test_pointer_payload_rejected_at_call_time(self):
        class NotSerialisable:
            pass

        with pytest.raises(SerialisationError):
            payload_bits(NotSerialisable())


class TestResourceExhaustion:
    def test_corrupt_codestream_rejected(self):
        with pytest.raises(CodestreamError):
            parse_codestream(b"\xff\x4f\xff\xff")

    def test_recursive_synthesis_model_rejected(self):
        design = Design(
            name="rec",
            procedures=[Procedure("a", body=[Call("b")]),
                        Procedure("b", body=[Call("a")])],
            main=[Call("a")],
        )
        with pytest.raises(InlineError, match="recursi"):
            inline_design(design)
