"""Modules: naming and process ownership."""

import pytest

from repro.kernel import Module, Simulator, ns


@pytest.fixture
def sim():
    return Simulator()


class TestModuleHierarchy:
    def test_invalid_names_rejected(self, sim):
        with pytest.raises(ValueError):
            Module(sim, "")
        with pytest.raises(ValueError):
            Module(sim, "a.b")

    def test_add_thread_names_process(self, sim):
        top = Module(sim, "top")

        def body():
            yield ns(1)

        proc = top.add_thread(body)
        assert proc.name == "top.body"
        sim.run()
        assert proc.finished

