"""Port binding rules."""

import pytest

from repro.core import BindingError, FunctionTask, SharedObject, osss_method
from repro.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


class Adder:
    @osss_method()
    def add(self, a, b):
        return a + b


class TestBinding:
    def test_unbound_port_rejects_calls(self, sim):
        task = FunctionTask(sim, "t", lambda task: iter(()))
        port = task.port("p")
        with pytest.raises(BindingError, match="before binding"):
            port.call("add", 1, 2)

    def test_double_bind_rejected(self, sim):
        so = SharedObject(sim, "adder", Adder())
        task = FunctionTask(sim, "t", lambda task: iter(()))
        port = task.port("p")
        port.bind(so)
        with pytest.raises(BindingError, match="already bound"):
            port.bind(so)

    def test_port_names_include_owner(self, sim):
        task = FunctionTask(sim, "dec", lambda task: iter(()))
        port = task.port("link")
        assert port.name == "dec.link"

    def test_client_registration_counts(self, sim):
        so = SharedObject(sim, "adder", Adder())
        for index in range(4):
            task = FunctionTask(sim, f"t{index}", lambda task: iter(()))
            task.port("p").bind(so)
        assert so.num_clients == 4
