"""Module hierarchy."""

import pytest

from repro.kernel import Module, Simulator, ns


@pytest.fixture
def sim():
    return Simulator()


class TestModuleHierarchy:
    def test_full_names(self, sim):
        top = Module(sim, "top")
        child = Module(sim, "dec", parent=top)
        grandchild = Module(sim, "idwt", parent=child)
        assert grandchild.name == "top.dec.idwt"

    def test_duplicate_child_rejected(self, sim):
        top = Module(sim, "top")
        Module(sim, "a", parent=top)
        with pytest.raises(ValueError, match="duplicate"):
            Module(sim, "a", parent=top)

    def test_invalid_names_rejected(self, sim):
        with pytest.raises(ValueError):
            Module(sim, "")
        with pytest.raises(ValueError):
            Module(sim, "a.b")

    def test_find_descendant(self, sim):
        top = Module(sim, "top")
        child = Module(sim, "sub", parent=top)
        leaf = Module(sim, "leaf", parent=child)
        assert top.find("sub.leaf") is leaf
        with pytest.raises(KeyError):
            top.find("sub.missing")

    def test_walk_visits_all(self, sim):
        top = Module(sim, "top")
        Module(sim, "a", parent=top)
        b = Module(sim, "b", parent=top)
        Module(sim, "c", parent=b)
        assert [m.basename for m in top.walk()] == ["top", "a", "b", "c"]

    def test_add_thread_names_process(self, sim):
        top = Module(sim, "top")

        def body():
            yield ns(1)

        proc = top.add_thread(body)
        assert proc.name == "top.body"
        sim.run()
        assert proc.finished

