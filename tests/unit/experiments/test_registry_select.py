"""The experiment registry and the one version-selection helper."""

import pytest

from repro.design import catalog
from repro.experiments import registry


class TestCatalogSelect:
    def test_default_is_row_order(self):
        assert catalog.select() == list(catalog.ROW_ORDER)

    def test_subset_is_reordered_and_deduplicated(self):
        assert catalog.select(["7a", "1", "6a", "1"]) == ["1", "6a", "7a"]

    def test_single_string(self):
        assert catalog.select("6b") == ["6b"]

    def test_layer_halves(self):
        assert catalog.select(layer="application") == ["1", "2", "3", "4", "5"]
        assert catalog.select(layer="vta") == ["6a", "6b", "7a", "7b"]

    def test_ids_and_layer_compose(self):
        assert catalog.select(["1", "6a", "7b"], layer="vta") == ["6a", "7b"]

    def test_unknown_id_raises_with_vocabulary(self):
        with pytest.raises(ValueError, match=r"'99'.*registered versions"):
            catalog.select(["1", "99"])

    def test_unknown_layer_raises(self):
        with pytest.raises(ValueError, match="unknown layer"):
            catalog.select(layer="rtl")


class TestRegistry:
    def test_all_paper_artefacts_have_owners(self):
        stems = registry.artefact_stems()
        for stem in (
            "fig1_profile", "fig1_anchor",
            "table1_application_layer", "table1_vta_layer",
            "table1_vta_bus_traffic", "table2_synthesis", "table2_ratios",
            "loc_comparison", "loc_states", "scaling_parallelism",
        ):
            assert stem in stems
        assert len(stems) == len(set(stems)), "artefact stems must be unique"

    def test_get_unknown_names_vocabulary(self):
        with pytest.raises(KeyError, match="registered"):
            registry.get("nope")

    def test_expand_group(self):
        entries = registry.expand("table1")
        assert [e.id for e in entries] == [
            "table1_application_layer", "table1_vta_layer",
        ]

    def test_expand_mixes_groups_and_ids_in_registry_order(self):
        entries = registry.expand(["scaling", "table1"])
        ids = [e.id for e in entries]
        assert ids == ["table1_application_layer", "table1_vta_layer", "scaling"]

    def test_expand_unknown_token(self):
        with pytest.raises(KeyError, match="unknown experiment or group"):
            registry.expand(["table1", "bogus"])

    def test_all_group_covers_every_entry(self):
        assert {e.id for e in registry.expand("all")} == set(registry.ids())

    def test_requests_have_unique_rids_per_experiment(self):
        for entry in registry.all_experiments():
            rids = [request.rid for request in entry.requests()]
            assert len(rids) == len(set(rids)), entry.id

    def test_duplicate_registration_rejected(self):
        entry = registry.get("fig1")
        with pytest.raises(ValueError, match="registered twice"):
            registry.register(entry)


class TestRegistryLoading:
    def test_failed_defs_import_rolls_back_partial_registrations(self):
        """A defs import that dies partway must not leave a partial
        registry behind: later calls would silently see a subset, and a
        retry would hit a spurious "registered twice"."""
        import sys

        import repro.experiments as pkg

        saved_registry = dict(registry._REGISTRY)
        saved_groups = dict(registry.GROUPS)
        saved_loaded = registry._LOADED
        saved_module = sys.modules.get("repro.experiments.defs")
        # ``from . import defs`` short-circuits to the package attribute
        # when one exists; drop it so the import machinery actually runs.
        saved_attr = pkg.__dict__.pop("defs", None)

        partial = registry.Experiment(
            id="partial", title="partial", category="ablation",
            description="registered before the import dies",
            artefacts=("partial_stem",),
            build_requests=tuple, build_tables=lambda payloads: {},
        )

        class _DiesPartway:
            def find_spec(self, name, path=None, target=None):
                if name == "repro.experiments.defs":
                    registry.register(partial)
                    raise ImportError("defs import died partway")
                return None

        finder = _DiesPartway()
        try:
            registry._REGISTRY.clear()
            registry.GROUPS.clear()
            registry._LOADED = False
            sys.modules.pop("repro.experiments.defs", None)
            sys.meta_path.insert(0, finder)
            with pytest.raises(ImportError, match="died partway"):
                registry.ids()
            assert registry._REGISTRY == {}, "partial registrations must roll back"
            assert not registry._LOADED

            sys.meta_path.remove(finder)
            assert "fig1" in registry.ids()  # retry loads cleanly
        finally:
            if finder in sys.meta_path:
                sys.meta_path.remove(finder)
            registry._REGISTRY.clear()
            registry._REGISTRY.update(saved_registry)
            registry.GROUPS.clear()
            registry.GROUPS.update(saved_groups)
            registry._LOADED = saved_loaded
            if saved_module is not None:
                sys.modules["repro.experiments.defs"] = saved_module
            if saved_attr is not None:
                pkg.defs = saved_attr
