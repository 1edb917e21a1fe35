"""The design catalog: registry contents and spec structure."""

import pytest

from repro.design import catalog


class TestCatalog:
    def test_nine_versions_in_table1_order(self):
        assert catalog.names() == ["1", "2", "3", "4", "5", "6a", "6b", "7a", "7b"]

    def test_labels_match_paper_wording(self):
        assert catalog.get("1").label == "SW only"
        assert catalog.get("6b").label == "HW/SW SO connected to bus & P2P"
        assert catalog.get("7b").label == "SW par., HW/SW SO on bus & P2P"

    def test_row_labels_are_the_specs_labels(self):
        from repro.casestudy import ROW_LABELS

        assert ROW_LABELS is catalog.ROW_LABELS
        assert ROW_LABELS == {name: catalog.get(name).label
                              for name in catalog.names()}

    def test_layers(self):
        for name in ("1", "2", "3", "4", "5"):
            assert catalog.get(name).mapping.layer == "application"
        for name in ("6a", "6b", "7a", "7b"):
            assert catalog.get(name).mapping.layer == "vta"

    def test_specs_are_cached(self):
        assert catalog.get("3") is catalog.get("3")

    def test_unknown_version_raises(self):
        with pytest.raises(KeyError, match="registered"):
            catalog.get("9z")

    def test_vta_channel_counts(self):
        # Bus-only mappings route the IDWT store traffic over OPB (params
        # links stay P2P); the "& P2P" mappings add three store channels.
        assert len(catalog.get("6a").p2p_channels) == 3
        assert len(catalog.get("6b").p2p_channels) == 6
        assert len(catalog.get("7a").p2p_channels) == 3
        assert len(catalog.get("7b").p2p_channels) == 6

    def test_task_counts(self):
        assert len(catalog.get("6b").tasks) == 1
        assert len(catalog.get("7b").tasks) == 4
        assert len(catalog.get("7b").mapping.processors) == 4

    def test_summary_mentions_mapping(self):
        assert "direct bindings" in catalog.get("3").summary()
        summary = catalog.get("7b").summary()
        assert "4 cpus" in summary
        assert "opb" in summary

    def test_scaled_spec(self):
        spec = catalog.scaled_vta_spec(2, idwt_links_p2p=True)
        assert spec.name == "7b-n2"
        assert len(spec.mapping.processors) == 2
        assert len(spec.tasks) == 2
        assert spec.shared_object("hwsw_so").capacity == 8

    def test_with_chunk_words_replaces_rmi_links_only(self):
        spec = catalog.with_chunk_words(catalog.get("6b"), 32)
        assert all(
            link.chunk_words == 32
            for link in spec.mapping.links
            if link.transport == "rmi"
        )
        # Application-layer specs carry no RMI links: unchanged object.
        assert catalog.with_chunk_words(catalog.get("3"), 32) is catalog.get("3")

    def test_as_dict_round_trips_names(self):
        import json

        payload = catalog.get("7b").as_dict()
        assert payload["name"] == "7b"
        assert [t["name"] for t in payload["tasks"]] == ["sw0", "sw1", "sw2", "sw3"]
        json.dumps(payload)  # plain data, serialisable as-is


def _reorder_keys(value):
    """Rebuild a JSON-ish structure with reversed key insertion order."""
    if isinstance(value, dict):
        return {key: _reorder_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reorder_keys(item) for item in value]
    return value


class TestScaledNames:
    """``catalog.get`` resolves the ``scaling`` experiment's spec names."""

    @pytest.mark.parametrize("num_tasks", [1, 2, 4, 8])
    @pytest.mark.parametrize("p2p", [False, True])
    def test_get_builds_the_scaled_spec(self, num_tasks, p2p):
        name = f"7{'b' if p2p else 'a'}-n{num_tasks}"
        spec = catalog.scaled_vta_spec(num_tasks, p2p)
        assert spec.name == name
        assert catalog.get(name) == spec
        assert catalog.get(name) is catalog.get(name)

    @pytest.mark.parametrize("name", ["7a-n0", "7b-n01", "7c-n2", "6b-n2", "7a-n"])
    def test_other_names_stay_unknown(self, name):
        with pytest.raises(KeyError, match=r"registered: \['1', '2'"):
            catalog.get(name)

    def test_names_stay_the_table1_rows(self):
        catalog.get("7b-n2")
        assert catalog.names() == list(catalog.ROW_ORDER)


class TestSpecHash:
    def test_hash_ignores_key_order(self):
        """The cache key hashes ``as_dict()`` canonically: key order in
        the plain-data view does not matter."""
        from repro.experiments import fingerprint as fp
        from repro.experiments.defs import TASK_COUNTS

        specs = [catalog.get(name) for name in catalog.names()] + [
            catalog.scaled_vta_spec(num_tasks, p2p)
            for num_tasks in TASK_COUNTS
            for p2p in (False, True)
        ]
        for spec in specs:
            reordered = _reorder_keys(spec.as_dict())
            assert (fp.sha256_hex(fp.canonical_json(reordered))
                    == fp.spec_hash(spec)), spec.name
