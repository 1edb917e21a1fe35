"""Static validation: every catalog spec is clean, broken specs are not."""

from dataclasses import replace

import pytest

from repro.design import SpecValidationError, catalog, check_spec, validate_spec


def _with_mapping(spec, **changes):
    return replace(spec, mapping=replace(spec.mapping, **changes))


class TestCatalogSpecsAreClean:
    @pytest.mark.parametrize("name", catalog.names())
    def test_registered_spec_validates(self, name):
        assert validate_spec(catalog.get(name)) == []

    def test_scaled_specs_validate(self):
        for p2p in (False, True):
            assert validate_spec(catalog.scaled_vta_spec(2, p2p)) == []


class TestRejections:
    def test_unmapped_task(self):
        spec = catalog.get("7b")
        broken = _with_mapping(spec, processors=spec.mapping.processors[:-1])
        errors = validate_spec(broken)
        assert any(
            "task 'sw3' is not mapped to any processor" in error
            for error in errors
        )
        assert any("ProcessorSpec.tasks" in error for error in errors)

    def test_task_mapped_twice(self):
        spec = catalog.get("6b")
        doubled = spec.mapping.processors + (
            replace(spec.mapping.processors[0], name="cpu_extra"),
        )
        errors = validate_spec(_with_mapping(spec, processors=doubled))
        assert any("mapped to 2 processors" in error for error in errors)

    def test_dangling_channel_endpoint(self):
        spec = catalog.get("6b")
        links = tuple(
            replace(link, channel="ghost") if link.client == "idwt53" and
            link.port == "store" else link
            for link in spec.mapping.links
        )
        errors = validate_spec(_with_mapping(spec, links=links))
        assert any("dangling channel endpoint" in error for error in errors)
        assert any("'ghost'" in error for error in errors)

    def test_unbound_port(self):
        spec = catalog.get("6b")
        links = tuple(
            link for link in spec.mapping.links
            if not (link.client == "idwt97" and link.port == "params")
        )
        errors = validate_spec(_with_mapping(spec, links=links))
        assert any("port idwt97.params is unbound" in error for error in errors)

    def test_over_capacity_memory(self):
        spec = catalog.get("6b")
        memory = replace(spec.memories[0], depth_words=1000)
        errors = validate_spec(replace(spec, memories=(memory,)))
        assert any("only 1000 words deep" in error for error in errors)
        assert any(
            "increase MemorySpec.depth_words" in error for error in errors
        )

    def test_guarded_object_over_bus_needs_polling(self):
        spec = catalog.get("6a")
        links = tuple(
            replace(link, poll_cycles=None) if link.client == "sw0" else link
            for link in spec.mapping.links
        )
        errors = validate_spec(_with_mapping(spec, links=links))
        assert any("needs poll_cycles" in error for error in errors)

    def test_polling_on_p2p_rejected(self):
        spec = catalog.get("6b")
        links = tuple(
            replace(link, poll_cycles=100)
            if link.channel and link.channel.startswith("p2p_control_store")
            else link
            for link in spec.mapping.links
        )
        errors = validate_spec(_with_mapping(spec, links=links))
        assert any("drop the polling interval" in error for error in errors)

    def test_duplicate_names(self):
        spec = catalog.get("4")
        tasks = spec.tasks[:-1] + (replace(spec.tasks[0],),)
        errors = validate_spec(replace(spec, tasks=tasks))
        assert any("duplicate name 'sw0'" in error for error in errors)

    def test_application_layer_rejects_vta_refinements(self):
        spec = catalog.get("3")
        vta_spec = catalog.get("6b")
        errors = validate_spec(
            _with_mapping(spec, channels=vta_spec.mapping.channels[:1])
        )
        assert any("vta refinements" in error for error in errors)

    def test_check_spec_raises_with_bulleted_message(self):
        spec = catalog.get("7b")
        broken = _with_mapping(spec, processors=())
        with pytest.raises(SpecValidationError) as excinfo:
            check_spec(broken)
        assert excinfo.value.spec_name == "7b"
        assert len(excinfo.value.errors) >= 4  # one per unmapped task
        assert "\n  - " in str(excinfo.value)

    def test_elaboration_refuses_invalid_spec(self):
        from repro.casestudy.workload import paper_workload
        from repro.design import elaborate_design

        spec = catalog.get("6b")
        broken = _with_mapping(spec, processors=())
        with pytest.raises(SpecValidationError):
            elaborate_design(broken, paper_workload(True))


class TestMachineReadableCodes:
    """Every issue is still a plain string, but carries ``rule``/``path``
    codes so the enumerator can classify rejections without parsing
    prose."""

    def test_issues_are_strings_with_rule_and_path(self):
        spec = catalog.get("7b")
        broken = _with_mapping(spec, processors=spec.mapping.processors[:-1])
        errors = validate_spec(broken)
        assert errors
        for error in errors:
            assert isinstance(error, str)
            assert isinstance(error.rule, str) and "." in error.rule
            assert isinstance(error.path, str) and error.path
            record = error.as_dict()
            assert record["message"] == str(error)
            assert record["rule"] == error.rule
            assert record["path"] == error.path

    def test_unmapped_task_code(self):
        spec = catalog.get("7b")
        broken = _with_mapping(spec, processors=spec.mapping.processors[:-1])
        issues = {e.rule for e in validate_spec(broken)}
        assert "tasks.unmapped" in issues

    def test_duplicate_name_code_and_path(self):
        spec = catalog.get("4")
        tasks = spec.tasks[:-1] + (replace(spec.tasks[0],),)
        errors = validate_spec(replace(spec, tasks=tasks))
        error = next(e for e in errors if e.rule == "names.duplicate")
        assert "sw0" in error.path

    def test_dangling_endpoint_code_names_the_link(self):
        spec = catalog.get("6b")
        links = tuple(
            replace(link, channel="ghost") if link.client == "idwt53" and
            link.port == "store" else link
            for link in spec.mapping.links
        )
        errors = validate_spec(_with_mapping(spec, links=links))
        error = next(
            e for e in errors if e.rule == "channels.dangling-endpoint"
        )
        assert "idwt53" in error.path

    def test_polling_codes(self):
        spec = catalog.get("6a")
        links = tuple(
            replace(link, poll_cycles=None) if link.client == "sw0" else link
            for link in spec.mapping.links
        )
        issues = {e.rule for e in validate_spec(_with_mapping(spec, links=links))}
        assert "channels.poll-required" in issues

    @pytest.mark.parametrize("value", [0, -3])
    def test_chunk_words_must_be_positive(self, value):
        spec = catalog.with_chunk_words(catalog.get("6a"), value)
        issues = [
            e for e in validate_spec(spec)
            if e.rule == "links.chunk-words-not-positive"
        ]
        assert len(issues) == sum(
            link.transport == "rmi" for link in spec.mapping.links
        )
        assert "mapping.links[sw0.so].chunk_words" in {e.path for e in issues}
        assert validate_spec(catalog.with_chunk_words(catalog.get("6a"), 1)) == []

    @pytest.mark.parametrize("value", [0, -1])
    def test_poll_cycles_must_be_positive(self, value):
        spec = catalog.get("6a")
        links = tuple(
            replace(link, poll_cycles=value) if link.client == "sw0" else link
            for link in spec.mapping.links
        )
        errors = validate_spec(_with_mapping(spec, links=links))
        assert [(e.rule, e.path) for e in errors] == [
            ("links.poll-cycles-not-positive",
             "mapping.links[sw0.so].poll_cycles"),
        ]

    def test_over_capacity_memory_code(self):
        spec = catalog.get("6b")
        memory = replace(spec.memories[0], depth_words=1000)
        errors = validate_spec(replace(spec, memories=(memory,)))
        assert any(e.rule == "memories.over-capacity" for e in errors)

    def test_pipeline_window_rule(self):
        from repro.design.validate import PIPELINE_SLOTS_PER_TASK

        spec = catalog.get("7b")  # 4 pipelined tasks → needs 16 slots
        store = next(
            s for s in spec.shared_objects if s.behaviour == "tile_store"
        )
        too_small = PIPELINE_SLOTS_PER_TASK * len(spec.tasks) - 1
        shared = tuple(
            replace(s, capacity=too_small) if s.name == store.name else s
            for s in spec.shared_objects
        )
        errors = validate_spec(replace(spec, shared_objects=shared))
        error = next(
            e for e in errors if e.rule == "capacity.pipeline-window"
        )
        assert store.name in error.path
        # ...and the catalog size passes by exactly the window margin.
        assert validate_spec(spec) == []

    def test_valid_specs_emit_no_codes_at_all(self):
        for name in catalog.names():
            assert validate_spec(catalog.get(name)) == []
