"""Simulate requests: one resolver, checked options, the key hashes what ran.

A simulate request builds its model one way only — the spec
``request_spec`` resolves, elaborated — so the cache key's spec hash
describes the machine that actually ran.  Option names are checked when
the request is built, and a runtime tweak aimed at a part the design
lacks fails with a message naming both.
"""

import pytest

from repro.design.elaborate import ElaboratedModel
from repro.experiments import KIND_SIMULATE, RunRequest, cache_key, registry
from repro.experiments.execute import execute_request
from repro.experiments.fingerprint import spec_hash


def _sim(version, **options):
    return RunRequest(
        f"sim:{version}:lossless", KIND_SIMULATE,
        {"version": version, "lossless": True}, options,
    )


class _Elaborated(Exception):
    """Raised after elaboration so the test skips the simulation."""


def _simulate_requests():
    return [
        request
        for experiment in registry.expand("all")
        for request in experiment.requests()
        if request.kind == KIND_SIMULATE
    ]


def test_every_simulate_cell_elaborates_the_spec_its_key_hashes(monkeypatch):
    built = []
    original = ElaboratedModel.__init__

    def recording_init(self, spec, workload):
        original(self, spec, workload)
        built.append(self)
        raise _Elaborated

    monkeypatch.setattr(ElaboratedModel, "__init__", recording_init)
    requests = _simulate_requests()
    assert any(request.options.get("so_bus") for request in requests)
    for request in requests:
        built.clear()
        with pytest.raises(_Elaborated):
            execute_request(request)
        (model,) = built
        assert type(model) is ElaboratedModel, request.rid
        assert spec_hash(model.spec) == cache_key(request).spec_hash, request.rid
        if model.spec.is_vta:
            # The bus the model drives is the one its spec declares.
            declared = [channel.name for channel in model.spec.bus_channels]
            assert declared == [model.opb.name], request.rid


def test_plb_rewrite_is_part_of_the_key():
    plain = cache_key(_sim("6a")).spec_hash
    assert cache_key(_sim("6a", so_bus="plb")).spec_hash != plain


def test_unknown_option_name_is_rejected_when_the_request_is_built():
    with pytest.raises(ValueError, match="rmi_chunk_word.*known.*rmi_chunk_words"):
        _sim("7a", rmi_chunk_word=16)


@pytest.mark.parametrize(
    "version, so_bus, message",
    [("3", "plb", "design '3' has no bus channel"),
     ("6a", "PLB", "so_bus='PLB'")],
)
def test_so_bus_rewrite_a_design_cannot_take_fails_when_keyed(
    version, so_bus, message
):
    with pytest.raises(ValueError, match=message):
        cache_key(_sim(version, so_bus=so_bus))


@pytest.mark.parametrize(
    "version, option, value",
    [(version, "poll", False) for version in ("1", "2", "4")]
    + [(version, "fifo_depth", 2) for version in ("1", "2", "4")]
    + [(version, "opb_burst_threshold_words", 8)
       for version in ("1", "2", "3", "4", "5")],
)
def test_tweak_on_a_missing_part_names_option_and_version(version, option, value):
    pattern = rf"{option}=.*design '{version}'"
    with pytest.raises(ValueError, match=pattern):
        execute_request(_sim(version, **{option: value}))
