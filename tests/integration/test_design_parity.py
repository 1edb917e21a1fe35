"""Spec-elaborated models are the seed models — structurally and numerically.

``tests/data/topology_seed.json`` and ``tests/data/table1_seed.json`` were
captured (``tools/capture_design_snapshots.py``) from the hand-built model
classes before they became catalog shims.  Elaborating the declarative
specs must reproduce the same machine graph and bit-identical Table 1
milliseconds.
"""

import json
import pathlib

import pytest

from repro.casestudy.explorer import ALL_VERSIONS, run_version
from repro.casestudy.workload import paper_workload
from repro.design import catalog, elaborate_design, model_topology

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

TOPOLOGY_SEED = json.loads((DATA / "topology_seed.json").read_text())
TABLE1_SEED = json.loads((DATA / "table1_seed.json").read_text())


@pytest.mark.parametrize("name", catalog.names())
def test_topology_matches_seed(name):
    model = elaborate_design(catalog.get(name), paper_workload(True))
    assert model_topology(model) == TOPOLOGY_SEED[name]


@pytest.mark.parametrize("name", catalog.names())
def test_shim_class_builds_the_same_machine(name):
    # The public Version* classes and direct elaboration agree.
    workload = paper_workload(True)
    via_class = model_topology(ALL_VERSIONS[name](workload))
    via_spec = model_topology(elaborate_design(catalog.get(name), workload))
    assert via_class == via_spec


@pytest.mark.slow
def test_table1_bit_identical_to_seed():
    values = {}
    for name in ALL_VERSIONS:
        cell = values[name] = {"decode_ms": {}, "idwt_ms": {}}
        for lossless, mode in ((True, "lossless"), (False, "lossy")):
            report = run_version(name, lossless)
            cell["decode_ms"][mode] = report.decode_ms
            cell["idwt_ms"][mode] = report.idwt_ms
    assert values == TABLE1_SEED
