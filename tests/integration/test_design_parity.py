"""Spec-elaborated models are the seed models — structurally and numerically.

``tests/data/topology_seed.json`` and ``tests/data/table1_seed.json`` were
captured once from the hand-built model classes that preceded the
declarative specs.  They are frozen: the oracle must never be rewritten
from the code under test.  Elaborating the catalog specs must reproduce
the same machine graph and bit-identical Table 1 milliseconds.
"""

import json
import pathlib

import pytest

from repro.casestudy.explorer import run_version
from repro.casestudy.workload import paper_workload
from repro.design import catalog, elaborate_design, model_topology

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

TOPOLOGY_SEED = json.loads((DATA / "topology_seed.json").read_text())
TABLE1_SEED = json.loads((DATA / "table1_seed.json").read_text())


@pytest.mark.parametrize("name", catalog.names())
def test_topology_matches_seed(name):
    model = elaborate_design(catalog.get(name), paper_workload(True))
    assert model_topology(model) == TOPOLOGY_SEED[name]


@pytest.mark.slow
def test_table1_bit_identical_to_seed():
    values = {}
    for name in catalog.names():
        cell = values[name] = {"decode_ms": {}, "idwt_ms": {}}
        for lossless, mode in ((True, "lossless"), (False, "lossy")):
            report = run_version(name, lossless)
            cell["decode_ms"][mode] = report.decode_ms
            cell["idwt_ms"][mode] = report.idwt_ms
    assert values == TABLE1_SEED
