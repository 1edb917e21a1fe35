"""Capture the structural and numerical baseline for the DesignSpec refactor.

Run from the repo root with ``PYTHONPATH=src``:

    python tools/capture_design_snapshots.py

Writes ``tests/data/topology_seed.json`` (the module/shared-object/channel
graph of every Table 1 version, via :func:`repro.design.model_topology`)
and ``tests/data/table1_seed.json`` (the exact decode/IDWT milliseconds of
the full Table 1 matrix).  The parity tests compare the spec-elaborated
models against these files, so the snapshots must be (re)captured from a
state whose models are known good.
"""

import json
import pathlib

from repro.casestudy.explorer import ALL_VERSIONS, run_version
from repro.casestudy.workload import paper_workload
from repro.design import model_topology

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    workload = paper_workload(True)
    topology = {
        name: model_topology(ALL_VERSIONS[name](workload)) for name in ALL_VERSIONS
    }
    (DATA_DIR / "topology_seed.json").write_text(
        json.dumps(topology, indent=2, sort_keys=True) + "\n"
    )
    values = {}
    for name in ALL_VERSIONS:
        cell = values[name] = {"decode_ms": {}, "idwt_ms": {}}
        for lossless, mode in ((True, "lossless"), (False, "lossy")):
            report = run_version(name, lossless)
            cell["decode_ms"][mode] = report.decode_ms
            cell["idwt_ms"][mode] = report.idwt_ms
    (DATA_DIR / "table1_seed.json").write_text(
        json.dumps(values, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {DATA_DIR / 'topology_seed.json'}")
    print(f"wrote {DATA_DIR / 'table1_seed.json'}")


if __name__ == "__main__":
    main()
