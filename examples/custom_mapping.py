#!/usr/bin/env python3
"""A user-defined design description: 7b remapped onto two processors.

The nine paper versions are pure data in ``repro.design.catalog``; this
script shows that the same machinery is open to *new* mappings.  It
declares a complete VTA design — the 7b application description (four
pipeline stages worth of behaviour on parallel software tasks, two IDWT
filters, two Shared Objects) bound to only **two** MicroBlaze-style
processors — as plain dataclasses, statically validates it, and then
simulates it end-to-end from the very same spec.  What every VTA design
shares is not restated: the board (an ML401 at 100 MHz), the external
DDR, the round-robin arbitration and the block-RAM timing.

The spec is exposed as ``SPEC``, so the CLI validates it too:

    python -m repro validate examples/custom_mapping.py

Run:  python examples/custom_mapping.py [--quick]
      (--quick decodes 4 tiles instead of the paper's 16)
"""

import argparse

from repro.casestudy.profiles import (
    OPB_ARBITRATION_CYCLES,
    OPB_CYCLES_PER_WORD,
    P2P_CYCLES_PER_WORD,
    RMI_CHUNK_WORDS,
    SO_GRANT_OVERHEAD,
    SO_PER_CLIENT_OVERHEAD,
    profile_for,
)
from repro.casestudy.workload import Workload, paper_workload
from repro.design import (
    BufferSpec,
    ChannelSpec,
    DatapathSpec,
    DesignSpec,
    HardwareModuleSpec,
    LinkSpec,
    MappingSpec,
    MemoryPlacementSpec,
    MemorySpec,
    ProcessorSpec,
    SharedObjectSpec,
    TaskSpec,
    check_spec,
    elaborate_design,
)
from repro.design.catalog import POLL_CYCLES, TILE_WORDS
from repro.reporting import Table

NUM_CPUS = 2
SLOTS = 4 * NUM_CPUS  # tile-store capacity scales with the task count

# -- the application description (identical behaviour to version 7b) --------

TASKS = tuple(
    TaskSpec(f"sw{i}", "decode_pipelined", ports=("so",)) for i in range(NUM_CPUS)
)

SHARED_OBJECTS = (
    SharedObjectSpec(
        name="hwsw_so",
        behaviour="tile_store",
        grant_overhead_us=SO_GRANT_OVERHEAD.femtoseconds / 1e9,
        per_client_overhead_us=SO_PER_CLIENT_OVERHEAD.femtoseconds / 1e9,
        capacity=SLOTS,
    ),
    SharedObjectSpec(name="idwt_params_so", behaviour="idwt_params"),
)

MODULES = (
    HardwareModuleSpec("idwt2d", "idwt2d_control"),
    HardwareModuleSpec("idwt53", "idwt_filter", mode="5/3"),
    HardwareModuleSpec("idwt97", "idwt_filter", mode="9/7"),
)

# -- the mapping: two CPUs, OPB bus, dedicated P2P links for the IDWT --------


def _p2p(name):
    return ChannelSpec(name, "p2p", cycles_per_word=P2P_CYCLES_PER_WORD)


CHANNELS = (
    ChannelSpec(
        "opb",
        "opb",
        cycles_per_word=OPB_CYCLES_PER_WORD,
        arbitration_cycles=OPB_ARBITRATION_CYCLES,
    ),
    _p2p("p2p_control_store"),
    _p2p("p2p_control_params"),
    _p2p("p2p_filter_idwt53_store"),
    _p2p("p2p_filter_idwt53_params"),
    _p2p("p2p_filter_idwt97_store"),
    _p2p("p2p_filter_idwt97_params"),
)


def _store(client, port, channel, priority, poll=None):
    return LinkSpec(
        client, port, "hwsw_so", transport="rmi", channel=channel,
        priority=priority, chunk_words=RMI_CHUNK_WORDS, poll_cycles=poll,
    )


def _params(client, channel):
    return LinkSpec(
        client, "params", "idwt_params_so", transport="rmi",
        channel=channel, chunk_words=RMI_CHUNK_WORDS,
    )


LINKS = (
    _store("idwt2d", "store", "p2p_control_store", priority=1),
    _params("idwt2d", "p2p_control_params"),
    _store("idwt53", "store", "p2p_filter_idwt53_store", priority=2),
    _params("idwt53", "p2p_filter_idwt53_params"),
    _store("idwt97", "store", "p2p_filter_idwt97_store", priority=2),
    _params("idwt97", "p2p_filter_idwt97_params"),
    # Software traffic stays on the shared bus and polls the guard.
    *(_store(task.name, "so", "opb", priority=0, poll=POLL_CYCLES)
      for task in TASKS),
)

SPEC = DesignSpec(
    name="7b-2cpu",
    label="SW par., HW/SW SO on bus & P2P [2 cpus]",
    tasks=TASKS,
    shared_objects=SHARED_OBJECTS,
    modules=MODULES,
    memories=(MemorySpec("store_bram", depth_words=SLOTS * TILE_WORDS),),
    mapping=MappingSpec(
        layer="vta",
        processors=tuple(
            ProcessorSpec(f"cpu{i}", tasks=(task.name,))
            for i, task in enumerate(TASKS)
        ),
        channels=CHANNELS,
        links=LINKS,
        placements=(
            MemoryPlacementSpec(
                memory="store_bram",
                target="hwsw_so",
                buffers=tuple(
                    BufferSpec(f"tile_slot{i}", TILE_WORDS) for i in range(SLOTS)
                ),
            ),
        ),
        datapaths=(DatapathSpec("idwt53"), DatapathSpec("idwt97")),
    ),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="decode 4 tiles instead of the paper's 16")
    args = parser.parse_args()

    # 1. Static validation: structural errors surface *before* any
    #    simulation time is spent (try deleting a LinkSpec above).
    check_spec(SPEC)
    print(f"spec {SPEC.name!r} is valid: {SPEC.summary()}\n")

    # 2. Elaborate + simulate the very same description, both modes.
    table = Table(
        ["mode", "decode [ms]", "IDWT [ms]"],
        title=f"Custom mapping {SPEC.name}: {SPEC.label}",
    )
    for lossless in (True, False):
        if args.quick:
            workload = Workload(
                num_tiles=4, num_components=3, tile_width=128,
                tile_height=128, lossless=lossless,
                stage_times=profile_for(lossless),
            )
        else:
            workload = paper_workload(lossless)
        model = elaborate_design(SPEC, workload)
        report = model.run()
        table.add_row(report.mode, report.decode_ms, report.idwt_ms)
    print(table.render())
    print(f"\nsimulated {SPEC.name} end-to-end from the declarative spec "
          f"({len(SPEC.mapping.processors)} processors, "
          f"{len(SPEC.p2p_channels)} P2P channels).")


if __name__ == "__main__":
    main()
