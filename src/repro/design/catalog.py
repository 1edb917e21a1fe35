"""The design catalog: every paper version as one declarative spec.

Table 1's nine versions are pure data here — the same application
description (tasks, Shared Objects, hardware modules) paired with nine
different mappings.  This module is the single source of truth for the
version identifiers, Table 1 row order, and the paper's row labels;
``casestudy/explorer.py`` and the CLI derive their registries from it.
Besides the nine rows, :func:`get` resolves the processor-count
variants ``7a-n<k>`` and ``7b-n<k>`` (:func:`scaled_vta_spec`).

Specs are built lazily on first access (the timing constants live in
``casestudy/profiles.py``, which must not be imported at module-import
time to keep ``repro.design`` importable on its own).
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Optional

from .spec import (
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
    SynthesisBlockSpec,
    TaskSpec,
)

#: Table 1 row order — the canonical version identifiers.
ROW_ORDER = ("1", "2", "3", "4", "5", "6a", "6b", "7a", "7b")

#: Table 1 row labels (paper wording).
ROW_LABELS = {
    "1": "SW only",
    "2": "HW/SW not parallel",
    "3": "HW/SW parallel (3 IDWT modules)",
    "4": "SW parallel (cp. 2)",
    "5": "SW & HW/SW parallel (cp. 3)",
    "6a": "HW/SW SO connected to bus only",
    "6b": "HW/SW SO connected to bus & P2P",
    "7a": "SW par., HW/SW SO on bus only",
    "7b": "SW par., HW/SW SO on bus & P2P",
}

#: Which catalog layer each version elaborates to (Table 1 halves).
APPLICATION_ROWS = ("1", "2", "3", "4", "5")
VTA_ROWS = ("6a", "6b", "7a", "7b")
_LAYERS = {"application": APPLICATION_ROWS, "vta": VTA_ROWS}

#: Block-RAM timing of every placed store: one board-clock cycle per word
#: (``casestudy.profiles.FREQUENCY_HZ``), ten cycles of port setup per
#: method call.  The IQ multiplier sits behind the RAM read port, so IQ
#: streams at that rate.
PORT_SETUP_CYCLES = 10

#: External DDR of every VTA mapping: the coded input of a tile is this
#: share of its raw size (the decoded output is written back in full).
CODED_WORDS_RATIO = 0.25

#: Guard polling interval of bus-attached RMI clients [bus cycles].
POLL_CYCLES = 100

#: Paper workload geometry the static memory check is sized against
#: (128x128 tiles, 3 components, one 32-bit word per sample).
TILE_WORDS = 128 * 128 * 3

#: Names :func:`get` resolves through :func:`scaled_vta_spec`.
_SCALED_NAME = re.compile(r"7([ab])-n([1-9][0-9]*)")

_CACHE: dict = {}


def _profiles():
    # Deferred: repro.casestudy imports repro.design, so the constants
    # module is only pulled in once a spec is actually built.
    from ..casestudy import profiles

    return profiles


def names() -> list:
    """All registered version identifiers, in Table 1 row order."""
    return list(ROW_ORDER)


def select(ids=None, *, layer=None) -> list:
    """Validated version selection, in Table 1 row order.

    The one version-selection helper every consumer goes through (the
    experiment registry's Table 1 halves among them).

    ``ids``
        Catalog identifiers (one string or an iterable), or ``None`` for
        all nine rows.  They are normalised to Table 1 order with
        duplicates dropped; an unknown identifier raises ``ValueError``
        naming the full vocabulary.
    ``layer``
        ``"application"`` or ``"vta"`` restricts to that layer (applied
        after ``ids``).
    """
    if layer is not None and layer not in _LAYERS:
        raise ValueError(
            f"unknown layer {layer!r}; expected one of {sorted(_LAYERS)}"
        )
    if ids is None:
        chosen = set(ROW_ORDER)
    else:
        chosen = {ids} if isinstance(ids, str) else set(ids)
        unknown = chosen.difference(ROW_ORDER)
        if unknown:
            raise ValueError(
                f"unknown design version(s) {sorted(unknown)}; "
                f"registered versions: {list(ROW_ORDER)}"
            )
    if layer is not None:
        chosen.intersection_update(_LAYERS[layer])
    return [name for name in ROW_ORDER if name in chosen]


def get(name: str) -> DesignSpec:
    """The spec registered under *name*: a Table 1 row, or ``7a-n<k>`` /
    ``7b-n<k>`` for the scaled mappings (raises ``KeyError`` if unknown)."""
    spec = _CACHE.get(name)
    if spec is None:
        builder = _BUILDERS.get(name)
        scaled = _SCALED_NAME.fullmatch(name)
        if builder is not None:
            spec = builder()
        elif scaled is not None:
            spec = scaled_vta_spec(int(scaled[2]), scaled[1] == "b")
        else:
            raise KeyError(
                f"unknown design version {name!r}; registered: {list(ROW_ORDER)}"
                " and the scaled mappings 7a-n<k>, 7b-n<k>"
            )
        _CACHE[name] = spec
    return spec


def with_chunk_words(spec: DesignSpec, chunk_words: Optional[int]) -> DesignSpec:
    """*spec* with every RMI link's serialisation chunk replaced."""
    links = tuple(
        replace(link, chunk_words=chunk_words) if link.transport == "rmi" else link
        for link in spec.mapping.links
    )
    if links == spec.mapping.links:
        return spec
    return replace(spec, mapping=replace(spec.mapping, links=links))


def with_plb_bus(spec: DesignSpec) -> DesignSpec:
    """*spec* with its shared bus exchanged for the 64-bit PLB tier.

    Only the channel changes (the OSSS Channel abstraction makes a bus
    swap a mapping rewrite): the bus channel becomes kind ``plb`` named
    ``plb``, its links follow it, and the spec is named ``<name>-plb``.
    """
    buses = spec.bus_channels
    if not buses:
        raise ValueError(
            f"design {spec.name!r} has no bus channel to exchange for the PLB"
        )
    profiles = _profiles()
    old = buses[0].name
    plb = ChannelSpec(
        "plb",
        "plb",
        cycles_per_word=profiles.PLB_CYCLES_PER_WORD,
        arbitration_cycles=profiles.PLB_ARBITRATION_CYCLES,
    )
    channels = tuple(
        plb if channel.name == old else channel for channel in spec.mapping.channels
    )
    links = tuple(
        replace(link, channel=plb.name) if link.channel == old else link
        for link in spec.mapping.links
    )
    return replace(
        spec,
        name=f"{spec.name}-plb",
        mapping=replace(spec.mapping, channels=channels, links=links),
    )


# --------------------------------------------------------------------------
# application descriptions
# --------------------------------------------------------------------------


def _sw_only_spec() -> DesignSpec:
    return DesignSpec(
        name="1",
        label=ROW_LABELS["1"],
        tasks=(TaskSpec("sw", "decode_all_stages"),),
    )


def _coprocessor_tasks(num_tasks: int) -> tuple:
    return tuple(
        TaskSpec(f"sw{i}", "decode_coprocessor", ports=("so",))
        for i in range(num_tasks)
    )


def _pipeline_tasks(num_tasks: int) -> tuple:
    return tuple(
        TaskSpec(f"sw{i}", "decode_pipelined", ports=("so",))
        for i in range(num_tasks)
    )


def _store_so(capacity: Optional[int]) -> SharedObjectSpec:
    profiles = _profiles()
    return SharedObjectSpec(
        name="hwsw_so",
        behaviour="tile_store",
        grant_overhead_us=profiles.SO_GRANT_OVERHEAD.femtoseconds / 1e9,
        per_client_overhead_us=profiles.SO_PER_CLIENT_OVERHEAD.femtoseconds / 1e9,
        capacity=capacity,
    )


def _params_so() -> SharedObjectSpec:
    return SharedObjectSpec(name="idwt_params_so", behaviour="idwt_params")


def _pipeline_modules() -> tuple:
    return (
        HardwareModuleSpec("idwt2d", "idwt2d_control"),
        HardwareModuleSpec("idwt53", "idwt_filter", mode="5/3"),
        HardwareModuleSpec("idwt97", "idwt_filter", mode="9/7"),
    )


def _coprocessor_spec(name: str, num_tasks: int) -> DesignSpec:
    tasks = _coprocessor_tasks(num_tasks)
    links = tuple(
        LinkSpec(task.name, "so", "hwsw_so", transport="direct") for task in tasks
    )
    return DesignSpec(
        name=name,
        label=ROW_LABELS[name],
        tasks=tasks,
        shared_objects=(_store_so(capacity=None),),
        mapping=MappingSpec(layer="application", links=links),
    )


def _pipeline_application_spec(name: str, num_tasks: int) -> DesignSpec:
    tasks = _pipeline_tasks(num_tasks)
    links = []
    for module in ("idwt2d", "idwt53", "idwt97"):
        links.append(LinkSpec(module, "store", "hwsw_so", transport="direct"))
        links.append(LinkSpec(module, "params", "idwt_params_so", transport="direct"))
    for task in tasks:
        links.append(LinkSpec(task.name, "so", "hwsw_so", transport="direct"))
    return DesignSpec(
        name=name,
        label=ROW_LABELS[name],
        tasks=tasks,
        shared_objects=(_store_so(capacity=4 * num_tasks), _params_so()),
        modules=_pipeline_modules(),
        mapping=MappingSpec(layer="application", links=tuple(links)),
    )


# --------------------------------------------------------------------------
# VTA mappings
# --------------------------------------------------------------------------


def _vta_spec(
    name: str,
    label: str,
    num_tasks: int,
    idwt_links_p2p: bool,
) -> DesignSpec:
    profiles = _profiles()
    chunk = profiles.RMI_CHUNK_WORDS
    tasks = _pipeline_tasks(num_tasks)
    capacity = 4 * num_tasks

    channels = [
        ChannelSpec(
            "opb",
            "opb",
            cycles_per_word=profiles.OPB_CYCLES_PER_WORD,
            arbitration_cycles=profiles.OPB_ARBITRATION_CYCLES,
        )
    ]
    links = []

    def p2p(label_: str) -> str:
        channel = ChannelSpec(
            f"p2p_{label_}", "p2p", cycles_per_word=profiles.P2P_CYCLES_PER_WORD
        )
        channels.append(channel)
        return channel.name

    def store_link(client: str, role: str, priority: int) -> None:
        # Software traffic always shares the bus; the IDWT hardware moves
        # to dedicated links only in the "& P2P" mappings.  Bus-attached
        # clients poll the object's status register (no interrupt wiring).
        on_bus = role == "sw" or not idwt_links_p2p
        links.append(
            LinkSpec(
                client,
                "store" if role != "sw" else "so",
                "hwsw_so",
                transport="rmi",
                channel="opb" if on_bus else p2p(f"{role}_store"),
                priority=priority,
                chunk_words=chunk,
                poll_cycles=POLL_CYCLES if on_bus else None,
            )
        )

    def params_link(client: str, role: str) -> None:
        # Parameter links are always dedicated point-to-point channels.
        links.append(
            LinkSpec(
                client,
                "params",
                "idwt_params_so",
                transport="rmi",
                channel=p2p(f"{role}_params"),
                chunk_words=chunk,
            )
        )

    # Link declaration follows elaboration bind order: control, filters,
    # then the software tasks (OPB arbitration priorities: sw 0 < control
    # 1 < filters 2 — static priority with the processors on top).
    store_link("idwt2d", "control", priority=1)
    params_link("idwt2d", "control")
    for filter_name in ("idwt53", "idwt97"):
        store_link(filter_name, f"filter_{filter_name}", priority=2)
        params_link(filter_name, f"filter_{filter_name}")
    for task in tasks:
        store_link(task.name, "sw", priority=0)

    memory = MemorySpec("store_bram", depth_words=capacity * TILE_WORDS)
    placement = MemoryPlacementSpec(
        memory="store_bram",
        target="hwsw_so",
        buffers=tuple(
            BufferSpec(f"tile_slot{i}", TILE_WORDS) for i in range(capacity)
        ),
    )
    datapaths = tuple(DatapathSpec(name) for name in ("idwt53", "idwt97"))
    synthesis_blocks = (
        SynthesisBlockSpec("hwsw_so", 0x4000_0000, p2p_partner="idwt53"),
        SynthesisBlockSpec("idwt53", 0x4001_0000, p2p_partner="hwsw_so"),
        SynthesisBlockSpec("idwt97", 0x4002_0000, p2p_partner="hwsw_so"),
        SynthesisBlockSpec("idwt_params_so", 0x4003_0000),
    )
    return DesignSpec(
        name=name,
        label=label,
        tasks=tasks,
        shared_objects=(_store_so(capacity=capacity), _params_so()),
        modules=_pipeline_modules(),
        memories=(memory,),
        mapping=MappingSpec(
            layer="vta",
            processors=tuple(
                ProcessorSpec(f"cpu{i}", tasks=(task.name,))
                for i, task in enumerate(tasks)
            ),
            channels=tuple(channels),
            links=tuple(links),
            placements=(placement,),
            datapaths=datapaths,
            synthesis_blocks=synthesis_blocks,
        ),
    )


def scaled_vta_spec(num_tasks: int, idwt_links_p2p: bool) -> DesignSpec:
    """A 7a/7b-style mapping with *num_tasks* processors.

    The paper closes on "7b does better scale with increasing
    parallelism"; these specs parameterise the models that quantify it.
    The spec is named ``7a-n<k>`` or ``7b-n<k>``, the name :func:`get`
    resolves and the ``scaling`` experiment's requests carry.
    """
    if num_tasks < 1:
        raise ValueError("at least one software task is required")
    suffix = "b" if idwt_links_p2p else "a"
    return _vta_spec(
        f"7{suffix}-n{num_tasks}",
        f"{ROW_LABELS['7' + suffix]} [{num_tasks} cpus]",
        num_tasks,
        idwt_links_p2p,
    )


_BUILDERS = {
    "1": _sw_only_spec,
    "2": lambda: _coprocessor_spec("2", num_tasks=1),
    "3": lambda: _pipeline_application_spec("3", num_tasks=1),
    "4": lambda: _coprocessor_spec("4", num_tasks=4),
    "5": lambda: _pipeline_application_spec("5", num_tasks=4),
    "6a": lambda: _vta_spec("6a", ROW_LABELS["6a"], 1, idwt_links_p2p=False),
    "6b": lambda: _vta_spec("6b", ROW_LABELS["6b"], 1, idwt_links_p2p=True),
    "7a": lambda: _vta_spec("7a", ROW_LABELS["7a"], 4, idwt_links_p2p=False),
    "7b": lambda: _vta_spec("7b", ROW_LABELS["7b"], 4, idwt_links_p2p=True),
}
