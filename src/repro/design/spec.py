"""The declarative DesignSpec IR: one design description, many targets.

A :class:`DesignSpec` is pure data — frozen dataclasses describing the
*application* (software tasks, Shared Objects, hardware modules) and the
*mapping* (processors, channels, links, block-RAM placements, datapath
refinements, synthesis block layout).  The same spec is

* checked by :mod:`repro.design.validate` before any simulation starts,
* elaborated to an executable Application-Layer or VTA model by
  :mod:`repro.design.elaborate`, and
* consumed by the FOSSY flow (``fossy/flow.py``) for the platform files.

Nothing in this module imports simulation machinery: a spec can be built,
inspected, validated, and hashed without constructing a simulator.
The nine paper versions live as specs in :mod:`repro.design.catalog`.

Facts every spec would restate alike are not fields: the board (an
ML401 at 100 MHz, ``vta/platform.py``), the round-robin arbitration of
every Shared Object, the external DDR of every VTA mapping, and the
block-RAM timing of every placement (``design.catalog`` constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

# --------------------------------------------------------------------------
# Behaviour / kind registries.
#
# The IR names behaviours and kinds symbolically; these tables define the
# legal vocabulary (used by the validator) plus the one per-entry fact
# another layer needs: which methods the software-side C backend must
# wrap.  Every Shared Object behaviour has guarded methods, so a
# bus-attached client always needs a polling interval (there is no
# interrupt wiring on a shared bus).
# --------------------------------------------------------------------------

TASK_BEHAVIOURS = (
    # v1: one task runs all five decoder stages in software.
    "decode_all_stages",
    # v2/v4: entropy decode in SW, IQ+IDWT as one blocking SO call.
    "decode_coprocessor",
    # v3/v5/6x/7x: per-component streaming into the Fig. 3 pipeline.
    "decode_pipelined",
)

#: Shared Object behaviours and the methods the software subsystem calls
#: (FOSSY C backend stubs).
SHARED_OBJECT_BEHAVIOURS = {
    "tile_store": ("put_component", "get_result", "iq_idwt", "claim_component"),
    "idwt_params": ("put_job", "get_job_53", "get_job_97", "shutdown"),
}

#: Hardware module kinds and the ports each kind opens.
MODULE_KINDS = {
    "idwt2d_control": ("store", "params"),
    "idwt_filter": ("store", "params"),
}

#: Channel kinds: a shared bus (the paper's OPB, or the faster PLB tier)
#: arbitrates between many masters; a P2P channel is a dedicated wire pair
#: between exactly one client and one object socket.
BUS_CHANNEL_KINDS = ("opb", "plb")
P2P_CHANNEL_KINDS = ("p2p",)
CHANNEL_KINDS = BUS_CHANNEL_KINDS + P2P_CHANNEL_KINDS

LAYERS = ("application", "vta")
TRANSPORTS = ("direct", "rmi")


# --------------------------------------------------------------------------
# Application side.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """One software task (an OSSS process running decoder stages)."""

    name: str
    behaviour: str
    #: Ports the task opens, bound according to the mapping's links.
    ports: tuple = ()


@dataclass(frozen=True)
class SharedObjectSpec:
    """One Shared Object: behaviour + arbitration costs (round robin)."""

    name: str
    behaviour: str
    #: Fixed per-grant arbitration cost [us]; ``None`` = zero.
    grant_overhead_us: Optional[float] = None
    #: Additional per-registered-client cost per grant [us].
    per_client_overhead_us: Optional[float] = None
    #: Behaviour capacity (tiles for ``tile_store``); ``None`` = default.
    capacity: Optional[int] = None


@dataclass(frozen=True)
class HardwareModuleSpec:
    """One hardware module (OsssModule) of the application architecture."""

    name: str
    kind: str
    #: Filter wavelet mode ("5/3" or "9/7"); only for ``idwt_filter``.
    mode: Optional[str] = None


# --------------------------------------------------------------------------
# Mapping side.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessorSpec:
    """One software processor and the tasks mapped onto it."""

    name: str
    tasks: tuple = ()


@dataclass(frozen=True)
class ChannelSpec:
    """One communication channel of the VTA (bus or point-to-point)."""

    name: str
    kind: str
    cycles_per_word: float = 1.0
    #: Bus kinds only: arbitration cycles charged per transaction.
    arbitration_cycles: int = 0


@dataclass(frozen=True)
class LinkSpec:
    """One port binding: a client port connected to a Shared Object.

    At the Application Layer a link is ``direct`` (the port binds straight
    to the object).  On the VTA every link is ``rmi``: the port binds to an
    RMI transactor that serialises calls over the named channel into the
    object's socket.
    """

    client: str  # task or hardware-module name
    port: str  # port basename on the client ("so", "store", "params")
    target: str  # Shared Object name
    transport: str = "direct"
    #: Channel carrying the RMI traffic (``None`` for direct links).
    channel: Optional[str] = None
    #: Bus-arbitration priority; ``None`` keeps the port default.
    priority: Optional[int] = None
    #: RMI serialisation chunk [words]; ``None`` = transactor default.
    chunk_words: Optional[int] = None
    #: Guard polling interval [bus clock cycles]; ``None`` = no polling
    #: (dedicated links signal readiness directly).
    poll_cycles: Optional[int] = None


@dataclass(frozen=True)
class BufferSpec:
    """One logical buffer placed into a physical memory."""

    name: str
    words: int


@dataclass(frozen=True)
class MemorySpec:
    """One physical on-chip memory (block RAM)."""

    name: str
    depth_words: int


@dataclass(frozen=True)
class MemoryPlacementSpec:
    """Explicit memory insertion: an object's storage moved into a RAM."""

    memory: str
    target: str  # Shared Object whose storage the memory implements
    buffers: tuple = ()


@dataclass(frozen=True)
class DatapathSpec:
    """Datapath refinement of one hardware module on the VTA: its samples
    come from block RAM."""

    module: str


@dataclass(frozen=True)
class SynthesisBlockSpec:
    """FOSSY hand-off: one synthesised block's bus window and P2P wiring."""

    name: str
    base_address: int
    p2p_partner: Optional[str] = None


@dataclass(frozen=True)
class MappingSpec:
    """Where everything runs and how it is connected."""

    layer: str = "application"
    processors: tuple = ()
    channels: tuple = ()
    links: tuple = ()
    placements: tuple = ()
    datapaths: tuple = ()
    synthesis_blocks: tuple = ()


# --------------------------------------------------------------------------
# The spec itself.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpec:
    """One complete design description (application + mapping)."""

    name: str
    label: str
    tasks: tuple = ()
    shared_objects: tuple = ()
    modules: tuple = ()
    memories: tuple = ()
    mapping: MappingSpec = field(default_factory=MappingSpec)

    # -- lookups -----------------------------------------------------------

    def task(self, name: str) -> Optional[TaskSpec]:
        return next((t for t in self.tasks if t.name == name), None)

    def shared_object(self, name: str) -> Optional[SharedObjectSpec]:
        return next((s for s in self.shared_objects if s.name == name), None)

    def module(self, name: str) -> Optional[HardwareModuleSpec]:
        return next((m for m in self.modules if m.name == name), None)

    def memory(self, name: str) -> Optional[MemorySpec]:
        return next((m for m in self.memories if m.name == name), None)

    def channel(self, name: str) -> Optional[ChannelSpec]:
        return next((c for c in self.mapping.channels if c.name == name), None)

    def link_for(self, client: str, port: str) -> Optional[LinkSpec]:
        return next(
            (l for l in self.mapping.links if l.client == client and l.port == port),
            None,
        )

    # -- derived facts -----------------------------------------------------

    @property
    def is_vta(self) -> bool:
        return self.mapping.layer == "vta"

    @property
    def bus_channels(self) -> tuple:
        return tuple(
            c for c in self.mapping.channels if c.kind in BUS_CHANNEL_KINDS
        )

    @property
    def p2p_channels(self) -> tuple:
        return tuple(
            c for c in self.mapping.channels if c.kind in P2P_CHANNEL_KINDS
        )

    def summary(self) -> str:
        """One-line mapping summary for ``python -m repro versions``."""
        app = (
            f"{len(self.tasks)} task{'s' if len(self.tasks) != 1 else ''}"
            f", {len(self.shared_objects)} SO"
            f", {len(self.modules)} HW module{'s' if len(self.modules) != 1 else ''}"
        )
        if not self.is_vta:
            return f"application layer: {app}, direct bindings"
        buses = ", ".join(c.name for c in self.bus_channels) or "no bus"
        parts = [
            f"{len(self.mapping.processors)} cpu"
            f"{'s' if len(self.mapping.processors) != 1 else ''}",
            f"{buses} + {len(self.p2p_channels)} p2p",
        ]
        if self.mapping.placements:
            placed = ", ".join(
                f"{p.target}->{p.memory}" for p in self.mapping.placements
            )
            parts.append(f"BRAM: {placed}")
        parts.append("ddr")
        return f"vta: {app}; " + ", ".join(parts)

    def as_dict(self) -> dict:
        """Plain-data view (JSON-serialisable) of the whole spec."""
        return _as_plain(self)


def _as_plain(value):
    if hasattr(value, "__dataclass_fields__"):
        return {f.name: _as_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_as_plain(item) for item in value]
    return value

