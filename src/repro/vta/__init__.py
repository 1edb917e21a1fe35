"""``repro.vta`` — Virtual Target Architecture building blocks.

The paper's contribution, part 2: the architecture library the refinement
maps Application-Layer models onto.  Software tasks map N-to-1 onto
:class:`SoftwareProcessor`, modules stay 1-to-1 dedicated hardware, Shared
Objects get an :class:`ObjectSocket`, and communication links become OSSS
Channels (:class:`OpbBus` or :class:`P2PChannel`) spoken through
:class:`RmiClient` transactors.  The block-RAM cost of explicit memory
insertion, the data-locality cost the paper highlights, comes from the
store's per-word timing (one board-clock cycle, which the elaborator
sets as ``ram_seconds_per_word``), not from a memory model.  The names
load on first use (``repro._lazy``), so reading the board constants of
``repro.vta.platform`` loads none of the simulator.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ChannelStats": ".channel_base",
    "DdrMemoryController": ".memory_controller",
    "HEADER_WORDS": ".rmi",
    "ObjectSocket": ".object_socket",
    "OpbBus": ".opb",
    "OsssChannel": ".channel_base",
    "P2PChannel": ".p2p",
    "PlbBus": ".plb",
    "RmiClient": ".rmi",
    "SoftwareProcessor": ".processor",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
