"""``repro.vta`` — Virtual Target Architecture building blocks.

The paper's contribution, part 2: the architecture library the refinement
maps Application-Layer models onto.  Software tasks map N-to-1 onto
:class:`SoftwareProcessor`, modules stay 1-to-1 dedicated hardware, Shared
Objects get an :class:`ObjectSocket`, and communication links become OSSS
Channels (:class:`OpbBus` or :class:`P2PChannel`) spoken through
:class:`RmiClient` transactors.  The block-RAM cost of explicit memory
insertion, the data-locality cost the paper highlights, comes from the
store's per-word timing (``design.catalog.RAM_SECONDS_PER_WORD``, which
the elaborator passes on as ``ram_seconds_per_word``), not from a memory
model.
"""

from .channel_base import ChannelStats, OsssChannel
from .memory_controller import DdrMemoryController
from .object_socket import ObjectSocket
from .opb import OpbBus
from .p2p import P2PChannel
from .platform import VIRTEX4_LX25, FpgaDevice, TargetPlatform, ml401
from .plb import PlbBus
from .processor import SoftwareProcessor
from .rmi import HEADER_WORDS, RmiClient

__all__ = [
    "ChannelStats",
    "DdrMemoryController",
    "FpgaDevice",
    "HEADER_WORDS",
    "ObjectSocket",
    "OpbBus",
    "OsssChannel",
    "P2PChannel",
    "PlbBus",
    "RmiClient",
    "SoftwareProcessor",
    "TargetPlatform",
    "VIRTEX4_LX25",
    "ml401",
]
