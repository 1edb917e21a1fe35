"""``repro.vta`` — Virtual Target Architecture building blocks.

The paper's contribution, part 2: the architecture library the refinement
maps Application-Layer models onto.  Software tasks map N-to-1 onto
:class:`SoftwareProcessor`, modules 1-to-1 onto :class:`HardwareBlock`,
Shared Objects get an :class:`ObjectSocket`, and communication links become
OSSS Channels (:class:`OpbBus` or :class:`P2PChannel`) spoken through
:class:`RmiClient` transactors.  Explicit memories (:class:`BlockRam`)
model the data-locality cost the paper highlights.
"""

from .channel_base import ChannelStats, OsssChannel
from .hardware_block import HardwareBlock
from .memory import BlockRam, MemoryBackedArray, MemoryCapacityError
from .memory_controller import DdrMemoryController
from .object_socket import ObjectSocket
from .opb import OpbBus
from .p2p import P2PChannel
from .platform import VIRTEX4_LX25, FpgaDevice, TargetPlatform, ml401
from .plb import PlbBus
from .processor import SoftwareProcessor
from .rmi import HEADER_WORDS, RmiClient

__all__ = [
    "BlockRam",
    "ChannelStats",
    "DdrMemoryController",
    "FpgaDevice",
    "HEADER_WORDS",
    "HardwareBlock",
    "MemoryBackedArray",
    "MemoryCapacityError",
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
