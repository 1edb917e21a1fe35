"""OSSS hardware modules: active components with N concurrent processes.

In the methodology, *modules* become dedicated hardware blocks (1-to-1
mapping on the VTA).  They may own several processes and communicate with
Shared Objects through ports, exactly like software tasks.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel import Module, SimTime, Simulator
from .interfaces import Port
from .timing import eet


class OsssModule(Module):
    """Base class for OSSS hardware modules.

    Subclasses register their concurrent processes in ``elaborate()`` (or by
    calling :meth:`add_thread` directly).  ``self.eet(t)`` annotates
    computation time, later refined to cycle counts on the VTA layer.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.ports: list[Port] = []

    def port(self, name: str = "port") -> Port:
        port = Port(self, name)
        self.ports.append(port)
        return port

    def eet(self, duration: SimTime, body: Optional[Callable[[], object]] = None):
        return eet(duration, body)
