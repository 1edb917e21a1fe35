"""Modules: named owners of processes.

A :class:`Module` is a named component that owns processes and events,
mirroring ``sc_module``.  The OSSS layer builds its Module / SoftwareTask /
SharedObject concepts on top of this class.  Designs are flat: the
elaborator names every component itself, so there is no parent/child
hierarchy.
"""

from __future__ import annotations

from typing import Callable, Optional

from .process import Process, ProcessBody
from .scheduler import Simulator


class Module:
    """A named component owning processes."""

    def __init__(self, sim: Simulator, name: str):
        if not name or "." in name:
            raise ValueError(f"module name must be a non-empty dot-free string, got {name!r}")
        self.sim = sim
        self.name = name
        self.processes: list[Process] = []

    # -- processes and events ----------------------------------------------------

    def add_thread(self, body_fn: Callable[..., ProcessBody], *args, name: Optional[str] = None) -> Process:
        """Register *body_fn(*args)* as a process owned by this module."""
        proc_name = f"{self.name}.{name or body_fn.__name__}"
        proc = self.sim.spawn(body_fn(*args), name=proc_name)
        self.processes.append(proc)
        return proc

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
