"""Ports: directed, blocking communication links.

On the Application Layer a communication link connects a client's *port* to
a provider (port-to-interface binding).  The port is the only thing
behavioural code touches:

``result = yield from port.call("method", args...)``

Seamless refinement rests on this: at Application Layer the port is bound
directly to a Shared Object; at VTA Layer it is bound to an RMI client
transactor that speaks a physical channel — the behavioural code and its
method calls never change.
"""

from __future__ import annotations

from ..kernel import Module


class BindingError(RuntimeError):
    """Port used before binding, or bound twice."""


class Port:
    """A client-side access point for blocking method calls."""

    def __init__(self, owner: Module, name: str):
        self.owner = owner
        self.basename = name
        #: Arbitration priority of this port's calls (lower wins); the
        #: elaborator sets it from the design's link.
        self.priority = 0
        self._provider = None
        self._client = None

    @property
    def name(self) -> str:
        return f"{self.owner.name}.{self.basename}"

    def bind(self, provider) -> None:
        """Bind to a provider (Shared Object or channel client transactor)."""
        if self._provider is not None:
            raise BindingError(f"port {self.name!r} is already bound")
        self._provider = provider
        self._client = provider.connect_client(self)

    def call(self, method: str, *args, **kwargs):
        """Blocking method call; use as ``yield from port.call(...)``."""
        if self._provider is None:
            raise BindingError(f"port {self.name!r} used before binding")
        return self._provider.invoke(self._client, method, *args, **kwargs)

    def __repr__(self) -> str:
        state = "bound" if self._provider is not None else "unbound"
        return f"Port({self.name!r}, {state})"
