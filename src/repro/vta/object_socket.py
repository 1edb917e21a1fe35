"""Object sockets: channel attachment points for Shared Objects.

On the VTA, every Shared Object is wrapped by an Object Socket.  The socket
is the server side of the RMI protocol: it registers remote clients with
the underlying object and forwards execution to the object's own
guard/arbitration machinery.
"""

from __future__ import annotations

from ..kernel import Simulator
from ..core.shared import SharedObject


class ObjectSocket:
    """Server-side RMI endpoint wrapping one Shared Object."""

    def __init__(self, shared_object: SharedObject):
        self.shared_object = shared_object
        self.name = f"{shared_object.name}.socket"
        self.served_calls = 0

    @property
    def sim(self) -> Simulator:
        return self.shared_object.sim

    def connect_remote(self, port):
        return self.shared_object.connect_client(port)

    def execute(self, client, method: str, *args, **kwargs):
        """Run the call locally, under the object's arbitration."""
        result = yield from self.shared_object.invoke(client, method, *args, **kwargs)
        self.served_calls += 1
        return result

    def request_call(self, client, method: str, *args, **kwargs):
        """Register a call without blocking (for polling transactors)."""
        return self.shared_object.request_call(client, method, *args, **kwargs)

    def finish_call(self, call):
        """Execute a granted call registered via :meth:`request_call`."""
        result = yield from self.shared_object.finish_call(call)
        self.served_calls += 1
        return result

    def __repr__(self) -> str:
        return f"ObjectSocket({self.name!r})"
