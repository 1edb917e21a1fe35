"""Remote Method Invocation over OSSS Channels.

The RMI concept decouples the method-based communication of the
Application Layer from the physical channel: a client-side transactor
(:class:`RmiClient`) implements exactly the provider protocol that ports
bind to, so rebinding a port from the Shared Object itself to an RmiClient
is the *entire* communication refinement — method calls in behavioural code
do not change.

A call becomes, on the wire:

1. a request transfer (one header word — method id, client id — plus the
   serialised arguments) from the client to the Shared Object's socket;
2. local execution at the socket, under the object's normal arbitration;
3. a response transfer (header word plus serialised return value) back.

Transfer durations come from the channel's protocol model, so the same
call costs very different amounts of time on an OPB (2 cycles/word plus
arbitration, shared with every other master) than on a point-to-point
link (streaming, dedicated).
"""

from __future__ import annotations

from typing import Optional

from .. import telemetry as _telemetry
from ..core.arbiter import ClientHandle
from ..core.serialisation import SerialisedPayload, serialise_call
from ..kernel import AnyOf, SimTime, Timeout
from .channel_base import WORD_BITS, OsssChannel
from .object_socket import ObjectSocket

#: Words of protocol header per direction (method id / status + client id).
HEADER_WORDS = 1
#: Words of one status poll (request + status register read).
POLL_WORDS = 2


class RmiClient:
    """Client-side transactor: a drop-in provider for a Port."""

    def __init__(
        self,
        channel: OsssChannel,
        socket: ObjectSocket,
        name: str = "rmi_client",
        chunk_words: Optional[int] = None,
        poll_interval: Optional[SimTime] = None,
    ):
        self.channel = channel
        self.socket = socket
        self.name = name
        #: Maximum words per bus transaction; larger payloads are split so a
        #: bulk transfer does not monopolise a shared channel (the
        #: serialisation chunking of the paper's VTA refinement).
        self.chunk_words = chunk_words
        #: When set, a guard-blocked call is re-queried over the channel
        #: every *poll_interval* — the RMI glue on a plain bus has no
        #: interrupt line, so blocked clients poll the object's status
        #: register, and every poll is a real bus transaction.
        self.poll_interval = poll_interval
        self.polls = 0
        self._master: Optional[ClientHandle] = None
        self._remote_client = None
        self.calls = 0
        self.words_sent = 0
        self.words_received = 0

    # -- provider protocol ---------------------------------------------------------

    def connect_client(self, port):
        self._master = self.channel.connect_master(f"{self.name}[{port.name}]", port.priority)
        self._remote_client = self.socket.connect_remote(port)
        return self._remote_client

    def invoke(self, client, method: str, *args, **kwargs):
        """Blocking remote call; runs in the calling process."""
        if self._master is None:
            raise RuntimeError(f"RMI client {self.name!r} invoked before any port bound")
        sim = self.channel.sim
        tel = sim.telemetry
        begin_fs = sim._now_fs
        request = serialise_call(args, kwargs, WORD_BITS)
        request_words = HEADER_WORDS + request.words
        yield from self.channel.transport(self._master, request_words, self.chunk_words)
        if self.poll_interval is None:
            result = yield from self.socket.execute(client, method, *args, **kwargs)
        else:
            result = yield from self._execute_polled(client, method, args, kwargs)
        response = SerialisedPayload(result, WORD_BITS)
        response_words = HEADER_WORDS + response.words
        yield from self.channel.transport(self._master, response_words, self.chunk_words)
        self.calls += 1
        self.words_sent += request_words
        self.words_received += response_words
        if tel is not None:
            # One span per remote call: request transfer + remote execution
            # + response transfer, on the client transactor's track.
            tel.complete(
                "rmi",
                f"{self.socket.name}.{method}",
                self.name,
                begin_fs,
                sim._now_fs,
                {"channel": self.channel.name,
                 "words_sent": request_words,
                 "words_received": response_words},
            )
        return result

    def _execute_polled(self, client, method, args, kwargs):
        """Grant-by-polling: re-query the object's status over the channel.

        The polling driver backs off exponentially (up to 64x the base
        interval), so a briefly-blocked call reacts quickly while a client
        parked on a long-closed guard does not saturate the bus.
        """
        call = self.socket.request_call(client, method, *args, **kwargs)
        sim = self.socket.sim
        interval_fs = self.poll_interval.femtoseconds
        max_interval_fs = interval_fs * 64
        if sim.fast:
            # Timeout parks the timer straight on the timed heap — no
            # throwaway timer event per poll round.  Wake instants are
            # identical to the AnyOf reference below.
            while not call.is_granted:
                yield Timeout(call.granted, SimTime.intern(interval_fs))
                if call.is_granted:
                    break
                # Polls that provably run alone (nothing else can act
                # before they complete, so the guard cannot open) are
                # settled in one step; the client sleeps until the last
                # one completes.  Every poll still counts on the channel.
                polls, end_fs = self.channel.settle_alone(
                    self._master, POLL_WORDS,
                    _backoff(interval_fs, max_interval_fs),
                )
                if polls:
                    yield SimTime.from_fs(end_fs - sim._now_fs)
                else:
                    # Status-register read: a real transaction on the channel.
                    yield from self.channel.transport(self._master, POLL_WORDS)
                    polls = 1
                self.polls += polls
                _telemetry.count("rmi.polls", polls)
                for _ in range(polls):
                    interval_fs = min(interval_fs * 2, max_interval_fs)
        else:
            # Reference path, kept verbatim for differential testing.
            while not call.is_granted:
                timer = sim.event(f"{self.name}.poll_timer")
                timer.notify(SimTime.from_fs(interval_fs))
                yield AnyOf(call.granted, timer)
                if call.is_granted:
                    break
                # Status-register read: a real transaction on the channel.
                yield from self.channel.transport(self._master, POLL_WORDS)
                self.polls += 1
                _telemetry.count("rmi.polls")
                interval_fs = min(interval_fs * 2, max_interval_fs)
        result = yield from self.socket.finish_call(call)
        return result

    def __repr__(self) -> str:
        return f"RmiClient({self.name!r} -> {self.socket.name!r} via {self.channel.name!r})"


def _backoff(interval_fs: int, max_interval_fs: int):
    """The poll intervals that follow *interval_fs*: doubling, capped."""
    while True:
        interval_fs = min(interval_fs * 2, max_interval_fs)
        yield interval_fs
