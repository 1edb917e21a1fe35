"""The OSSS Channel abstraction: word-oriented physical transport.

A channel moves serialised payloads between *masters* (RMI clients, memory
initiators) and its single medium.  The only operation behavioural code
reaches — through the RMI layer, never directly — is :meth:`transport`: a
blocking generator that consumes however much simulated time the physical
protocol needs (arbitration, address phases, data beats).

Concrete channels: :class:`~repro.vta.opb.OpbBus` (shared, arbitrated) and
:class:`~repro.vta.p2p.P2PChannel` (dedicated link).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..kernel import Event, SimTime, Simulator
from ..core.arbiter import ArbitrationPolicy, ClientHandle, Fcfs, GrantEngine, Request

#: Every channel of the case-study platform moves 32-bit words.
WORD_BITS = 32


class ChannelStats:
    """Traffic counters per channel, reported by the exploration runs."""

    def __init__(self):
        self.transactions = 0
        self.words = 0
        self.busy_fs = 0
        self.wait_fs = 0

    def as_dict(self) -> dict:
        """The counters as plain types, ready for tables and JSON."""
        return {
            "transactions": self.transactions,
            "words": self.words,
            "busy_fs": self.busy_fs,
            "wait_fs": self.wait_fs,
        }

    def __repr__(self) -> str:
        return f"ChannelStats(transactions={self.transactions}, words={self.words})"


class _TransportRequest(Request):
    """A queued transfer.  Fast mode also records its burst size and
    grant timestamp, so the grant decision can schedule the completion
    wake analytically."""

    __slots__ = ("granted", "words", "grant_fs")

    def __init__(self, sim: Simulator, master: ClientHandle, seq: int,
                 granted: Optional[Event] = None, words: int = 0):
        # The policy fields, set inline: this runs once per transaction.
        self.client_id = master.client_id
        self.priority = master.priority
        self.arrival_fs = sim._now_fs
        self.seq = seq
        self.granted = granted or Event(sim, f"bus_grant.{master.name}")
        self.words = words
        self.grant_fs = 0


class OsssChannel(GrantEngine):
    """Base class implementing a single shared transport medium.

    Subclasses set the protocol cost parameters; occupancy timing lives
    here and arbitration in :class:`~repro.core.arbiter.GrantEngine`.  A
    point-to-point channel is simply a channel that refuses more than the
    fixed number of masters.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cycle: SimTime,
        arbitration_cycles: int,
        setup_cycles: int,
        cycles_per_word: float,
        policy: Optional[ArbitrationPolicy] = None,
        max_masters: Optional[int] = None,
        full_duplex: bool = False,
    ):
        self.name = name
        self.cycle = cycle
        self.arbitration_cycles = arbitration_cycles
        self.setup_cycles = setup_cycles
        self.cycles_per_word = cycles_per_word
        self.max_masters = max_masters
        #: Full-duplex media (dedicated wire pairs) carry concurrent
        #: transfers without mutual exclusion; a shared bus serialises.
        self.full_duplex = full_duplex
        self.masters: list[ClientHandle] = []
        self.stats = ChannelStats()
        #: words -> (occupancy, occupancy+arbitration).  Protocol parameters
        #: are fixed before traffic starts, so transfer times are pure in the
        #: word count and transactions of a given size repeat constantly.
        self._time_cache: dict[int, tuple[SimTime, SimTime]] = {}
        self._arb_fs = cycle.femtoseconds * arbitration_cycles
        GrantEngine.__init__(self, sim, name, policy or Fcfs())

    # -- connection -------------------------------------------------------------

    def connect_master(self, name: str, priority: int = 0) -> ClientHandle:
        if self.max_masters is not None and len(self.masters) >= self.max_masters:
            raise RuntimeError(
                f"channel {self.name!r} accepts at most {self.max_masters} masters"
            )
        master = ClientHandle(len(self.masters), name, priority)
        self.masters.append(master)
        return master

    # -- transport ---------------------------------------------------------------

    def transfer_time(self, words: int) -> SimTime:
        """Pure occupancy time of a granted transaction of *words* words."""
        cycles = self.setup_cycles + self.cycles_per_word * words
        return SimTime.intern(round(self.cycle.femtoseconds * cycles))

    def _times(self, words: int) -> tuple[SimTime, SimTime]:
        """Memoised ``(occupancy, occupancy + arbitration)`` for *words*."""
        entry = self._time_cache.get(words)
        if entry is None:
            occupancy = self.transfer_time(words)
            total = SimTime.intern(self._arb_fs + occupancy._fs)
            entry = self._time_cache[words] = (occupancy, total)
        return entry

    def transport(self, master: ClientHandle, words: int,
                  chunk_words: Optional[int] = None):
        """Blocking transfer of *words* channel words, as a generator the
        caller's process runs (``yield from channel.transport(...)``).

        With *chunk_words* set, a larger payload is split into transactions
        of at most that many words, so a bulk transfer does not monopolise
        a shared channel.
        """
        if words < 0:
            raise ValueError("word count must be non-negative")
        chunked = chunk_words is not None and words > chunk_words
        if chunked and chunk_words < 1:
            raise ValueError("chunk size must be positive")
        if self.full_duplex and (self._fast or not chunked):
            # Full-duplex media never arbitrate, so the chunks of one
            # payload are back-to-back occupancy waits with no observable
            # intermediate state (no grant, no contention, nothing reads
            # the stream mid-burst).  Fast-forward the whole burst in a
            # single timed wait; totals — timestamps, transactions, words,
            # busy_fs — are identical to chunk-by-chunk transport.
            return self._occupy(master, words, chunk_words if chunked else words)
        if chunked:
            return self._chunks(master, words, chunk_words)
        return self._transact(master, words)

    def _chunks(self, master: ClientHandle, words: int, chunk_words: int):
        n_full, rem = divmod(words, chunk_words)
        for _ in range(n_full):
            yield from self.transport(master, chunk_words)
        if rem:
            yield from self.transport(master, rem)

    def _occupy(self, master: ClientHandle, words: int, chunk_words: int):
        """Full duplex: hold the medium for *words* words, no arbitration."""
        n_full, rem = divmod(words, chunk_words) if chunk_words else (1, 0)
        total_fs = n_full * self._times(chunk_words)[0]._fs
        if rem:
            total_fs += self._times(rem)[0]._fs
        if total_fs:
            yield SimTime.intern(total_fs)
        chunks = n_full + (1 if rem else 0)
        stats = self.stats
        stats.transactions += chunks
        stats.words += words
        stats.busy_fs += total_fs
        tel = self.sim.telemetry
        if tel is not None:
            # One span per fast-forwarded burst; its duration equals the
            # summed chunk occupancy, so per-channel span totals still
            # match ``ChannelStats.busy_fs`` exactly.
            end_fs = self.sim._now_fs
            attrs = {"master": master.name, "words": words}
            if chunks > 1:
                attrs["chunks"] = chunks
            attrs["wait_fs"] = 0
            tel.complete("bus", self.name, master.name,
                         end_fs - total_fs, end_fs, attrs)

    def _transact(self, master: ClientHandle, words: int):
        """One arbitrated transaction of *words* words."""
        sim = self.sim
        if self._fast:
            # Every request — even one finding the medium idle — waits for
            # the end-of-delta grant decision: a competing master stepping
            # later in the *same* delta cycle must still be able to win the
            # arbitration, exactly as it would against the reference
            # arbiter process (which only wakes after the delta completes).
            # The grant decision schedules this process's wake directly at
            # the burst's *completion* time (grant + arbitration + setup +
            # data beats), so the whole transaction costs one wake instead
            # of a grant wake plus a completion wake.  Timestamps and
            # statistics are identical to the reference chain; contention
            # still bites because later requests queue on ``_pending``
            # until the release below.
            # Reuse the master's grant event unless it is still in use
            # (a master handle shared by concurrent processes).
            granted = master._grant_event
            if granted is None or granted._waiting:
                granted = Event(sim, f"bus_grant.{master.name}")
                master._grant_event = granted
            request = _TransportRequest(sim, master, next(self._seq), granted, words)
            self._enqueue(request)
            wait_start_fs = sim._now_fs
            yield granted  # fires at completion, not at grant
            grant_fs = request.grant_fs
            self.stats.wait_fs += grant_fs - wait_start_fs
        else:
            # Reference path, kept verbatim for differential testing.
            request = _TransportRequest(sim, master, next(self._seq))
            self._enqueue(request)
            wait_start_fs = sim._now_fs
            yield request.granted
            grant_fs = sim._now_fs
            self.stats.wait_fs += grant_fs - wait_start_fs
            total = self._times(words)[1]
            if total:
                yield total
        now_fs = sim._now_fs
        stats = self.stats
        stats.transactions += 1
        stats.words += words
        stats.busy_fs += now_fs - grant_fs
        self._release()
        tel = sim.telemetry
        if tel is not None:
            # Span = the granted occupancy (grant → completion), so the
            # per-channel span durations sum exactly to ``busy_fs``.
            tel.complete(
                "bus", self.name, master.name, grant_fs, now_fs,
                {"master": master.name, "words": words,
                 "wait_fs": grant_fs - wait_start_fs},
            )

    def settle_alone(self, master: ClientHandle, words: int,
                     gaps: Iterator[int]) -> tuple[int, int]:
        """Settle in one step the transactions *master* provably runs alone.

        The first transaction of *words* words issues now, each further one
        the next of *gaps* [fs] after the previous one completes.  While
        the medium is idle, nothing is queued and
        :meth:`~repro.kernel.scheduler.Simulator.quiet_until` lies beyond a
        transaction's completion, its grant is immediate and uncontended,
        so it is accounted exactly as :meth:`_transact` would account it:
        statistics, last client, request sequence and one bus span each.
        Returns ``(count, end_fs)``, the transactions settled and the
        completion of the last one; ``(0, 0)`` when not even the first
        provably runs alone.  Fast mode only: the reference scheduler
        steps every transaction.
        """
        if self.full_duplex or self._busy or self._pending:
            return 0, 0
        sim = self.sim
        horizon = sim.quiet_until()
        if horizon is None:
            return 0, 0
        cost_fs = self._times(words)[1]._fs
        tel = sim.telemetry
        count = end_fs = 0
        issue_fs = sim._now_fs
        while issue_fs + cost_fs < horizon:
            end_fs = issue_fs + cost_fs
            count += 1
            next(self._seq)
            if tel is not None:
                tel.complete("bus", self.name, master.name, issue_fs, end_fs,
                             {"master": master.name, "words": words,
                              "wait_fs": 0})
            issue_fs = end_fs + next(gaps)
        if count:
            stats = self.stats
            stats.transactions += count
            stats.words += count * words
            stats.busy_fs += count * cost_fs
            self._last_client = master.client_id
        return count, end_fs

    # -- arbitration ---------------------------------------------------------------

    def _grant(self, request: _TransportRequest, contended: bool) -> None:
        if self._fast:
            # Decisions run at the end of the delta cycle, where the
            # reference arbiter's grant becomes visible too.  Rather than
            # waking the master now only for it to park again for the
            # burst duration, the grant event is notified *at the burst's
            # completion time* — zero total degenerates to a delta
            # notification, waking the master in the next delta at the
            # same timestamp, exactly like the reference grant.
            request.grant_fs = self.sim._now_fs
            request.granted.notify(self._times(request.words)[1])
        else:
            request.granted.notify(delta=True)

    # -- reporting -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, masters={len(self.masters)})"
