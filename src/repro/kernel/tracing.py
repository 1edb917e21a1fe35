"""Simulation profiling.

:class:`SimProfiler` does *wall-clock* analysis: attached to a
:class:`Simulator` it attributes host time and step counts to each
process, which is how the kernel fast paths in this package were found.
"""

from __future__ import annotations

from typing import Optional

from .process import Process
from .scheduler import Simulator


class _ProcStats:
    """Accumulated per-process profile counters."""

    __slots__ = ("name", "steps", "seconds", "first_delta", "last_delta")

    def __init__(self, name: str):
        self.name = name
        self.steps = 0
        self.seconds = 0.0
        self.first_delta: Optional[int] = None
        self.last_delta: Optional[int] = None


class SimProfiler:
    """Lightweight per-process wall-clock profiler for a simulation run.

    Attach before running, detach (or just read the report) afterwards::

        profiler = SimProfiler(sim)
        sim.run()
        print(profiler.report())

    While attached, every process step is timed with ``perf_counter`` and
    attributed to the process, together with the delta-cycle count in which
    it ran.  The overhead is two timer reads per step, so profiled runs are
    slower — use it to find hot processes, not to measure absolute speed.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._stats: dict[Process, _ProcStats] = {}
        sim.profiler = self

    def detach(self) -> None:
        """Stop profiling (recorded data stays available)."""
        if self.sim.profiler is self:
            self.sim.profiler = None

    # Called by the scheduler's evaluate loop for every profiled step.
    def _record(self, proc: Process, seconds: float, delta: int) -> None:
        stats = self._stats.get(proc)
        if stats is None:
            stats = self._stats[proc] = _ProcStats(proc.name)
        stats.steps += 1
        stats.seconds += seconds
        if stats.first_delta is None:
            stats.first_delta = delta
        stats.last_delta = delta

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self._stats.values())

    @property
    def total_steps(self) -> int:
        return sum(s.steps for s in self._stats.values())

    def as_dict(self) -> dict:
        """Profile data as plain types, ready for JSON serialisation."""
        processes = sorted(
            self._stats.values(), key=lambda s: s.seconds, reverse=True
        )
        return {
            "total_seconds": self.total_seconds,
            "total_steps": self.total_steps,
            "delta_count": self.sim.delta_count,
            "processes": [
                {
                    "name": s.name,
                    "steps": s.steps,
                    "seconds": s.seconds,
                    "first_delta": s.first_delta,
                    "last_delta": s.last_delta,
                }
                for s in processes
            ],
        }

    def report(self, top: int = 20) -> str:
        """Human-readable table of the *top* processes by wall time."""
        data = self.as_dict()
        lines = [
            f"# simulation profile: {data['total_steps']} steps, "
            f"{data['delta_count']} deltas, {data['total_seconds']:.4f} s",
            f"{'process':<40} {'steps':>8} {'seconds':>10} {'%':>6}",
        ]
        total = data["total_seconds"] or 1.0
        for row in data["processes"][:top]:
            lines.append(
                f"{row['name']:<40} {row['steps']:>8} "
                f"{row['seconds']:>10.4f} {100.0 * row['seconds'] / total:>5.1f}%"
            )
        return "\n".join(lines) + "\n"
