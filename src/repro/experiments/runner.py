"""The sweep runner: requests in, results out, cache in between.

One API for every consumer (CLI, artifact pipeline, integration tests):

``Runner.run(requests)``
    Serve cache hits, deduplicate identical cells, execute the misses —
    across a process pool when ``jobs > 1`` and there are at least two
    of them — and return results in request order.

``Runner.sweep(experiments)``
    Batch the requests of several experiments into *one* ``run`` so a
    cell shared between experiments (e.g. the synthesis runs feeding
    both Table 2 and the LoC comparison) executes exactly once.

The fan-out ships requests and payloads as small picklable plain data,
``ProcessPoolExecutor.map`` preserves submission order, and a failure to
*create or sustain* the pool falls back to in-process sequential
execution — scheduling may change timing, never results.  A cell's own
exception is not a pool failure: it propagates after one execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional

from .. import host
from . import registry
from .cache import ResultCache
from .execute import timed_execute
from .request import RunRequest, RunResult, cache_key


@dataclass
class ExperimentResult:
    """All results of one experiment, keyed by request id."""

    experiment: registry.Experiment
    results: Mapping[str, RunResult]

    @property
    def payloads(self) -> dict:
        return {rid: result.payload for rid, result in self.results.items()}

    def tables(self) -> dict:
        """``{artefact stem: Table}`` — rendered from the payloads."""
        return self.experiment.tables(self.payloads)

    @property
    def seconds(self) -> float:
        return sum(result.seconds for result in self.results.values())


@dataclass
class Runner:
    """Executes :class:`RunRequest` batches against the result cache.

    ``jobs``
        Worker processes for cache misses; ``None`` (the default) means
        one per CPU this process may run on (:func:`repro.host.host_cpus`).
        ``0``/``1`` run in-process; higher values fan out (an explicit
        value is honoured as given — on a single-core host extra workers
        cost rather than help).
    ``cache``
        A :class:`ResultCache`, or ``None`` to disable caching entirely
        (every cell recomputes, nothing is stored).
    """

    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    #: Filled by ``run``: how the last batch was served — ``jobs`` is the
    #: worker count it used (1 in-process) and ``execute_s`` the executed
    #: cells' own seconds per request kind.
    last_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.jobs is None:
            self.jobs = host.host_cpus()

    def run(self, requests: Iterable[RunRequest]) -> List[RunResult]:
        from .. import telemetry

        requests = list(requests)
        keys = [cache_key(req) for req in requests]
        results: List[Optional[RunResult]] = [None] * len(requests)

        # Cache pass + dedup: the first request with a given content
        # address owns the execution slot, later ones alias its result.
        # Dedup keys off the content address, so it works with caching
        # disabled too — a shared cell never executes twice per batch.
        pending: List[int] = []
        owners: dict = {}
        aliases: dict = {}
        for index, (request, key) in enumerate(zip(requests, keys)):
            entry = self.cache.load(key) if self.cache is not None else None
            if entry is not None:
                results[index] = RunResult(
                    request=request,
                    payload=entry["payload"],
                    cached=True,
                    seconds=float(entry.get("seconds", 0.0)),
                    key=key,
                )
                continue
            if key.key in owners:
                aliases.setdefault(owners[key.key], []).append(index)
                continue
            owners[key.key] = index
            pending.append(index)

        executed, workers = self._execute([requests[i] for i in pending])
        execute_s: dict = {}
        for index, (payload, seconds) in zip(pending, executed):
            kind = requests[index].kind
            execute_s[kind] = execute_s.get(kind, 0.0) + seconds
            payload = _normalise(payload)
            key = keys[index]
            results[index] = RunResult(
                request=requests[index], payload=payload, seconds=seconds, key=key
            )
            if self.cache is not None:
                self.cache.store(key, requests[index], payload, seconds)
            for alias in aliases.get(index, ()):
                # The owner's execution was timed; the alias only shares
                # the payload (seconds stays 0.0 so aggregates do not
                # double-count shared cells).
                results[alias] = RunResult(
                    request=requests[alias], payload=payload,
                    key=keys[alias], deduplicated=True,
                )

        self.last_stats = {
            "requests": len(requests),
            "executed": len(pending),
            "cached": sum(1 for r in results if r is not None and r.cached),
            "deduplicated": sum(len(v) for v in aliases.values()),
            "jobs": workers,
            "execute_s": {kind: round(seconds, 3)
                          for kind, seconds in sorted(execute_s.items())},
        }
        if telemetry.flight_recorder() is not None:
            telemetry.log_event("experiments.batch", **self.last_stats)
        return [result for result in results if result is not None]

    def _execute(self, requests: List[RunRequest]) -> tuple:
        """``([(payload, seconds)] in request order, workers used)``."""
        workers = min(self.jobs, len(requests))
        if workers > 1:
            executed = _map_in_pool(requests, workers)
            if executed is not None:
                return executed, workers
        return [timed_execute(request) for request in requests], 1

    # -- experiment-level API ---------------------------------------------

    def sweep(self, experiments) -> List[ExperimentResult]:
        """Run several experiments as one deduplicated batch."""
        if isinstance(experiments, str):
            experiments = registry.expand(experiments)
        experiments = [
            registry.get(exp) if isinstance(exp, str) else exp
            for exp in experiments
        ]
        flat: List[RunRequest] = []
        spans = []
        for experiment in experiments:
            requests = experiment.requests()
            spans.append((experiment, len(flat), len(flat) + len(requests)))
            flat.extend(requests)
        results = self.run(flat)
        return [
            ExperimentResult(
                experiment=experiment,
                results={result.rid: result for result in results[start:stop]},
            )
            for experiment, start, stop in spans
        ]


def _map_in_pool(requests: List[RunRequest], workers: int) -> Optional[list]:
    """``timed_execute`` over *requests* in a fresh pool of *workers*, or
    ``None`` when the pool cannot be created or sustained (restricted
    hosts without semaphores or fork, a dying worker).  A cell's own
    exception propagates."""
    # Imported here: a warm batch never reaches this branch.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError):
        return None
    with pool:
        try:
            # map() submits every cell now, which starts the workers.
            outcomes = pool.map(_worker_execute, requests)
        except OSError:
            return None
        try:
            # Results arrive in submission order.
            return list(outcomes)
        except BrokenProcessPool:
            return None


def _worker_execute(request: RunRequest) -> tuple:
    """The pool's entry point: ``timed_execute`` as the worker's copy of
    this module binds it.  The pool pickles this function by reference,
    so a ``timed_execute`` a tracer or test has wrapped in the parent
    never needs to pickle; a forked worker inherits the wrapper."""
    return timed_execute(request)


def _normalise(payload: dict) -> dict:
    """JSON round-trip so computed and cache-served payloads are
    *bit-identical* (tuples become lists, keys become strings — exactly
    what a later cache read would return)."""
    return json.loads(json.dumps(payload))
