"""The experiment engine: declarative registry, cache, and sweep runner.

Everything the paper reproduction *measures* is described here once —
as :class:`Experiment` entries pairing run requests with pure table
builders — and executed through one ``RunRequest -> RunResult`` API
with a content-addressed result cache and process-pool fan-out: cache
misses run on one worker per available CPU unless ``jobs`` says
otherwise (``0``/``1``: in-process).

Typical use::

    from repro import experiments

    runner = experiments.Runner(cache=experiments.ResultCache())
    for outcome in runner.sweep("table1"):
        for stem, table in outcome.tables().items():
            print(table.render())
"""

from . import registry
from .artifacts import render_artifacts, results_dir
from .cache import CACHE_SCHEMA, ENV_CACHE_DIR, ResultCache, default_cache_dir
from .execute import execute_request, timed_execute
from .fingerprint import canonical_json, code_fingerprint, spec_hash, subsystems_for_kind
from .registry import Experiment
from .request import (
    KIND_LAYERS,
    KIND_PROFILE,
    KIND_SIMULATE,
    KIND_SYNTHESISE,
    KNOWN_KINDS,
    CacheKey,
    RunRequest,
    RunResult,
    cache_key,
    request_spec,
    workload_descriptor,
)
from .runner import ExperimentResult, Runner

__all__ = [
    "CACHE_SCHEMA",
    "CacheKey",
    "ENV_CACHE_DIR",
    "Experiment",
    "ExperimentResult",
    "KIND_LAYERS",
    "KIND_PROFILE",
    "KIND_SIMULATE",
    "KIND_SYNTHESISE",
    "KNOWN_KINDS",
    "ResultCache",
    "RunRequest",
    "RunResult",
    "Runner",
    "cache_key",
    "canonical_json",
    "code_fingerprint",
    "default_cache_dir",
    "execute_request",
    "registry",
    "render_artifacts",
    "request_spec",
    "results_dir",
    "spec_hash",
    "subsystems_for_kind",
    "timed_execute",
    "workload_descriptor",
]
