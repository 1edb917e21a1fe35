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
from .._lazy import lazy_exports

_EXPORTS = {
    "CACHE_SCHEMA": ".cache",
    "CacheKey": ".request",
    "ENV_CACHE_DIR": ".cache",
    "Experiment": ".registry",
    "ExperimentResult": ".runner",
    "KIND_LAYERS": ".request",
    "KIND_PROFILE": ".request",
    "KIND_SIMULATE": ".request",
    "KIND_SYNTHESISE": ".request",
    "KNOWN_KINDS": ".request",
    "ResultCache": ".cache",
    "RunRequest": ".request",
    "RunResult": ".request",
    "Runner": ".runner",
    "cache_key": ".request",
    "canonical_json": ".fingerprint",
    "code_fingerprint": ".fingerprint",
    "default_cache_dir": ".cache",
    "execute_request": ".execute",
    "render_artifacts": ".artifacts",
    "request_spec": ".request",
    "results_dir": ".artifacts",
    "spec_hash": ".fingerprint",
    "subsystems_for_kind": ".fingerprint",
    "timed_execute": ".execute",
    "workload_descriptor": ".request",
}

__all__ = sorted([*_EXPORTS, "registry"])
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
