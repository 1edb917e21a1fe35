"""Shared fixtures of the integration suite.

``runner`` is one experiment runner for the whole session over a
throwaway result cache.  A cell two experiments share (``sim:7a:lossless``
in ``table1`` and ``ablation_polling``, the synthesis runs behind
``table2`` and ``loc``) computes once per session, and the checkout's
``.repro_cache/`` is never read or written.
"""

import pytest

from repro.experiments import ResultCache, Runner, registry


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    return Runner(cache=ResultCache(tmp_path_factory.mktemp("result_cache")))


@pytest.fixture(scope="session")
def sweep_payloads(runner):
    """``sweep_payloads(experiments)`` -> ``{rid: payload}`` merged over
    every experiment the ids and group names select."""

    def _sweep(experiments):
        payloads = {}
        for outcome in runner.sweep(registry.expand(experiments)):
            payloads.update(outcome.payloads)
        return payloads

    return _sweep
