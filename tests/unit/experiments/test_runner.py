"""The sweep runner: cache integration, dedup, pool/sequential parity.

The expensive simulation kinds are covered by ``tests/integration``;
these tests drive the runner with the cheap ``synthesise`` and ``layers``
kinds so the whole engine path (key -> cache -> execute -> normalise ->
store) runs in well under a second.
"""

import concurrent.futures
import functools
import multiprocessing
import sys

import pytest

from repro import host
from repro.experiments import (
    KIND_LAYERS,
    KIND_PROFILE,
    KIND_SYNTHESISE,
    ResultCache,
    Runner,
    RunRequest,
    execute_request,
)
from repro.experiments import runner as runner_module

SYNTH_53 = RunRequest("synth:idwt53", KIND_SYNTHESISE, {"block": "idwt53"})
SYNTH_97 = RunRequest("synth:idwt97", KIND_SYNTHESISE, {"block": "idwt97"})


def _layers_request(rid="layers:1", count=1):
    return RunRequest(
        rid, KIND_LAYERS,
        {"size": 32, "tile": 16, "num_layers": 2,
         "seed": 7, "layers": count},
    )


class TestRunner:
    def test_results_preserve_request_order(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        results = runner.run([SYNTH_97, SYNTH_53])
        assert [r.rid for r in results] == ["synth:idwt97", "synth:idwt53"]

    def test_cold_then_warm(self, tmp_path):
        cold = Runner(cache=ResultCache(tmp_path))
        first = cold.run([SYNTH_53])[0]
        assert not first.cached

        warm = Runner(cache=ResultCache(tmp_path))
        second = warm.run([SYNTH_53])[0]
        assert second.cached
        assert second.payload == first.payload  # bit-identical
        assert warm.last_stats["executed"] == 0

    def test_duplicate_cells_execute_once(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        renamed = RunRequest("other:rid", KIND_SYNTHESISE, {"block": "idwt53"})
        results = runner.run([SYNTH_53, renamed])
        assert runner.last_stats["executed"] == 1
        assert runner.last_stats["deduplicated"] == 1
        assert results[0].payload == results[1].payload
        # The alias shares the payload, not the owner's timing: timing
        # aggregates must count the shared cell's work exactly once.
        assert not results[0].deduplicated
        assert results[1].deduplicated
        assert results[1].seconds == 0.0

    def test_dedup_without_cache(self):
        runner = Runner(cache=None)
        results = runner.run([SYNTH_53, SYNTH_53])
        assert runner.last_stats["executed"] == 1
        assert results[0].payload == results[1].payload

    def test_no_cache_runner_stores_nothing(self, tmp_path):
        Runner(cache=None).run([SYNTH_53])
        assert list(tmp_path.iterdir()) == []

    def test_payloads_match_direct_execution(self, tmp_path):
        """Runner results are the JSON-normalised interpreter payloads."""
        import json

        direct = json.loads(json.dumps(execute_request(SYNTH_53)))
        result = Runner(cache=ResultCache(tmp_path)).run([SYNTH_53])[0]
        assert result.payload == direct

    def test_parallel_matches_sequential(self, tmp_path):
        requests = [SYNTH_53, SYNTH_97,
                    _layers_request(), _layers_request("layers:2", 2)]
        sequential = Runner(jobs=1, cache=None).run(requests)
        parallel = Runner(jobs=2, cache=None).run(requests)
        assert [r.payload for r in parallel] == [r.payload for r in sequential]

    def test_corrupt_cache_entry_reruns(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(cache=cache)
        first = runner.run([SYNTH_53])[0]
        path = tmp_path / f"{first.key.key}.json"
        path.write_text("garbage")
        again = Runner(cache=ResultCache(tmp_path))
        second = again.run([SYNTH_53])[0]
        assert not second.cached
        assert second.payload == first.payload


def _no_pool(*args, **kwargs):
    raise AssertionError("the runner constructed a ProcessPoolExecutor")


#: Where :func:`_counting_execute` logs executions; set per test, and
#: inherited by forked pool workers.
_EXECUTION_LOG = None


def _counting_execute(request):
    """A ``timed_execute`` stand-in: logs the cell, then fails it."""
    with open(_EXECUTION_LOG, "a", encoding="utf-8") as log:
        log.write(request.rid + "\n")
    if request.rid == "synth:idwt53":
        raise ValueError("a cell's own error")
    return {"rid": request.rid}, 0.0


class TestWorkerCount:
    def test_default_is_one_worker_per_host_cpu(self):
        assert Runner().jobs == host.host_cpus()

    def test_single_cpu_host_never_constructs_a_pool(self, monkeypatch):
        monkeypatch.setattr(host, "host_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        runner = Runner(cache=None)
        runner.run([SYNTH_53, SYNTH_97])
        assert runner.last_stats["executed"] == 2
        assert runner.last_stats["jobs"] == 1

    def test_warm_batch_never_constructs_a_pool(self, tmp_path, monkeypatch):
        Runner(jobs=1, cache=ResultCache(tmp_path)).run([SYNTH_53, SYNTH_97])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        warm = Runner(jobs=2, cache=ResultCache(tmp_path))
        assert all(result.cached for result in warm.run([SYNTH_53, SYNTH_97]))
        assert warm.last_stats["jobs"] == 1
        assert warm.last_stats["execute_s"] == {}

    def test_pool_stats_report_workers_and_kind_seconds(self, pool_workers):
        runner = Runner(jobs=4, cache=None)
        runner.run([SYNTH_53, SYNTH_97])
        # Never more workers than misses.
        assert runner.last_stats["jobs"] == pool_workers(2)
        assert set(runner.last_stats["execute_s"]) == {KIND_SYNTHESISE}
        assert runner.last_stats["execute_s"][KIND_SYNTHESISE] > 0

    def test_profile_cell_in_a_worker_decodes_inline(self, pool_workers):
        """A cell in a runner worker decodes with the default (inline)
        plan — pools never nest — so its ops and plan digest match the
        in-process run."""
        requests = [
            RunRequest(f"profile:{mode}", KIND_PROFILE,
                       {"size": 32, "tile": 16, "lossless": lossless,
                        "seed": 2008})
            for lossless, mode in ((True, "lossless"), (False, "lossy"))
        ]
        inline = Runner(jobs=1, cache=None).run(requests)
        pooled_runner = Runner(jobs=2, cache=None)
        pooled = pooled_runner.run(requests)
        assert pooled_runner.last_stats["jobs"] == pool_workers(2)
        assert [r.payload for r in pooled] == [r.payload for r in inline]
        assert all(r.payload["plan"] for r in pooled)

    def test_wrapped_timed_execute_still_pools(self, monkeypatch,
                                               pool_workers):
        """A tracer wraps ``timed_execute`` in the parent; the wrapper
        (unpicklable by reference) must not stop the pool."""
        original = runner_module.timed_execute

        @functools.wraps(original)
        def traced(request):
            return original(request)

        monkeypatch.setattr(runner_module, "timed_execute", traced)
        runner = Runner(jobs=2, cache=None)
        results = runner.run([SYNTH_53, SYNTH_97])
        assert runner.last_stats["jobs"] == pool_workers(2)
        assert [r.payload for r in results] == [
            r.payload for r in Runner(jobs=1, cache=None).run([SYNTH_53, SYNTH_97])
        ]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="relies on fork inheriting the patch")
    def test_failing_cell_runs_once(self, tmp_path, monkeypatch):
        """A cell's own exception is not a pool failure: it propagates
        after one execution, with no sequential rerun of the batch."""
        log = tmp_path / "executions.log"
        monkeypatch.setattr(sys.modules[__name__], "_EXECUTION_LOG", str(log))
        monkeypatch.setattr(runner_module, "timed_execute", _counting_execute)
        with pytest.raises(ValueError, match="a cell's own error"):
            Runner(jobs=2, cache=None).run([SYNTH_53, SYNTH_97])
        executions = log.read_text(encoding="utf-8").split()
        assert executions.count("synth:idwt53") == 1
        # Its sibling ran at most once: the pool may cancel it unstarted.
        assert executions.count("synth:idwt97") <= 1


class TestExperimentApi:
    def test_run_experiment_by_id(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        [outcome] = runner.sweep("table2")
        assert set(outcome.payloads) == {"synth:idwt53", "synth:idwt97"}
        tables = outcome.tables()
        assert set(tables) == {"table2_synthesis", "table2_ratios"}
        assert "FOSSY" in tables["table2_synthesis"].render()

    def test_sweep_deduplicates_across_experiments(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        outcomes = runner.sweep(["table2", "loc"])
        assert [o.experiment.id for o in outcomes] == ["table2", "loc"]
        # table2 and loc share both synthesis cells.
        assert runner.last_stats["executed"] == 2
        assert runner.last_stats["deduplicated"] == 2
        assert (
            outcomes[0].payloads["synth:idwt53"]
            == outcomes[1].payloads["synth:idwt53"]
        )

    def test_sweep_accepts_group_name(self, monkeypatch):
        # Stub execution: this checks group expansion and result fan-in,
        # not the (expensive) Table 1 simulations themselves.
        monkeypatch.setattr(
            Runner, "_execute",
            lambda self, reqs: ([({"stub": r.rid}, 0.0) for r in reqs], 1),
        )
        runner = Runner(cache=None)
        outcomes = runner.sweep("table1")
        assert [o.experiment.id for o in outcomes] == [
            "table1_application_layer", "table1_vta_layer",
        ]
        assert all(len(o.results) == 10 for o in outcomes)
        # The two halves share the v1/v3 lossless cells.
        assert runner.last_stats["deduplicated"] == 2


class TestRegistryScoping:
    """Engine runs must not leak metrics into an ambient recorder."""

    def test_simulation_run_leaves_ambient_registry_untouched(self, tmp_path):
        from repro import telemetry
        from repro.experiments import KIND_SIMULATE

        request = RunRequest("sim:2:lossless", KIND_SIMULATE,
                             {"version": "2", "lossless": True})
        with telemetry.session(spans=True) as outer:
            ambient = outer.recorder
            ambient.metrics.count("test.sentinel", 3)
            before = ambient.metrics.as_dict()
            Runner(jobs=1, cache=ResultCache(tmp_path)).run([request])
            assert telemetry.active() is ambient
            assert ambient.metrics.as_dict() == before
            warm = Runner(cache=ResultCache(tmp_path)).run([request])[0]
            assert warm.cached
            assert telemetry.active() is ambient
            assert ambient.metrics.as_dict() == before

    def test_warm_sweep_leaves_ambient_registry_untouched(self, tmp_path):
        from repro import telemetry

        Runner(cache=ResultCache(tmp_path)).sweep(["table2", "loc"])
        with telemetry.session(spans=True) as outer:
            ambient = outer.recorder
            before = ambient.metrics.as_dict()
            runner = Runner(cache=ResultCache(tmp_path))
            runner.sweep(["table2", "loc"])
            assert runner.last_stats["executed"] == 0  # fully warm
            assert telemetry.active() is ambient
            assert ambient.metrics.as_dict() == before
