"""Run the ``repro`` command line with the benchmark's spans installed.

The traced stand-in for ``python -m repro ARGS...``: it imports the CLI
under a span, wraps the experiment engine's public entry points, runs
the command, and writes the per-layer totals as JSON to OUT::

    python perfbench/cli_probe.py OUT results --check

The exit status is the command's own.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer
from worker import DECODE_STAGES, install_decode_spans

#: Request kinds of the experiment engine, one busy-time metric each.
REQUEST_KINDS = ("simulate", "profile", "layers", "synthesise", "wallclock")


def install(tracer: Tracer) -> None:
    from repro.experiments import cache, fingerprint, runner
    from repro.jpeg2000 import encoder
    from repro.reporting import tables
    from repro.telemetry import ledger

    def loaded(entry, *args, **kwargs):
        tracer.count("experiments.cache.loads")
        if entry is not None:
            tracer.count("experiments.cache.hits")

    def stored(result, *args, **kwargs):
        tracer.count("experiments.cache.stores")

    def batch(result, runner_self, *args, **kwargs):
        stats = runner_self.last_stats
        tracer.count("experiments.executed", stats.get("executed", 0))
        tracer.count("experiments.deduplicated", stats.get("deduplicated", 0))

    tracer.wrap(fingerprint, "code_fingerprint", "experiments.fingerprint")
    tracer.wrap(runner, "timed_execute",
                lambda request: f"experiments.execute.{request.kind}")
    tracer.wrap(encoder.Jpeg2000Encoder, "encode", "jpeg2000.encode")
    tracer.wrap(cache.ResultCache, "load", "experiments.cache.load",
                after=loaded)
    tracer.wrap(cache.ResultCache, "store", "experiments.cache.store",
                after=stored)
    tracer.wrap(runner.Runner, "run", None, after=batch)
    tracer.wrap(tables.Table, "render", "reporting.render")
    tracer.wrap(tables.Table, "to_csv", "reporting.render")
    tracer.wrap(ledger, "append_record", "telemetry.ledger")
    # The Fig. 1 profile and layer-ablation requests decode for real.
    install_decode_spans(tracer)


def layers(tracer: Tracer, root: int) -> dict:
    totals = tracer.totals(root)
    own = tracer.self_totals(root)
    metrics = {
        "cli.import_s": totals.get("cli.import", 0.0),
        "experiments.fingerprint_s": totals.get("experiments.fingerprint", 0.0),
        "jpeg2000.encode.busy_s": totals.get("jpeg2000.encode", 0.0),
        "experiments.cache.store_s": totals.get("experiments.cache.store", 0.0),
        "experiments.cache.load_s": totals.get("experiments.cache.load", 0.0),
        "reporting.render_s": totals.get("reporting.render", 0.0),
        "telemetry.ledger_s": totals.get("telemetry.ledger", 0.0),
        # What the root's direct children cover; run.py subtracts it from
        # the op's wall time (interpreter start included) for cli.other.
        "covered_s": totals["op"] - own["op"],
    }
    for stage in DECODE_STAGES:
        metrics[f"jpeg2000.{stage}.busy_s"] = totals.get(f"jpeg2000.{stage}", 0.0)
    for kind in REQUEST_KINDS:
        metrics[f"experiments.execute.{kind}.busy_s"] = totals.get(
            f"experiments.execute.{kind}", 0.0
        )
    for name in ("jpeg2000.codeblocks", "jpeg2000.codeword_bytes",
                 "experiments.cache.loads", "experiments.cache.hits",
                 "experiments.cache.stores", "experiments.executed",
                 "experiments.deduplicated"):
        metrics[name] = tracer.counts.get(name, 0)
    loads = metrics.pop("experiments.cache.loads")
    metrics["experiments.cache.hit_ratio"] = (
        metrics["experiments.cache.hits"] / loads if loads else 0.0
    )
    return metrics


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("op"):
            # The CLI module and the engine modules the command imports.
            with tracer.span("cli.import"):
                from repro import __main__ as cli

                install(tracer)
            status = cli.main(argv)
    finally:
        tracer.restore()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(layers(tracer, 0), handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
