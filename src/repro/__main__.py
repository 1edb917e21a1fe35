"""Command-line entry point: ``python -m repro <experiment>``.

Regenerates any paper artefact from the terminal without writing a
script — the quick path for anyone auditing the reproduction.  The
paper's tables come only from the experiment registry: ``sweep`` prints
them (``sweep paper``, ``sweep table1``, ...) and ``results`` writes or
checks them under ``results/``, both served from the result cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _cmd_versions(args) -> int:
    from .design import catalog
    from .reporting import Table

    table = Table(
        ["ver", "model", "mapping"],
        title="Registered design descriptions (src/repro/design/catalog.py)",
    )
    for name in catalog.names():
        spec = catalog.get(name)
        if name == "6a":
            table.add_separator()
        table.add_row(name, spec.label, spec.summary())
    print(table.render())
    return 0


def _load_specs_from_file(path: str):
    """Load DesignSpec objects from a python file's SPEC/SPECS globals."""
    import runpy

    namespace = runpy.run_path(path, run_name="<repro-validate>")
    specs = []
    if "SPECS" in namespace:
        specs.extend(namespace["SPECS"])
    if "SPEC" in namespace:
        specs.append(namespace["SPEC"])
    if not specs:
        raise SystemExit(
            f"{path} defines neither SPEC nor SPECS; expose the DesignSpec "
            "to validate under one of those names"
        )
    return specs


def _cmd_validate(args) -> int:
    from .design import catalog, validate_spec

    if args.target == "all":
        specs = [catalog.get(name) for name in catalog.names()]
    elif args.target in catalog.names():
        specs = [catalog.get(args.target)]
    elif args.target.endswith(".py"):
        specs = _load_specs_from_file(args.target)
    else:
        raise SystemExit(
            f"unknown target {args.target!r}: expected a version id "
            f"({', '.join(catalog.names())}), 'all', or a path to a .py "
            "file exposing SPEC/SPECS"
        )
    failures = 0
    for spec in specs:
        errors = validate_spec(spec)
        if errors:
            failures += 1
            print(f"INVALID  {spec.name} ({spec.label})")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"OK       {spec.name} ({spec.label}): {spec.summary()}")
    return 1 if failures else 0


def _cmd_run(args) -> int:
    """Simulate one design version, or ``decode`` with the software
    pipeline, in one telemetry session; the flags choose what it records."""
    import json

    if args.target == "decode":
        if args.functional:
            args.usage_error("--functional applies to design versions only")
        run, payload = _run_decode(args)
    else:
        if (args.size, args.kernel, args.workers) != (None, None, None):
            args.usage_error("--size, --kernel and --workers apply to "
                             "'run decode' only")
        run, payload = _run_version(args)
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif args.trace:
        print(f"wrote {len(run.recorder.spans)} spans to {args.trace} "
              "(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _run_version(args):
    """Simulate one catalogued version; returns ``(session, payload)``."""
    import time

    from . import telemetry
    from .casestudy.workload import functional_workload, paper_workload
    from .design import catalog, elaborate_design
    from .experiments.fingerprint import spec_hash
    from .kernel.tracing import SimProfiler
    from .telemetry.export import aggregate, flame_summary, stage_shares

    name = args.target
    mode = "lossy" if args.lossy else "lossless"
    workload = functional_workload if args.functional else paper_workload
    with telemetry.session(
        "simulate", f"{name}/{mode}", spans=args.profile,
        events=args.events, trace=args.trace,
    ) as run:
        # Built inside the session: a Simulator binds the active span
        # recorder when it is constructed.
        model = elaborate_design(catalog.get(name), workload(not args.lossy))
        profiler = SimProfiler(model.sim) if args.profile else None
        start = time.perf_counter()
        report = model.run()
        run.fields.update(
            spec_hash=spec_hash(model.spec),
            wall_seconds=time.perf_counter() - start,
            decode_ms=report.decode_ms,
        )
    recorder = run.recorder
    payload = {
        "version": name,
        "mode": report.mode,
        "decode_ms": report.decode_ms,
        "idwt_ms": report.idwt_ms,
    }
    if args.profile:
        payload.update(
            profile=profiler.as_dict(),
            metrics=recorder.metrics.as_dict(),
            stage_shares=stage_shares(recorder),
            spans=aggregate(recorder),
        )
        if recorder.design is not None:
            payload["design"] = recorder.design
    if args.json:
        return run, payload
    print(report)
    if args.functional and report.image is not None:
        print("functional decode produced an image "
              f"({report.image.width}x{report.image.height})")
    if args.profile:
        print()
        print(profiler.report())
        if payload["stage_shares"]:
            print("# per-stage share of simulated stage time (cf. Fig. 1)")
            _print_shares(payload["stage_shares"])
            print()
        print(flame_summary(recorder))
    return run, payload


def _print_shares(shares: dict) -> None:
    for stage, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{stage:<12} {100.0 * share:6.2f}%")


def _run_decode(args):
    """Decode the paper workload through the chosen schedule; returns
    ``(session, payload)``.  With ``--profile`` it reports each pipeline
    stage's share of wall time, the decode analogue of Fig. 1."""
    import time
    import warnings

    from . import telemetry
    from .casestudy.workload import PAPER_COMPONENTS, PAPER_LEVELS, paper_coding
    from .jpeg2000 import (
        DecodeOptions,
        Jpeg2000Decoder,
        encode_image,
        shutdown_pool,
        synthetic_image,
    )
    from .telemetry.export import stage_shares

    size = 512 if args.size is None else args.size
    tile = min(128, size)
    mode = "lossy" if args.lossy else "lossless"
    # Encoded before the session opens: the encoder is not the profile.
    codestream = encode_image(
        synthetic_image(size, size, PAPER_COMPONENTS, seed=2008),
        paper_coding(size, tile, lossless=not args.lossy),
    )
    options = DecodeOptions(kernel=args.kernel or "native",
                            workers=args.workers or 0)
    with telemetry.session(
        "decode", f"{size}x{size}/{mode}", spans=args.profile,
        events=args.events, trace=args.trace,
    ) as run:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decoder = Jpeg2000Decoder(codestream, options=options)
            start = time.perf_counter()
            decoder.decode()
            elapsed = time.perf_counter() - start
            shutdown_pool()
        schedule = decoder.schedule
        run.fields.update(
            schedule=schedule,
            plan_hash=decoder.plan.digest(),
            wall_seconds=elapsed,
            **decoder.fates.health(),
        )
    payload = {
        "workload": f"{size}x{size} RGB synthetic (seed 2008), "
                    f"tile {tile}, {PAPER_LEVELS} levels",
        "mode": mode,
        "seconds": round(elapsed, 4),
        "schedule": schedule,
        "plan": decoder.plan.digest(),
    }
    if args.profile:
        payload["stage_shares"] = {
            k: round(v, 4) for k, v in stage_shares(run.recorder).items()
        }
    if not args.json:
        wavelet = "lossy (9/7)" if args.lossy else "lossless (5/3)"
        print(f"# decode - {size}x{size} {wavelet}, "
              f"kernel={schedule['kernel']}, tier2={schedule['tier2']}, "
              f"workers={schedule['effective_workers']}, "
              f"threads={schedule['threads']}")
        print(f"wall time: {elapsed:.3f} s")
        _print_shares(payload.get("stage_shares", {}))
    return run, payload


def _cmd_plan(args) -> int:
    """Compile and print the decode plan for a schedule.

    Byte-deterministic output (the human-readable table, then the
    canonical JSON the digest hashes), so transcripts can be diffed and
    CI can pin them.  ``--cpus`` overrides the detected CPU count to
    answer "what would this host compile?".
    """
    import dataclasses

    from . import telemetry
    from .jpeg2000.options import DecodeOptions
    from .jpeg2000.plan import PlanEnvironment, compile_plan

    options = DecodeOptions(
        workers=args.workers,
        chunk_size=args.chunk_size,
        kernel=args.kernel,
        start_method=args.start_method,
        oversubscribe=args.oversubscribe,
        tier2=args.tier2,
    )
    env = PlanEnvironment.detect()
    if args.cpus is not None:
        env = dataclasses.replace(env, cpu_count=args.cpus)
    with telemetry.session("plan", "decode") as run:
        plan = compile_plan(options, env)
        run.fields.update(
            plan_hash=plan.digest(),
            options=options.as_dict(),
            environment=dataclasses.asdict(env),
        )
    if not args.json:
        print(plan.describe())
        print()
    print(plan.canonical_json())
    return 0


def _make_runner(args):
    """A :class:`Runner` from the shared sweep/results CLI options."""
    from .experiments import ResultCache, Runner

    # A cache_dir of None means the default location.
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return Runner(jobs=args.jobs, cache=cache)


def _selected_experiments(tokens):
    from .experiments import registry

    try:
        return registry.expand(tokens)
    except KeyError as error:
        raise SystemExit(str(error.args[0]) if error.args else str(error))


def _runner_stats(runner) -> dict:
    """The runner's last batch counters plus its cache's."""
    stats = dict(runner.last_stats)
    if runner.cache is not None:
        stats.update(runner.cache.stats())
    return stats


def _cmd_sweep(args) -> int:
    import time

    from . import telemetry

    experiments = _selected_experiments(args.experiments)
    runner = _make_runner(args)
    with telemetry.session("sweep", ",".join(args.experiments),
                           events=args.events) as run:
        start = time.perf_counter()
        tables = [
            table.render()
            for outcome in runner.sweep(experiments)
            for table in outcome.tables().values()
        ]
        stats = _runner_stats(runner)
        run.fields.update(wall_seconds=time.perf_counter() - start,
                          batch=stats)
    # Printed once the session has closed: a reader that goes away early
    # ends the command, not the recorded run.
    for table in tables:
        print(table)
    print("# " + ", ".join(f"{key}={value}" for key, value in sorted(stats.items())))
    return 0


def _cmd_results(args) -> int:
    import time

    from . import telemetry
    from .experiments import artifacts

    if not (args.regen or args.check):
        raise SystemExit("results: pass --regen and/or --check")
    experiments = _selected_experiments(args.experiments) if args.experiments else None
    runner = _make_runner(args)
    with telemetry.session("results", ",".join(args.experiments or ["all"])) as run:
        start = time.perf_counter()
        files = artifacts.render_artifacts(experiments, runner=runner)
        run.fields.update(wall_seconds=time.perf_counter() - start,
                          batch=_runner_stats(runner))
    out_dir = Path(args.out) if args.out else artifacts.results_dir()

    status = 0
    if args.check:
        # Diff against the committed files *before* any rewrite, so
        # '--regen --check' proves reproducibility and refreshes.
        drift = artifacts.diff_files(files, out_dir,
                                     complete=experiments is None)
        sys.stdout.writelines(drift)
        if drift:
            status = 1
        else:
            print(f"OK: {len(files)} artifact files reproduce byte-identically")
    if args.regen:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (out_dir / name).write_text(content, encoding="utf-8")
        print(f"wrote {len(files)} files to {out_dir}")
    return status


def _cmd_experiments(args) -> int:
    from .experiments import registry
    from .reporting import Table

    table = Table(
        ["id", "category", "requests", "artefacts", "title"],
        title="Registered experiments (src/repro/experiments/defs.py)",
    )
    for entry in registry.all_experiments():
        table.add_row(
            entry.id,
            entry.category,
            len(entry.requests()),
            " ".join(entry.artefacts),
            entry.title,
        )
    print(table.render())
    print("groups: " + ", ".join(
        f"{name} ({len(members)})"
        for name, members in sorted(registry.GROUPS.items())
    ))
    return 0


def _cmd_ledger(args) -> int:
    import json

    from .telemetry import ledger

    records = ledger.read_ledger(args.path)
    if args.action == "list":
        if not records:
            print("ledger is empty")
            return 0
        from .reporting import Table

        table = Table(
            ["#", "run id", "kind", "label", "wall [s]", "flags"],
            title=f"Run ledger ({len(records)} records)",
        )
        for index, record in enumerate(records):
            flags = ",".join(
                flag for flag in ("degraded", "resumed")
                if record.get(flag)
            ) or "-"
            table.add_row(
                index,
                str(record.get("run_id", "?"))[:16],
                record.get("kind", "?"),
                record.get("label", "?"),
                record.get("wall_seconds", "-"),
                flags,
            )
        print(table.render())
        return 0
    try:
        payload = ledger.find_record(records, args.token)
        if args.action == "diff":
            payload = ledger.diff_records(
                payload, ledger.find_record(records, args.other)
            )
    except LookupError as error:
        raise SystemExit(str(error))
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OSSS/FOSSY JPEG 2000 decoder reproduction (DATE 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .design import catalog

    version_names = catalog.names()

    def add_events_option(sub_parser):
        sub_parser.add_argument("--events", default=None, metavar="PATH",
                                help="write the structured event log of "
                                "this run as JSON lines to PATH")

    p_run = sub.add_parser(
        "run", help="simulate one design version, or 'decode' with the "
        "software pipeline, under one telemetry session")
    p_run.add_argument("target", choices=version_names + ["decode"])
    p_run.add_argument("--lossy", action="store_true", help="9/7 mode (default: 5/3)")
    p_run.add_argument("--functional", action="store_true",
                       help="versions: really decode through the model")
    p_run.add_argument("--size", type=int, default=None,
                       help="decode: square workload size "
                       "(default 512, the paper's 16-tile workload)")
    p_run.add_argument("--kernel", default=None,
                       choices=["native", "reference"],
                       help="decode: Tier-1 kernel (default native)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="decode: worker processes (default 0)")
    add_events_option(p_run)
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome/Perfetto trace to PATH")
    p_run.add_argument("--profile", action="store_true",
                       help="report per-process and per-stage profiles")
    p_run.add_argument("--json", action="store_true",
                       help="print the result as JSON instead of tables")
    p_run.set_defaults(func=_cmd_run, usage_error=p_run.error)

    p_versions = sub.add_parser(
        "versions", help="list the registered design descriptions")
    p_versions.set_defaults(func=_cmd_versions)

    p_validate = sub.add_parser(
        "validate", help="statically validate a design description")
    p_validate.add_argument(
        "target",
        help="version id, 'all', or a .py file exposing SPEC/SPECS")
    p_validate.set_defaults(func=_cmd_validate)

    p_plan = sub.add_parser(
        "plan", help="compile and print the decode plan for a "
        "schedule (no decode runs)")
    p_plan.add_argument("target", choices=["decode"],
                        help="what to plan (only 'decode' today)")
    p_plan.add_argument("--workers", default=0, metavar="N",
                        type=lambda value:
                        None if value == "auto" else int(value),
                        help="worker processes; 0 = sequential, "
                        "'auto' = one per CPU (default 0)")
    p_plan.add_argument("--chunk-size", type=int, default=8,
                        help="max code blocks per work unit (default 8)")
    p_plan.add_argument("--kernel", default="native",
                        choices=["native", "reference"],
                        help="Tier-1 kernel (default native)")
    p_plan.add_argument("--tier2", default="fast",
                        choices=["fast", "reference"],
                        help="Tier-2 parser (default fast)")
    p_plan.add_argument("--start-method", default=None,
                        choices=["fork", "spawn", "forkserver"],
                        help="pool start method (default: platform)")
    p_plan.add_argument("--oversubscribe", action="store_true",
                        help="allow more workers than CPUs")
    p_plan.add_argument("--cpus", type=int, default=None,
                        help="plan for a host with N CPUs "
                        "(default: detect)")
    p_plan.add_argument("--json", action="store_true",
                        help="print only the canonical plan JSON")
    p_plan.set_defaults(func=_cmd_plan)

    def add_runner_options(sub_parser):
        sub_parser.add_argument("--jobs", type=int, default=None,
                                help="worker processes for cache misses; "
                                "0 or 1 run in-process (default: one per "
                                "available CPU)")
        sub_parser.add_argument("--no-cache", action="store_true",
                                help="recompute every cell; store nothing")
        sub_parser.add_argument("--cache-dir", default=None,
                                help="result cache location (default: "
                                ".repro_cache/, or $REPRO_CACHE_DIR)")

    p_sweep = sub.add_parser(
        "sweep", help="run experiments from the registry (cached, parallel)")
    p_sweep.add_argument("experiments", nargs="+",
                         help="experiment ids and/or groups "
                         "(e.g. 'table1', 'ablations', 'all')")
    add_runner_options(p_sweep)
    add_events_option(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_results = sub.add_parser(
        "results", help="regenerate/verify the results/ artifact files")
    p_results.add_argument("--regen", action="store_true",
                           help="rewrite every artifact file")
    p_results.add_argument("--check", action="store_true",
                           help="diff regenerated content against results/ "
                           "(exit 1 on drift)")
    p_results.add_argument("--experiments", nargs="+", default=None,
                           help="restrict to these experiment ids/groups "
                           "(default: the full registry)")
    p_results.add_argument("--out", default=None,
                           help="artifact directory (default: results/)")
    add_runner_options(p_results)
    p_results.set_defaults(func=_cmd_results)

    p_exps = sub.add_parser(
        "experiments", help="list the registered experiments and groups")
    p_exps.set_defaults(func=_cmd_experiments)

    p_ledger = sub.add_parser(
        "ledger", help="inspect the run ledger (.repro/ledger.jsonl)")
    p_ledger.add_argument("action", choices=["list", "show", "diff"],
                          nargs="?", default="list")
    p_ledger.add_argument("token", nargs="?", default="-1",
                          help="record: index or run-id prefix "
                          "(default: -1, the newest)")
    p_ledger.add_argument("other", nargs="?", default="-1",
                          help="diff only: the second record")
    p_ledger.add_argument("--path", default=None,
                          help="ledger file (default: .repro/ledger.jsonl, "
                          "or $REPRO_LEDGER_PATH)")
    p_ledger.set_defaults(func=_cmd_ledger)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head``): send the output still
        # buffered to devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
