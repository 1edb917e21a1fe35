"""The measured process of the in-process workloads (``decode``, ``table1``).

One client, one op in flight: the worker sets up (imports, input
loading, one warm-up op), writes the moment it became ready, then runs
ops back to back until ``--seconds`` have passed, and at least one.
Every op's output is checked; checking is not timed.

With ``--trace 1`` the first half of the time runs untraced ops and
the second half traced ones, so the same process yields both sides of
the tracing-overhead ratio.  With ``--setup-only`` the worker exits as
soon as it is ready (``run.py`` repeats set-up that way and reports the
median).

    python perfbench/worker.py --workload decode --inputs DIR \\
        --seed 0 --seconds 10 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from tracer import NullTracer, Tracer, enclosing_attr, subtree

ROOT = Path(__file__).resolve().parent.parent
MODES = ("lossless", "lossy")
#: The decoder's basic-operation count stages (``StageOps``).
OP_STAGES = ("arith", "iq", "idwt", "ict", "dc")


#: The decode-stage spans, one per stage module of ``repro.jpeg2000``.
DECODE_STAGES = ("parse", "entropy", "reconstruct", "assemble")


def install_decode_spans(tracer: Tracer) -> None:
    """Span the calls the decode driver makes into each stage module.

    Parsing also counts code blocks and codeword bytes off its result.
    """
    from repro.jpeg2000.stages import assemble, entropy, parse, reconstruct

    def count_blocks(result, *args, **kwargs):
        _, specs = result
        tracer.count("jpeg2000.codeblocks", len(specs))
        tracer.count("jpeg2000.codeword_bytes", sum(
            end - start for spec in specs for start, end in spec.segments
        ))

    tracer.wrap(parse, "entropy_specs", "jpeg2000.parse", after=count_blocks)
    tracer.wrap(entropy, "run_specs", "jpeg2000.entropy")
    tracer.wrap(entropy, "open_stream", "jpeg2000.entropy")
    for method in ("submit_tile", "drain_tile", "close"):
        tracer.wrap(entropy.SpecStream, method, "jpeg2000.entropy")
    for function in ("scatter_entropy", "finish_tiles"):
        tracer.wrap(reconstruct, function, "jpeg2000.reconstruct")
    for function in ("assemble_full", "assemble_reduced"):
        tracer.wrap(assemble, function, "jpeg2000.assemble")


class DecodeWorkload:
    """One op decodes the 4-tile image twice: lossless, then lossy."""

    def __init__(self, inputs: Path, seed: int):
        self.inputs = inputs

    def setup(self) -> None:
        import numpy as np

        from repro import jpeg2000

        self.np = np
        self.jpeg2000 = jpeg2000
        self.streams = [
            (mode, (self.inputs / f"{mode}.j2k").read_bytes()) for mode in MODES
        ]
        self.source = np.load(self.inputs / "source.npy")
        self.lossy_reference = np.load(self.inputs / "lossy_reference.npy")
        self.reference_ops = {
            mode: json.loads((self.inputs / f"{mode}_ops.json").read_text())
            for mode in MODES
        }
        warmup = [
            (mode, (self.inputs / f"warmup_{mode}.j2k").read_bytes())
            for mode in MODES
        ]
        self.decode_pair(warmup, NullTracer())

    def decode_pair(self, streams, tracer) -> dict:
        decoded = {}
        for mode, data in streams:
            with tracer.span(f"jpeg2000.{mode}"):
                with tracer.span("jpeg2000.open"):
                    decoder = self.jpeg2000.Jpeg2000Decoder(data)
                image = decoder.decode()
            decoded[mode] = (decoder, image)
        return decoded

    def op(self, tracer) -> dict:
        return self.decode_pair(self.streams, tracer)

    def check(self, decoded) -> list:
        np = self.np
        problems = []
        _, lossless = decoded["lossless"]
        if not np.array_equal(np.stack(lossless.components), self.source):
            problems.append("lossless decode differs from the source image")
        _, lossy = decoded["lossy"]
        samples = np.stack(lossy.components)
        if (samples.dtype != self.lossy_reference.dtype
                or samples.tobytes() != self.lossy_reference.tobytes()):
            problems.append("lossy decode differs from the reference-plan decode")
        for mode in MODES:
            decoder, _ = decoded[mode]
            if dict(decoder.ops.counts) != self.reference_ops[mode]:
                problems.append(f"{mode} op counts differ from the reference plan")
        return problems

    def counts(self, decoded) -> dict:
        counts = {f"jpeg2000.ops.{stage}": 0 for stage in OP_STAGES}
        rewrites = 0
        for decoder, _ in decoded.values():
            for stage in OP_STAGES:
                counts[f"jpeg2000.ops.{stage}"] += decoder.ops.counts[stage]
            rewrites += sum(
                len(fate["rewrites"]) for fate in decoder.fates.fates.values()
            )
        counts["jpeg2000.rewrites"] = rewrites
        return counts

    def install(self, tracer: Tracer) -> None:
        install_decode_spans(tracer)

    def layers(self, tracer: Tracer, root: int) -> dict:
        totals = tracer.totals(root)
        own = tracer.self_totals(root)
        metrics = {
            f"jpeg2000.{layer}.busy_s": totals.get(f"jpeg2000.{layer}", 0.0)
            for layer in ("open", *DECODE_STAGES, *MODES)
        }
        metrics["jpeg2000.other.busy_s"] = sum(
            own.get(name, 0.0)
            for name in ("op", "jpeg2000.lossless", "jpeg2000.lossy")
        )
        return metrics

    def close(self) -> None:
        self.jpeg2000.shutdown_pool()


def _committed_rows(stem: str) -> list:
    with open(ROOT / "results" / f"{stem}.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def _table1_expected() -> dict:
    """(version, quantity, mode) -> the committed Table 1 cell text."""
    expected = {}
    for stem in ("table1_application_layer", "table1_vta_layer"):
        for row in _committed_rows(stem):
            for quantity in ("decode", "IDWT"):
                for mode in MODES:
                    cell = row[f"{quantity} {mode} [ms]"]
                    expected[row["version"], quantity, mode] = cell
    return expected


def _bus_traffic_expected() -> dict:
    """version -> the committed OPB traffic row (lossless runs)."""
    return {row["version"]: row
            for row in _committed_rows("table1_vta_bus_traffic")}


def check_bus_traffic(version: str, stats, expected: dict) -> list:
    """*stats* (a lossless run's OPB ``ChannelStats``) against the
    committed row, cell by cell at the printed precision."""
    from repro.reporting.tables import CHANNEL_TRAFFIC_COLUMNS, channel_traffic_row

    row = expected.get(version)
    if row is None:
        return [f"{version} has OPB traffic but no committed row"]
    problems = []
    cells = channel_traffic_row(version, stats, polls=row["polls"])
    for column, value in zip(CHANNEL_TRAFFIC_COLUMNS, cells):
        committed = row[column]
        shown = _printed(value, committed) if isinstance(value, float) else str(value)
        if shown != committed:
            problems.append(
                f"{version} OPB {column} {value!r} != committed {committed}"
            )
    return problems


def _printed(value: float, cell: str) -> str:
    """*value* at the printed precision of *cell*."""
    decimals = len(cell.partition(".")[2])
    return f"{value:.{decimals}f}"


#: SimProfiler process groups: ``(metric, member(process name, SO arbiters))``.
#: Bus channels spawn ``<channel>.arbiter`` processes too; only the
#: Shared Objects' own arbiters count as Shared-Object time.
PROCESS_GROUPS = (
    ("casestudy.sw_tasks.busy_s", lambda name, so: name.startswith("sw")),
    ("casestudy.hw_blocks.busy_s", lambda name, so: name.startswith("idwt")),
    ("core.so.busy_s", lambda name, so: name in so),
)


class Table1Workload:
    """One op simulates the 9 catalog versions x 2 modes (Table 1)."""

    def __init__(self, inputs, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.casestudy import explorer
        from repro.casestudy.workload import paper_workload

        self.explorer = explorer
        self.cells = [
            (version, lossless)
            for version in explorer.ALL_VERSIONS
            for lossless in (True, False)
        ]
        random.Random(self.seed).shuffle(self.cells)
        self.expected = _table1_expected()
        self.bus_traffic = _bus_traffic_expected()
        # Warm-up: every cell once on a quarter of the paper workload.
        for version, lossless in self.cells:
            quarter = dataclasses.replace(paper_workload(lossless), num_tiles=4)
            explorer.run_version(version, lossless, workload=quarter)
        self.profilers: list = []
        self.so_arbiters: set = set()

    def op(self, tracer) -> list:
        self.profilers.clear()
        reports = []
        for version, lossless in self.cells:
            with tracer.span("cell", version=version):
                reports.append(self.explorer.run_version(version, lossless))
        return reports

    def check(self, reports) -> list:
        problems = []
        for report in reports:
            for quantity, value in (("decode", report.decode_ms),
                                    ("IDWT", report.idwt_ms)):
                cell = self.expected.get((report.version, quantity, report.mode))
                if cell is None or _printed(value, cell) != cell:
                    problems.append(
                        f"{report.version} {report.mode} {quantity} "
                        f"{value!r} != committed {cell}"
                    )
            if report.mode == "lossless" and "opb" in report.details:
                problems.extend(check_bus_traffic(
                    report.version, report.details["opb"], self.bus_traffic))
        return problems

    def counts(self, reports) -> dict:
        transactions = wait_fs = grants = blocked = 0
        for report in reports:
            details = report.details
            if "opb" in details:
                transactions += details["opb"].transactions
                wait_fs += details["opb"].wait_fs
            for key in ("so", "params_so"):
                if key in details:
                    grants += details[key].grants
                    blocked += details[key].guard_blocked
        return {
            "vta.opb.transactions": transactions,
            "vta.opb.wait_fs": wait_fs,
            "core.so.guard_blocked": blocked,
            "core.so.grant_ratio": (
                grants / (grants + blocked) if grants + blocked else 0.0
            ),
        }

    def install(self, tracer: Tracer) -> None:
        from repro.design.elaborate import ElaboratedModel
        from repro.kernel.scheduler import Simulator
        from repro.kernel.tracing import SimProfiler

        def attach(result, sim, *args, **kwargs):
            self.profilers.append(SimProfiler(sim))

        def shared_objects(result, model, *args, **kwargs):
            for attr in ("shared_object", "params_so"):
                shared = getattr(model, attr, None)
                if shared is not None:
                    self.so_arbiters.add(f"{shared.name}.arbiter")

        tracer.wrap(ElaboratedModel, "__init__", "design.elaborate",
                    after=shared_objects)
        tracer.wrap(Simulator, "__init__", None, after=attach)
        tracer.wrap(Simulator, "run", "kernel.run")

    def layers(self, tracer: Tracer, root: int) -> dict:
        totals = tracer.totals(root)
        own = tracer.self_totals(root)
        run_s = totals.get("kernel.run", 0.0)
        metrics = {
            "design.elaborate.busy_s": totals.get("design.elaborate", 0.0),
            "kernel.run.busy_s": run_s,
            "casestudy.other.busy_s": own.get("op", 0.0) + own.get("cell", 0.0),
        }
        for version in self.explorer.ALL_VERSIONS:
            metrics[f"kernel.run.{version}.busy_s"] = 0.0
        for index in subtree(tracer.spans, root):
            span = tracer.spans[index]
            if span.name == "kernel.run":
                version = enclosing_attr(tracer.spans, index, "version")
                metrics[f"kernel.run.{version}.busy_s"] += span.seconds
        body_s = steps = deltas = 0
        for group, _ in PROCESS_GROUPS:
            metrics[group] = 0.0
        for profiler in self.profilers:
            profile = profiler.as_dict()
            body_s += profile["total_seconds"]
            steps += profile["total_steps"]
            deltas += profile["delta_count"]
            for process in profile["processes"]:
                for group, member in PROCESS_GROUPS:
                    if member(process["name"], self.so_arbiters):
                        metrics[group] += process["seconds"]
        self.profilers.clear()
        metrics["kernel.self_s"] = run_s - body_s
        metrics["kernel.delta_cycles"] = deltas
        metrics["kernel.process_steps"] = steps
        metrics["kernel.host_us_per_step"] = 1e6 * run_s / steps if steps else 0.0
        return metrics

    def close(self) -> None:
        pass


WORKLOADS = {"decode": DecodeWorkload, "table1": Table1Workload}


def _cpu_seconds() -> float:
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def run_op(workload, tracer) -> dict:
    """Time one op and check its output.

    The output goes out of scope on return, so no op's output is alive
    while the next op runs.
    """
    traced = isinstance(tracer, Tracer)
    record = {"traced": traced, "problems": []}
    if traced:
        before = dict(tracer.counts)
        root = len(tracer.spans)
    began = time.perf_counter()
    try:
        if traced:
            with tracer.span("op"):
                result = workload.op(tracer)
        else:
            result = workload.op(tracer)
    except Exception as error:  # noqa: BLE001 - counted as a failed op
        record["seconds"] = time.perf_counter() - began
        record["problems"].append(f"{type(error).__name__}: {error}")
        return record
    record["seconds"] = time.perf_counter() - began
    record["problems"].extend(workload.check(result))
    record["counts"] = workload.counts(result)
    if traced:
        layers = workload.layers(tracer, root)
        for name, value in tracer.counts.items():
            layers[name] = value - before.get(name, 0)
        record["layers"] = layers
    return record


def run_phase(workload, tracer, seconds: float, records: list) -> None:
    """Run ops until *seconds* have passed, and at least one."""
    start = time.perf_counter()
    records.append(run_op(workload, tracer))
    while time.perf_counter() - start < seconds:
        records.append(run_op(workload, tracer))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        Path(args.inputs) if args.inputs else None, args.seed
    )
    workload.setup()
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        records: list = []
        cpu_before = _cpu_seconds()
        if args.trace:
            run_phase(workload, NullTracer(), args.seconds / 2, records)
            tracer = Tracer()
            workload.install(tracer)
            try:
                run_phase(workload, tracer, args.seconds / 2, records)
            finally:
                tracer.restore()
        else:
            run_phase(workload, NullTracer(), args.seconds, records)
        workload.close()
        result.update(
            ops=records,
            cpu_s_per_op=(_cpu_seconds() - cpu_before) / len(records),
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            children_rss_mb=(
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            ),
        )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
