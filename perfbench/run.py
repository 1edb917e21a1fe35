"""perfbench — the repository's benchmark, end to end and layer by layer.

One command runs one seeded workload against the public entry points of
``repro``, checks every output, and prints each metric by name with its
unit; the last line of standard output is one JSON object::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # every workload, one op each

Workloads (closed loop: one client, one op in flight):

``decode``
    One op decodes a 4-tile 256x256 RGB image (the paper's tiles and
    coding parameters) twice, from the lossless and from the lossy
    codestream, through ``Jpeg2000Decoder(data).decode()`` with the
    default plan.  The seed picks one of ``IMAGE_VARIANTS`` synthetic
    images; a generator process (``generate.py``) encodes it once per
    checkout and caches the codestreams and reference decodes under
    ``.perfbench_cache/``.
``table1``
    One op simulates the Table 1 matrix (9 catalog versions x lossless,
    lossy) through ``casestudy.explorer.run_version``; the seed permutes
    the cell order.
``regen-warm``
    Set-up is one cold ``python -m repro results --check`` in a fresh
    process against an empty result cache; it fills the cache.  One op
    is the same command against that filled cache, so the cache's write
    side is timed as set-up and its read side as the op.

End-to-end metrics (``--trace 0``): ``op_best_s`` (the fastest op's host
wall time: on a host whose speed drifts, the steadiest figure of the
op's cost), ``setup_s`` (what the program pays before its first timed op:
for ``decode`` and ``table1`` the median over repeated fresh processes
of imports, input loading and one warm-up op on a reduced input; for
``regen-warm`` the cold fill) and ``peak_rss_mb`` (the process that runs
the ops).  The report above the JSON line adds ``op_p50_s`` (median
host wall time per op), ``failed_ratio``, ``op_tail_s`` (runs of at
least 20 ops), the host facts and the isolation checks.

``--trace 1`` runs half the time untraced and half traced, and prints
the per-layer metrics of ``PER_LAYER``; on ``regen-warm`` the cold fill
is traced too and gives the metrics of ``COLD_LAYERS``.

Every child runs with ``REPRO_CACHE_DIR``, ``REPRO_LEDGER_PATH``,
``REPRO_CRASH_DIR`` and ``TMPDIR`` inside a per-run directory under
``.perfbench_tmp/``, removed at exit.  ``/dev/shm``, ``results/``,
``.repro/`` and ``git status`` are compared before and after the
workload; a difference fails one op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from stats import tail, tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
TMP = ROOT / ".perfbench_tmp"
PYTHON = sys.executable

#: Synthetic images the decode seed picks from (seed mod this).
IMAGE_VARIANTS = 3
#: Set-ups of ``decode`` and ``table1`` measured per run; ``setup_s`` is
#: their median.
SETUP_REPEATS = 5
#: A run kills any child still running this many seconds after the run
#: began, not counting time spent building the per-checkout caches.
RUN_BUDGET_S = 170.0
#: Building a variant's decode inputs may take this long; it happens on
#: the first run that needs them.
BUILD_TIMEOUT_S = 600.0
#: Fewest ops a measured ``regen-warm`` run makes, so ``op_tail_s`` has
#: enough samples however slow the host.
WARM_MIN_OPS = 20

END_TO_END = {"op_best_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_KERNEL_VERSIONS = ("1", "2", "3", "4", "5", "6a", "6b", "7a", "7b")
_REQUEST_KINDS = ("simulate", "profile", "layers", "synthesise", "wallclock")

#: Per-layer metrics of the traced run: name -> unit.  A layer that a
#: workload does not exercise reads 0 there.
PER_LAYER = {
    # decode
    **{f"jpeg2000.{layer}.busy_s": "s" for layer in (
        "open", "parse", "entropy", "reconstruct", "assemble", "other",
        "lossless", "lossy")},
    "jpeg2000.codeblocks": "count",
    "jpeg2000.codeword_bytes": "bytes",
    **{f"jpeg2000.ops.{stage}": "count"
       for stage in ("arith", "iq", "idwt", "ict", "dc")},
    "jpeg2000.rewrites": "count",
    "host.cpu_s": "s",
    "host.worker_rss_mb": "MB",
    # table1
    "design.elaborate.busy_s": "s",
    "kernel.run.busy_s": "s",
    **{f"kernel.run.{version}.busy_s": "s" for version in _KERNEL_VERSIONS},
    "kernel.self_s": "s",
    "casestudy.sw_tasks.busy_s": "s",
    "casestudy.hw_blocks.busy_s": "s",
    "core.so.busy_s": "s",
    "casestudy.other.busy_s": "s",
    "kernel.delta_cycles": "count",
    "kernel.process_steps": "count",
    "kernel.host_us_per_step": "us",
    "vta.opb.transactions": "count",
    "vta.opb.wait_fs": "fs",
    "core.so.guard_blocked": "count",
    "core.so.grant_ratio": "ratio",
    # regen-warm
    "cli.import_s": "s",
    "experiments.fingerprint_s": "s",
    **{f"experiments.execute.{kind}.busy_s": "s" for kind in _REQUEST_KINDS},
    "jpeg2000.encode.busy_s": "s",
    "experiments.cache.store_s": "s",
    "experiments.cache.stores": "count",
    "experiments.executed": "count",
    "experiments.deduplicated": "count",
    "experiments.cache.load_s": "s",
    "experiments.cache.hits": "count",
    "experiments.cache.hit_ratio": "ratio",
    "reporting.render_s": "s",
    "telemetry.ledger_s": "s",
    "cli.other.busy_s": "s",
    # every workload
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics that are exact counts: every traced op must repeat
#: them, and an op that does not fails.
EXACT_COUNTS = (
    "jpeg2000.codeblocks", "jpeg2000.codeword_bytes",
    *(f"jpeg2000.ops.{stage}" for stage in ("arith", "iq", "idwt", "ict", "dc")),
    "kernel.delta_cycles", "kernel.process_steps",
    "vta.opb.transactions", "vta.opb.wait_fs", "core.so.guard_blocked",
    "experiments.cache.stores", "experiments.executed",
    "experiments.deduplicated", "experiments.cache.hits",
)

#: Per-layer metrics of ``regen-warm`` that only its cold fill exercises
#: (a warm op reads them as 0); a traced run takes them from the fill.
COLD_LAYERS = (
    *(f"experiments.execute.{kind}.busy_s" for kind in _REQUEST_KINDS),
    "jpeg2000.encode.busy_s",
    *(f"jpeg2000.{stage}.busy_s"
      for stage in ("parse", "entropy", "reconstruct", "assemble")),
    "jpeg2000.codeblocks", "jpeg2000.codeword_bytes",
    "experiments.cache.store_s", "experiments.cache.stores",
    "experiments.executed", "experiments.deduplicated",
)


class SetupError(RuntimeError):
    """The workload could not reach its first op."""


@dataclass(frozen=True)
class Settings:
    """How one workload run measures."""

    seed: int
    seconds: float
    trace: bool
    setup_repeats: int


@dataclass
class Child:
    """A finished child process."""

    status: int
    spawned: float
    wall: float
    rss_mb: float
    stdout: str
    stderr: str

    def failure(self) -> Optional[str]:
        if self.status == 0:
            return None
        last = self.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit status {self.status}: {last[0]}"


class Sandbox:
    """The per-run directory every child reads and writes in."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        TMP.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
        (self.dir / "tmp").mkdir()
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(self.dir / "cache"),
            REPRO_LEDGER_PATH=str(self.dir / "ledger.jsonl"),
            REPRO_CRASH_DIR=str(self.dir / "crash"),
            TMPDIR=str(self.dir / "tmp"),
        )
        self.env = env
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.dir / f"{stem}-{self._serial}"

    def run(self, argv, env: Optional[dict] = None,
            timeout: Optional[float] = None) -> Child:
        """Run *argv* to completion; wall time and peak RSS via wait4.

        The child is killed at the run's deadline, or after *timeout*
        seconds when given.
        """
        if timeout is None:
            timeout = max(1.0, self.deadline - time.monotonic())
        out, err = self.path("stdout"), self.path("stderr")
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, stdout=stdout, stderr=stderr,
                env={**self.env, **(env or {})},
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            status=proc.returncode, spawned=spawned, wall=wall,
            rss_mb=usage.ru_maxrss / 1024,
            stdout=out.read_text(errors="replace"),
            stderr=err.read_text(errors="replace"),
        )

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


@dataclass
class Outcome:
    """What one workload run measured."""

    op_seconds: list = field(default_factory=list)
    traced_seconds: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: list = field(default_factory=list)
    setup_layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add_op(self, seconds: float, traced: bool, problems: list,
               layers: Optional[dict] = None) -> None:
        """Record one op; a traced op whose exact counts differ from the
        first traced op's fails."""
        problems = list(problems)
        if layers is not None:
            if self.layers:
                first = self.layers[0]
                problems.extend(
                    f"{name} = {layers[name]}, first traced op {first[name]}"
                    for name in EXACT_COUNTS
                    if name in layers and name in first
                    and layers[name] != first[name]
                )
            self.layers.append(layers)
        (self.traced_seconds if traced else self.op_seconds).append(seconds)
        self.problems.append(problems)


# -- decode inputs ------------------------------------------------------------


def _source_key(*paths: Path) -> str:
    """Digest of the Python sources under *paths* (files or directories)."""
    digest = hashlib.sha256()
    files = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def cached_dir(box: Sandbox, final: Path, build) -> tuple:
    """*final*, built once per checkout; returns ``(seconds, built now)``.

    ``build(staging)`` fills a staging directory and returns the seconds
    it took; the directory is renamed into place only when complete.
    The build does not count against the run's deadline.
    """
    marker = ".perfbench-built"
    if (final / marker).is_file():
        return json.loads((final / marker).read_text())["seconds"], False
    CACHE.mkdir(exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=CACHE))
    started = time.monotonic()
    try:
        seconds = build(staging)
        (staging / marker).write_text(json.dumps({"seconds": seconds}))
        try:
            staging.rename(final)
        except OSError:  # another run finished the same directory first
            pass
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        box.deadline += time.monotonic() - started
    return seconds, True


def ensure_inputs(box: Sandbox, variant: int, outcome: Outcome) -> Path:
    """The variant's input directory, generated the first time."""

    def generate(staging: Path) -> float:
        start = time.monotonic()
        procs = [
            subprocess.Popen(
                [PYTHON, str(HERE / "generate.py"), "--variant", str(variant),
                 "--mode", mode, "--out", str(staging)],
                cwd=ROOT, env=box.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            for mode in ("lossless", "lossy", "warmup")
        ]
        errors = []
        try:
            for proc in procs:
                _, stderr = proc.communicate(timeout=BUILD_TIMEOUT_S)
                if proc.returncode:
                    errors.append(stderr.decode(errors="replace").strip()[-300:])
        except subprocess.TimeoutExpired:
            errors.append(f"no result after {BUILD_TIMEOUT_S:g} s")
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        if errors:
            raise SetupError("input generator failed: " + " | ".join(errors))
        return time.monotonic() - start

    key = _source_key(ROOT / "src" / "repro" / "jpeg2000", HERE / "generate.py")
    final = CACHE / f"decode-v{variant}-{key}"
    seconds, built = cached_dir(box, final, generate)
    outcome.notes.append(
        f"inputs: variant {variant} {'generated' if built else 'cached'}; "
        f"the generator took {seconds:.2f} s (not set-up)"
    )
    return final


# -- in-process workloads (decode, table1) ------------------------------------


def run_worker(box: Sandbox, workload: str, settings: Settings,
               outcome: Outcome, inputs: Optional[Path] = None) -> None:
    base = [PYTHON, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(settings.seed)]
    if inputs is not None:
        base += ["--inputs", str(inputs)]
    for _ in range(settings.setup_repeats - 1):
        out = box.path("setup.json")
        child = box.run(base + ["--setup-only", "--out", str(out)])
        if child.failure():
            raise SetupError(f"set-up failed: {child.failure()}")
        outcome.setup_samples.append(
            json.loads(out.read_text())["ready"] - child.spawned
        )
    out = box.path("worker.json")
    child = box.run(base + [
        "--seconds", str(settings.seconds), "--trace", str(int(settings.trace)),
        "--out", str(out),
    ])
    if child.failure():
        raise SetupError(f"worker failed: {child.failure()}")
    result = json.loads(out.read_text())
    outcome.setup_samples.append(result["ready"] - child.spawned)
    outcome.peak_rss_mb = result["rss_mb"]
    first_counts = None
    for record in result["ops"]:
        problems = list(record["problems"])
        counts = record.get("counts")
        if counts is not None:
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                problems.append("exact counts differ between ops")
        layers = None
        if record["traced"] and "layers" in record:
            layers = {**record["layers"], **counts}
            if workload == "decode":
                layers["host.cpu_s"] = result["cpu_s_per_op"]
                layers["host.worker_rss_mb"] = result["children_rss_mb"]
        outcome.add_op(record["seconds"], record["traced"], problems, layers)


def run_decode(box: Sandbox, settings: Settings, outcome: Outcome) -> None:
    inputs = ensure_inputs(box, settings.seed % IMAGE_VARIANTS, outcome)
    run_worker(box, "decode", settings, outcome, inputs=inputs)


def run_table1(box: Sandbox, settings: Settings, outcome: Outcome) -> None:
    run_worker(box, "table1", settings, outcome)


# -- the command-line workload (regen-warm) ----------------------------------

_CHECK_OK = re.compile(r"^OK: (\d+) artifact files reproduce byte-identically",
                       re.MULTILINE)


def _check_regen(child: Child) -> list:
    failure = child.failure()
    if failure:
        return [f"results --check: {failure}"]
    match = _CHECK_OK.search(child.stdout)
    committed = sum(1 for path in (ROOT / "results").iterdir() if path.is_file())
    if match is None:
        return ["results --check printed no OK line"]
    if int(match.group(1)) != committed:
        return [f"checked {match.group(1)} artefacts, {committed} committed"]
    return []


def _cache_listing(cache: Path) -> list:
    if not cache.is_dir():
        return []
    return sorted(
        (path.name, path.stat().st_size, path.stat().st_mtime_ns)
        for path in cache.iterdir()
    )


def regen_op(box: Sandbox, cache: Path, traced: bool):
    """One ``results --check`` against *cache*; returns (child, layers)."""
    env = {"REPRO_CACHE_DIR": str(cache)}
    if not traced:
        argv = [PYTHON, "-m", "repro", "results", "--check"]
        return box.run(argv, env), None
    out = box.path("probe.json")
    child = box.run([PYTHON, str(HERE / "cli_probe.py"), str(out),
                     "results", "--check"], env)
    if not out.is_file():
        return child, None
    layers = json.loads(out.read_text())
    layers["cli.other.busy_s"] = child.wall - layers.pop("covered_s")
    return child, layers


def measure_cli(op, settings: Settings) -> None:
    """Closed loop over *op* (a callable of ``traced``); like the worker,
    a traced run spends half its time untraced and half traced.  A
    measured run makes at least ``WARM_MIN_OPS`` ops; a smoke run (no
    time budget) makes one."""
    seconds = settings.seconds
    phases = (
        [(False, seconds / 2, 1), (True, seconds / 2, 1)] if settings.trace
        else [(False, seconds, WARM_MIN_OPS if seconds > 0 else 1)]
    )
    for traced, budget, least in phases:
        start = time.monotonic()
        done = 0
        while done < least or time.monotonic() - start < budget:
            op(traced)
            done += 1


def run_regen_warm(box: Sandbox, settings: Settings, outcome: Outcome) -> None:
    cache = box.path("cache")
    fill, layers = regen_op(box, cache, settings.trace)
    problems = _check_regen(fill)
    if not _cache_listing(cache):
        problems.append("it stored nothing in the result cache")
    if settings.trace and layers is None:
        problems.append("it wrote no layer totals")
    if problems:
        raise SetupError("cold fill: " + "; ".join(problems))
    outcome.setup_samples.append(fill.wall)
    if layers is not None:
        outcome.setup_layers = {name: layers[name] for name in COLD_LAYERS}
    filled = _cache_listing(cache)

    def warm(traced: bool) -> None:
        child, layers = regen_op(box, cache, traced)
        problems = _check_regen(child)
        if _cache_listing(cache) != filled:
            problems.append("warm run changed the result cache")
        if traced:
            if layers is None:
                problems.append("traced run wrote no layer totals")
            elif layers["experiments.cache.hit_ratio"] != 1.0:
                problems.append(
                    f"hit ratio {layers['experiments.cache.hit_ratio']} != 1.0"
                )
        if not traced:
            outcome.peak_rss_mb = max(outcome.peak_rss_mb, child.rss_mb)
        outcome.add_op(child.wall, traced, problems, layers)

    measure_cli(warm, settings)


RUNNERS = {
    "decode": run_decode,
    "table1": run_table1,
    "regen-warm": run_regen_warm,
}


# -- isolation ----------------------------------------------------------------


def _tree_digest(path: Path) -> Optional[str]:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    for item in sorted(path.rglob("*")):
        digest.update(str(item.relative_to(path)).encode())
        if item.is_file():
            digest.update(item.read_bytes())
    return digest.hexdigest()


def snapshot() -> dict:
    """The state a workload must leave as it found it."""
    shm = Path("/dev/shm")
    state = {
        "shm": set(os.listdir(shm)) if shm.is_dir() else set(),
        "results/": _tree_digest(ROOT / "results"),
        ".repro/": _tree_digest(ROOT / ".repro"),
        ".repro_cache/": _tree_digest(ROOT / ".repro_cache"),
        "git status": None,
    }
    if (ROOT / ".git").exists() and shutil.which("git"):
        status = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True,
        )
        state["git status"] = status.stdout
    return state


def leaks(before: dict, after: dict) -> list:
    found = []
    new_shm = sorted(after["shm"] - before["shm"])
    if new_shm:
        found.append(f"/dev/shm gained {', '.join(new_shm)}")
    for key in ("results/", ".repro/", ".repro_cache/", "git status"):
        if before[key] != after[key]:
            found.append(f"{key} changed")
    return found


# -- host facts ---------------------------------------------------------------


def host_facts(box: Sandbox) -> dict:
    child = box.run([PYTHON, "-c", (
        "from repro.jpeg2000 import compile_plan; "
        "print(compile_plan().digest())"
    )])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "default_plan": child.stdout.strip() if child.status == 0 else "unknown",
    }


# -- reporting ----------------------------------------------------------------


def _median_layers(outcome: Outcome, untraced: list, traced: list) -> dict:
    values = {}
    for name in PER_LAYER:
        samples = [layers[name] for layers in outcome.layers if name in layers]
        if not samples:
            values[name] = 0
        elif name in EXACT_COUNTS:
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values.update(outcome.setup_layers)
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if traced and untraced else 0.0
    )
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Run one workload; returns ``(report lines, result object)``."""
    outcome = Outcome()
    box = Sandbox()
    lines = [f"perfbench {workload} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}"]
    try:
        before = snapshot()
        facts = host_facts(box)
        lines.append("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
        settings = Settings(
            seed=seed, seconds=seconds, trace=trace,
            # setup_s is an untraced metric: a traced run sets up once.
            setup_repeats=1 if trace else setup_repeats,
        )
        try:
            RUNNERS[workload](box, settings, outcome)
        except SetupError as error:
            outcome.problems.append([str(error)])
        except Exception:  # noqa: BLE001 - reported as a failed op
            outcome.problems.append(
                ["benchmark error: " + traceback.format_exc().strip()]
            )
        found = leaks(before, snapshot())
    finally:
        box.close()

    counted = tally(outcome.problems, found)
    untraced, traced = outcome.op_seconds, outcome.traced_seconds
    if trace:
        values = _median_layers(outcome, untraced, traced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "op_best_s": min(untraced) if untraced else 0.0,
            "setup_s": (statistics.median(outcome.setup_samples)
                        if outcome.setup_samples else 0.0),
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    lines.extend(outcome.notes)
    lines.append("isolation: " + ("; ".join(found) if found else
                 "/dev/shm, results/, .repro/, git status unchanged"))
    for index, problems in enumerate(outcome.problems):
        for problem in problems:
            lines.append(f"op {index}: FAILED {problem}")
    lines.append(
        f"ops: {counted['attempted']} attempted, {counted['failed']} failed, "
        f"failed_ratio = {counted['failed_ratio']:.4f}"
    )
    if untraced:
        lines.append(
            f"op_p50_s = {statistics.median(untraced):.4f} s "
            f"(n={len(untraced)}, min {min(untraced):.4f}, "
            f"max {max(untraced):.4f})"
        )
        tail_stat = tail(untraced)
        lines.append(
            "op_tail_s: not reported (fewer than 20 ops)" if tail_stat is None
            else f"op_tail_s = {tail_stat['value']:.4f} s "
                 f"(p{tail_stat['percentile']:.1f}, {tail_stat['samples']} ops, "
                 f"{tail_stat['beyond']} beyond)"
        )
    if outcome.setup_samples:
        lines.append("setup_s samples: " + " ".join(
            f"{sample:.4f}" for sample in outcome.setup_samples))

    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']} {metric['unit']}")
    result = {
        "correct": counted["failed"] == 0,
        "attempted": counted["attempted"],
        "failed": counted["failed"],
        "metrics": metrics,
    }
    return lines, result


def smoke() -> int:
    """Every workload once: one op, one set-up, no tracing."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in RUNNERS:
        lines, result = run_workload(workload, seed=0, seconds=0, trace=False,
                                     setup_repeats=1)
        print("\n".join(lines), flush=True)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][f"{workload}.op_best_s"] = result["metrics"]["op_best_s"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The repository's benchmark (see module docstring).")
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once (one op each)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
