"""``python -m repro`` in a fresh interpreter: what it imports, and how it
ends when its reader goes away."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ResultCache, Runner

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a warm ``results --check`` has no use for: it computes
#: nothing, so neither the codec, the simulator nor numpy may load.
HEAVY_MODULES = (
    "numpy",
    "repro.jpeg2000.decoder",
    "repro.design.elaborate",
    "repro.kernel.scheduler",
    "repro.core",
    "repro.vta",
    "repro.fossy",
)

WARM_SCRIPT = """
import json, sys
from repro.__main__ import main
from repro.experiments import cache_key, registry

status = main(["results", "--check", "--experiments", "table2", "loc"])
requests = [request for experiment in registry.all_experiments()
            for request in experiment.requests()]
for request in requests:
    cache_key(request)
print(json.dumps({"status": status, "requests": len(requests),
                  "loaded": [name for name in %r if name in sys.modules]}))
""" % (HEAVY_MODULES,)


def _env(**extra) -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_warm_results_check_imports_no_codec_or_simulator(tmp_path):
    Runner(jobs=1, cache=ResultCache(tmp_path)).sweep(["table2", "loc"])
    proc = subprocess.run(
        [sys.executable, "-c", WARM_SCRIPT],
        env=_env(REPRO_CACHE_DIR=str(tmp_path)),
        capture_output=True, text=True, check=True,
    )
    assert "OK: 8 artifact files reproduce byte-identically" in proc.stdout
    outcome = json.loads(proc.stdout.splitlines()[-1])
    assert outcome == {"status": 0, "requests": 60, "loaded": []}


@pytest.mark.parametrize("argv", [["plan", "decode", "--workers", "4",
                                   "--cpus", "8"], ["experiments"]])
def test_closed_pipe_exits_without_traceback(argv):
    """A reader that closes early (``| head``) ends the command with
    status 1 and nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # Closed before the command writes anything: every write must fail.
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == ""


def test_closed_pipe_after_a_sweep_leaves_no_crash_report(tmp_path):
    """``sweep`` prints once its telemetry session has closed, so a
    reader that closes early ends the command (status 1, nothing on
    stderr) without turning the recorded run into a crash."""
    ledger = tmp_path / "ledger.jsonl"
    crash_dir = tmp_path / "crash"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "table2", "loc",
         "--jobs", "1"],
        env=_env(REPRO_CACHE_DIR=str(tmp_path / "cache"),
                 REPRO_LEDGER_PATH=str(ledger),
                 REPRO_CRASH_DIR=str(crash_dir)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == ""
    assert not crash_dir.exists() or not any(crash_dir.iterdir())
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["kind"] == "sweep"
    assert not record.get("crash_reports")
