"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_run_version(self, capsys):
        assert main(["run", "2"]) == 0
        out = capsys.readouterr().out
        assert "DecodingReport(2, lossless" in out

    def test_run_lossy(self, capsys):
        assert main(["run", "2", "--lossy"]) == 0
        assert "lossy" in capsys.readouterr().out

    def test_run_functional(self, capsys):
        assert main(["run", "1", "--functional"]) == 0
        assert "produced an image" in capsys.readouterr().out

    def test_profile_reports_processes_and_stages(self, capsys):
        assert main(["run", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "simulation profile" in out
        assert "telemetry summary" in out
        assert "cf. Fig. 1" in out

    def test_profile_json(self, capsys):
        import json

        assert main(["run", "2", "--profile", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2"
        assert payload["profile"]["total_steps"] > 0
        assert "kernel.delta_cycles" in payload["metrics"]["counters"]
        assert payload["stage_shares"]
        assert payload["decode_ms"] > 0

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["run", "2", "--trace", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert phases == {"M", "X"}

    def test_trace_leaves_telemetry_disabled(self, tmp_path, capsys):
        """The run's session restores whatever was active before it."""
        from repro import telemetry

        def state():
            return (telemetry.active(), telemetry.event_log(),
                    telemetry.flight_recorder())

        argv = ["run", "2", "--trace", str(tmp_path / "t.json"),
                "--events", str(tmp_path / "e.jsonl")]
        assert main(argv) == 0
        assert state() == (None, None, None)
        with telemetry.session(spans=True, events=tmp_path / "outer.jsonl"):
            outer = state()
            assert main(argv) == 0
            assert state() == outer

    @pytest.mark.parametrize("argv", [
        ["profile", "2"],
        ["trace", "2"],
        ["run", "2", "--size", "64"],
        ["run", "2", "--workers", "2"],
        ["run", "2", "--kernel", "reference"],
        ["run", "decode", "--functional"],
        ["plan", "decode", "--no-shared-memory"],
        ["plan", "decode", "--no-overlap"],
        ["plan", "decode", "--assume-no-shm"],
    ])
    def test_retired_commands_and_misplaced_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_versions_lists_catalog(self, capsys):
        assert main(["versions"]) == 0
        out = capsys.readouterr().out
        assert "Registered design descriptions" in out
        assert "SW only" in out
        assert "HW/SW SO connected to bus & P2P" in out
        assert "4 cpus" in out

    def test_validate_all(self, capsys):
        assert main(["validate", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 9
        assert "INVALID" not in out

    def test_validate_one_version(self, capsys):
        assert main(["validate", "6b"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK")
        assert "6 p2p" in out

    def test_validate_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "myspec.py"
        spec_file.write_text(
            "from repro.design import catalog\n"
            "SPEC = catalog.scaled_vta_spec(2, idwt_links_p2p=True)\n"
        )
        assert main(["validate", str(spec_file)]) == 0
        assert "7b-n2" in capsys.readouterr().out

    def test_validate_broken_spec_file_fails(self, capsys, tmp_path):
        spec_file = tmp_path / "broken.py"
        spec_file.write_text(
            "from dataclasses import replace\n"
            "from repro.design import catalog\n"
            "spec = catalog.get('7b')\n"
            "SPEC = replace(spec, mapping=replace(spec.mapping, processors=()))\n"
        )
        assert main(["validate", str(spec_file)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "not mapped to any processor" in out

    def test_validate_file_without_spec_rejected(self, tmp_path):
        spec_file = tmp_path / "empty.py"
        spec_file.write_text("x = 1\n")
        with pytest.raises(SystemExit, match="neither SPEC nor SPECS"):
            main(["validate", str(spec_file)])

    def test_validate_unknown_target_rejected(self):
        with pytest.raises(SystemExit, match="unknown target"):
            main(["validate", "9z"])

    def test_profile_json_carries_design_identity(self, capsys):
        import json

        assert main(["run", "6b", "--profile", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"]["name"] == "6b"
        assert payload["design"]["layer"] == "vta"

    def test_unknown_version_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "9z"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperimentCli:
    """The experiment-engine subcommands, driven on cheap experiments."""

    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table1_application_layer" in out
        assert "loc_comparison" in out
        assert "groups:" in out and "ablations" in out

    def test_sweep_cold_then_warm(self, capsys, tmp_path):
        args = ["sweep", "table2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "FOSSY" in cold
        assert "cached=0" in cold

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "executed=0" in warm
        # Same tables, whether computed or served from the cache.
        assert warm.split("#")[0] == cold.split("#")[0]

    def test_sweep_prints_committed_artefacts_verbatim(self, capsys, tmp_path):
        """The front door renders exactly what ``results/`` holds."""
        from repro.experiments import results_dir

        assert main(["sweep", "table2", "loc",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for stem in ("table2_synthesis", "table2_ratios",
                     "loc_comparison", "loc_states"):
            committed = (results_dir() / f"{stem}.txt").read_text(encoding="utf-8")
            assert committed in out, f"results/{stem}.txt"

    def test_sweep_no_cache_leaves_directory_empty(self, capsys, tmp_path):
        assert main(["sweep", "loc", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "LoC" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_sweep_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiment or group"):
            main(["sweep", "bogus"])

    def test_results_requires_an_action(self):
        with pytest.raises(SystemExit, match="--regen and/or --check"):
            main(["results"])

    def test_results_check_clean_for_cheap_experiment(self, capsys, tmp_path):
        """The committed Table 2 artifacts reproduce byte-identically."""
        assert main(["results", "--check", "--experiments", "table2",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "reproduce byte-identically" in capsys.readouterr().out

    def test_results_regen_writes_into_out_dir(self, capsys, tmp_path):
        out = tmp_path / "results"
        assert main(["results", "--regen", "--experiments", "table2",
                     "--out", str(out), "--cache-dir", str(tmp_path / "c")]) == 0
        assert (out / "table2_synthesis.txt").exists()
        assert (out / "table2_ratios.csv").exists()

    def test_results_check_reports_drift(self, capsys, tmp_path):
        out = tmp_path / "results"
        cache = ["--cache-dir", str(tmp_path / "c")]
        assert main(["results", "--regen", "--experiments", "table2",
                     "--out", str(out)] + cache) == 0
        victim = out / "table2_synthesis.txt"
        assert "IDWT53" in victim.read_text()
        victim.write_text(victim.read_text().replace("IDWT53", "IDWTXX"))
        capsys.readouterr()
        assert main(["results", "--check", "--experiments", "table2",
                     "--out", str(out)] + cache) == 1
        diff = capsys.readouterr().out
        assert "table2_synthesis.txt" in diff
        assert "IDWTXX" in diff  # the unified diff body is printed

    def test_results_check_reports_orphan_file(self, capsys, tmp_path,
                                               monkeypatch):
        """Over the full registry, a file no experiment renders drifts."""
        from repro.experiments import registry

        monkeypatch.setattr(registry, "all_experiments",
                            lambda: registry.expand(["table2"]))
        out = tmp_path / "results"
        args = ["results", "--out", str(out),
                "--cache-dir", str(tmp_path / "c")]
        assert main(args + ["--regen"]) == 0
        (out / "retired.txt").write_text("stale\n")
        capsys.readouterr()
        assert main(args + ["--check"]) == 1
        assert "results/retired.txt" in capsys.readouterr().out


class TestObservabilityCli:
    """Plan, ledger, and events subcommand surfaces."""

    def test_plan_decode_is_byte_deterministic(self, capsys):
        assert main(["plan", "decode", "--workers", "4", "--cpus", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["plan", "decode", "--workers", "4", "--cpus", "8"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("DecodePlan ")
        assert "pool workers=4 chunk=8 start=default" in first

    def test_plan_decode_env_overrides_change_the_plan(self, capsys):
        import json

        assert main([
            "plan", "decode", "--workers", "4", "--cpus", "8", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        entropy = next(
            s for s in payload["stages"] if s["stage"] == "entropy"
        )
        assert entropy["executor"]["kind"] == "pool"
        # Host clamp: 4 workers on a 1-CPU host compile to inline.
        assert main([
            "plan", "decode", "--workers", "4", "--cpus", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        entropy = next(
            s for s in payload["stages"] if s["stage"] == "entropy"
        )
        assert entropy["executor"]["kind"] == "inline"

    def test_plan_decode_matches_library_digest(self, capsys):
        from repro.jpeg2000.options import DecodeOptions
        from repro.jpeg2000.plan import PlanEnvironment, compile_plan

        assert main([
            "plan", "decode", "--workers", "2", "--kernel", "reference",
            "--cpus", "4",
        ]) == 0
        out = capsys.readouterr().out
        plan = compile_plan(
            DecodeOptions(workers=2, kernel="reference"),
            PlanEnvironment(cpu_count=4),
        )
        assert out.splitlines()[0] == f"DecodePlan {plan.digest()[:12]}"
        assert out.rstrip().splitlines()[-1] == plan.canonical_json()

    def test_plan_decode_appends_ledger_record(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.telemetry import ledger

        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["plan", "decode", "--workers", "2", "--cpus", "4"]) == 0
        capsys.readouterr()
        (record,) = ledger.read_ledger(path)
        assert record["kind"] == "plan"
        assert len(record["plan_hash"]) == 64
        assert record["options"]["workers"] == 2
        assert record["environment"]["cpu_count"] == 4

    def test_profile_decode_ledger_carries_plan_hash(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.telemetry import ledger

        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["run", "decode", "--size", "64"]) == 0
        capsys.readouterr()
        (record,) = ledger.read_ledger(path)
        assert record["kind"] == "decode"
        assert len(record["plan_hash"]) == 64
        assert record["degraded"] is False
        assert "metrics" not in record  # no --profile: no span recorder

    def test_decode_degradation_is_recorded_without_profile(
        self, tmp_path, monkeypatch, capsys
    ):
        """The flags come from the decode's stage fates, not from span
        counters, so a run without --profile still records them."""
        from repro import host
        from repro.jpeg2000.stages import entropy
        from repro.telemetry import ledger

        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.setattr(host, "host_cpus", lambda: 4)
        monkeypatch.setattr(entropy, "_get_pool", lambda *args: None)
        assert main(["run", "decode", "--size", "64", "--workers", "2"]) == 0
        capsys.readouterr()
        (record,) = ledger.read_ledger(path)
        assert record["degraded"] is True
        assert record["resumed"] is False
        assert "metrics" not in record

    def test_run_appends_ledger_record(self, tmp_path, monkeypatch, capsys):
        from repro.telemetry import ledger

        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["run", "2"]) == 0
        capsys.readouterr()
        (record,) = ledger.read_ledger(path)
        assert record["kind"] == "simulate"
        assert record["label"] == "2/lossless"
        assert record["wall_seconds"] > 0
        assert record["spec_hash"]

    def test_ledger_disabled_by_env(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert main(["run", "2"]) == 0
        capsys.readouterr()
        assert not path.exists()

    def test_events_flag_writes_jsonl(self, tmp_path, capsys):
        import json

        events_path = tmp_path / "events.jsonl"
        assert main(["run", "2", "--events", str(events_path)]) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        names = [record["event"] for record in records]
        assert "kernel.run" in names
        assert "kernel.quiescent" in names
        assert len({record["run_id"] for record in records}) == 1

    def test_events_flag_captures_decode_pipeline(self, tmp_path, capsys):
        import json

        events_path = tmp_path / "events.jsonl"
        assert main(["run", "decode", "--size", "64",
                     "--events", str(events_path)]) == 0
        capsys.readouterr()
        names = [
            json.loads(line)["event"]
            for line in events_path.read_text().splitlines()
        ]
        assert "decode.start" in names
        assert "decode.done" in names

    def test_one_run_id_joins_record_events_and_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        """Regression: the record's run id is the one its files carry."""
        import json

        from repro.telemetry import ledger

        path = tmp_path / "l.jsonl"
        events_path = tmp_path / "events.jsonl"
        trace_path = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["run", "2", "--events", str(events_path),
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        (record,) = ledger.read_ledger(path)
        events = [
            json.loads(line) for line in events_path.read_text().splitlines()
        ]
        assert events
        assert {event["run_id"] for event in events} == {record["run_id"]}
        trace = json.loads(trace_path.read_text())
        assert trace["metadata"]["run_id"] == record["run_id"]
        assert record["events"] == str(events_path)
        assert record["trace"] == str(trace_path)

    def test_failing_command_appends_record_naming_crash_report(
        self, tmp_path, monkeypatch
    ):
        import json

        from repro import telemetry
        from repro.design.elaborate import ElaboratedModel
        from repro.telemetry import ledger

        def broken_model(self, spec, workload):
            raise RuntimeError("model construction failed")

        path = tmp_path / "l.jsonl"
        crash_dir = tmp_path / "crash"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.setenv("REPRO_CRASH_DIR", str(crash_dir))
        monkeypatch.setattr(ElaboratedModel, "__init__", broken_model)
        with pytest.raises(RuntimeError, match="construction failed"):
            main(["run", "2"])
        (record,) = ledger.read_ledger(path)
        (report_path,) = crash_dir.glob("crash-*.json")
        assert record["crash_reports"] == [str(report_path)]
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["run_id"] == record["run_id"]
        assert report["error"]["message"] == "model construction failed"
        assert telemetry.active() is None
        assert telemetry.event_log() is None
        assert telemetry.flight_recorder() is None

    def test_each_command_appends_one_record(
        self, tmp_path, monkeypatch, capsys, pool_workers
    ):
        from repro.host import host_cpus
        from repro.telemetry import ledger

        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["results", "--check", "--experiments", "table2"]
                    + cache) == 0
        (results,) = ledger.read_ledger(path)
        assert (results["kind"], results["label"]) == ("results", "table2")
        # Two synthesis misses: the default resolves to the host's CPUs,
        # and the batch never uses more workers than it has misses.
        assert results["batch"]["executed"] == 2
        assert results["batch"]["jobs"] == pool_workers(min(host_cpus(), 2))
        assert set(results["batch"]["execute_s"]) == {"synthesise"}
        assert main(["sweep", "table2"] + cache) == 0
        capsys.readouterr()
        _, sweep = ledger.read_ledger(path)
        assert (sweep["kind"], sweep["label"]) == ("sweep", "table2")
        # Fully warm: nothing executed, so nothing ran in a pool.
        assert sweep["batch"]["jobs"] == 1
        assert sweep["batch"]["execute_s"] == {}

    def test_ledger_list_show_diff(self, tmp_path, monkeypatch, capsys):
        import json

        path = tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["run", "2"]) == 0
        assert main(["run", "2", "--lossy"]) == 0
        capsys.readouterr()

        assert main(["ledger", "list"]) == 0
        listing = capsys.readouterr().out
        assert "Run ledger (2 records)" in listing
        assert "2/lossless" in listing and "2/lossy" in listing

        assert main(["ledger", "show", "-1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["label"] == "2/lossy"

        assert main(["ledger", "diff", "0", "1"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["fingerprints_changed"] == []
        assert diff["wall_ratio"] > 0

    def test_ledger_list_empty(self, capsys):
        assert main(["ledger", "list"]) == 0
        assert "ledger is empty" in capsys.readouterr().out

    def test_ledger_show_empty_rejected(self):
        with pytest.raises(SystemExit, match="empty"):
            main(["ledger", "show", "-1"])
