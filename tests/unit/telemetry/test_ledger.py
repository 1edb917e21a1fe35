"""The run ledger: records, append/read robustness, diffing."""

import json

import pytest

from repro.telemetry import ledger


class TestRecords:
    def test_make_record_core_fields(self):
        record = ledger.make_record(
            "decode", label="512x512/lossless", wall_seconds=1.23456,
            schedule={"kernel": "fast"}, degraded=True,
        )
        assert record["schema"] == ledger.LEDGER_SCHEMA
        assert record["kind"] == "decode"
        assert record["label"] == "512x512/lossless"
        assert record["wall_seconds"] == 1.2346
        assert record["schedule"] == {"kernel": "fast"}
        assert record["degraded"] is True
        assert record["resumed"] is False
        assert len(record["run_id"]) == 16
        assert record["host"]["pid"] > 0

    def test_fingerprints_name_every_subsystem(self):
        record = ledger.make_record("simulate")
        fingerprints = record["fingerprints"]
        for subsystem in ("jpeg2000", "kernel", "telemetry", "vta"):
            assert len(fingerprints[subsystem]) == 64
        assert "fossy" not in fingerprints
        assert "fossy" in ledger.make_record("synthesise")["fingerprints"]

    def test_records_are_json_serialisable(self):
        record = ledger.make_record("sweep", metrics={"counters": {"a": 1}})
        json.dumps(record)


class TestAppendRead:
    def test_append_creates_and_reads_back(self, tmp_path, monkeypatch):
        path = tmp_path / "sub" / "ledger.jsonl"
        monkeypatch.setenv(ledger.ENV_LEDGER_PATH, str(path))
        first = ledger.make_record("decode", label="a")
        second = ledger.make_record("simulate", label="b")
        assert ledger.append_record(first) == path
        ledger.append_record(second)
        records = ledger.read_ledger(path)
        assert [r["label"] for r in records] == ["a", "b"]

    def test_torn_and_corrupt_lines_are_skipped(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv(ledger.ENV_LEDGER_PATH, str(path))
        good = ledger.make_record("decode", label="good")
        ledger.append_record(good)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"schema": 999, "run_id": "future"}\n')
            handle.write('{"torn": ')  # killed mid-append
        records = ledger.read_ledger(path)
        assert [r["label"] for r in records] == ["good"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert ledger.read_ledger(tmp_path / "absent.jsonl") == []

    def test_env_path_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere.jsonl"
        monkeypatch.setenv(ledger.ENV_LEDGER_PATH, str(override))
        ledger.append_record(ledger.make_record("decode"))
        assert override.is_file()
        assert len(ledger.read_ledger()) == 1

    def test_ledger_enabled_flag(self, monkeypatch):
        monkeypatch.delenv(ledger.ENV_LEDGER, raising=False)
        assert ledger.ledger_enabled()
        monkeypatch.setenv(ledger.ENV_LEDGER, "0")
        assert not ledger.ledger_enabled()


class TestFindAndDiff:
    def _records(self):
        return [
            {"schema": 1, "run_id": "aa11", "kind": "decode"},
            {"schema": 1, "run_id": "ab22", "kind": "decode"},
            {"schema": 1, "run_id": "bb33", "kind": "sweep"},
        ]

    def test_find_by_index_and_negative(self):
        records = self._records()
        assert ledger.find_record(records, "0")["run_id"] == "aa11"
        assert ledger.find_record(records, "-1")["run_id"] == "bb33"

    def test_find_by_prefix_and_ambiguity(self):
        records = self._records()
        assert ledger.find_record(records, "bb")["run_id"] == "bb33"
        with pytest.raises(LookupError, match="ambiguous"):
            ledger.find_record(records, "a")
        with pytest.raises(LookupError, match="no ledger record"):
            ledger.find_record(records, "zz")

    def test_find_on_empty_ledger(self):
        with pytest.raises(LookupError, match="empty"):
            ledger.find_record([], "-1")

    def test_diff_names_changed_subsystems(self):
        old = ledger.make_record("simulate", wall_seconds=2.0)
        new = ledger.make_record("simulate", wall_seconds=3.0)
        new["fingerprints"] = dict(new["fingerprints"], kernel="0" * 64)
        diff = ledger.diff_records(old, new)
        assert diff["fingerprints_changed"] == ["kernel"]
        assert diff["wall_ratio"] == 1.5
        assert diff["spec_hash_changed"] is False

    def test_diff_metric_deltas(self):
        old = ledger.make_record(
            "decode", metrics={"counters": {"ops": 10, "same": 1}}
        )
        new = ledger.make_record(
            "decode", metrics={"counters": {"ops": 20, "same": 1}}
        )
        deltas = ledger.diff_records(old, new)["metric_deltas"]
        assert deltas == {"counter:ops": {"old": 10, "new": 20}}
