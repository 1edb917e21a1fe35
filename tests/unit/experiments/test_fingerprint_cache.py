"""Cache-key material and the cache safety guard.

The load-bearing satellite test: flipping one field of a design spec, or
one byte of a fingerprinted source file, must change the content address
(a cache miss) — and a corrupt or stale entry must be evicted and
re-run, never returned.
"""

import collections
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.design import catalog
from repro.experiments import (
    CacheKey,
    KIND_SIMULATE,
    KIND_SYNTHESISE,
    ResultCache,
    RunRequest,
    cache_key,
)
from repro.experiments import fingerprint as fp
from repro.experiments.cache import CACHE_SCHEMA
from repro.telemetry import ledger


def tree_fingerprint(subsystems, root):
    """The code fingerprint of *subsystems* in the temporary tree *root*."""
    return fp._fingerprint(tuple(subsystems), lambda name: fp._sources(name, root))


def _sim_request(**options):
    return RunRequest(
        "sim:6a:lossless", KIND_SIMULATE,
        {"version": "6a", "lossless": True}, options,
    )


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key(_sim_request()) == cache_key(_sim_request())

    def test_params_and_options_are_identity_bearing(self):
        base = cache_key(_sim_request())
        lossy = cache_key(RunRequest(
            "sim:6a:lossy", KIND_SIMULATE, {"version": "6a", "lossless": False}
        ))
        tweaked = cache_key(_sim_request(opb_burst_threshold_words=8))
        assert base.key != lossy.key
        assert base.key != tweaked.key

    def test_rid_is_not_identity_bearing(self):
        """Two experiments naming the same cell share one cache entry."""
        renamed = dataclasses.replace(_sim_request(), rid="other:rid")
        assert cache_key(renamed).key == cache_key(_sim_request()).key

    def test_spec_field_flip_changes_key(self, monkeypatch):
        """Satellite guard, part 1: one changed spec field == a miss."""
        base = cache_key(_sim_request())
        original = catalog.get("6a")
        flipped = dataclasses.replace(original, label=original.label + " (flipped)")
        monkeypatch.setattr(catalog, "get", lambda name: flipped)
        changed = cache_key(_sim_request())
        assert changed.spec_hash != base.spec_hash
        assert changed.key != base.key

    def test_source_byte_flip_changes_fingerprint(self, tmp_path):
        """Satellite guard, part 2: one changed source byte == a miss."""
        root = tmp_path / "repro"
        for subsystem in ("design", "kernel"):
            (root / subsystem).mkdir(parents=True)
            (root / subsystem / "mod.py").write_text("VALUE = 1\n")
        before = tree_fingerprint(("design", "kernel"), root)
        (root / "kernel" / "mod.py").write_text("VALUE = 2\n")
        after = tree_fingerprint(("design", "kernel"), root)
        assert before != after

    def test_native_source_byte_flip_changes_fingerprint(self, tmp_path):
        """A kernel compiled from C at run time is part of the code: one
        changed byte of a ``*.c`` source must miss the cache too."""
        root = tmp_path / "repro"
        (root / "jpeg2000").mkdir(parents=True)
        (root / "jpeg2000" / "mod.py").write_text("VALUE = 1\n")
        (root / "jpeg2000" / "kernel.c").write_bytes(b"int k = 1;\n")
        before = tree_fingerprint(("jpeg2000",), root)
        (root / "jpeg2000" / "kernel.c").write_bytes(b"int k = 2;\n")
        assert tree_fingerprint(("jpeg2000",), root) != before

    def test_shipped_native_kernel_is_fingerprinted(self):
        sources = {
            path.name
            for pattern in fp.SOURCE_PATTERNS
            for path in (fp.package_root() / "jpeg2000").rglob(pattern)
        }
        assert "t1_native.c" in sources
        assert "jpeg2000" in fp.DEFAULT_SUBSYSTEMS

    def test_default_subsystems_cover_runtime_packages(self):
        """Every package a run executes is fingerprinted.

        ``experiments`` machinery is covered via EXTRA_FILES,
        ``reporting`` only renders tables from payloads (never cached), and
        ``fossy`` joins for synthesis kinds — everything else must be in
        DEFAULT_SUBSYSTEMS or edits there serve stale payloads.
        """
        root = fp.package_root()
        runtime = {
            path.name for path in root.iterdir()
            if path.is_dir() and path.name not in
            {"experiments", "reporting", "fossy", "__pycache__"}
        }
        assert runtime <= set(fp.DEFAULT_SUBSYSTEMS)

    def test_core_and_telemetry_byte_flips_change_fingerprint(self, tmp_path):
        """Regression: core primitives and cached telemetry summaries
        are part of what a payload means, so both invalidate the key."""
        assert "core" in fp.DEFAULT_SUBSYSTEMS
        assert "telemetry" in fp.DEFAULT_SUBSYSTEMS
        root = tmp_path / "repro"
        for subsystem in fp.DEFAULT_SUBSYSTEMS:
            (root / subsystem).mkdir(parents=True)
            (root / subsystem / "mod.py").write_text("VALUE = 1\n")
        base = tree_fingerprint(fp.DEFAULT_SUBSYSTEMS, root)
        (root / "core" / "mod.py").write_text("VALUE = 2\n")
        core_flip = tree_fingerprint(fp.DEFAULT_SUBSYSTEMS, root)
        assert core_flip != base
        (root / "telemetry" / "mod.py").write_text("VALUE = 2\n")
        assert tree_fingerprint(fp.DEFAULT_SUBSYSTEMS, root) != core_flip

    def test_fingerprint_ignores_unlisted_subsystems(self, tmp_path):
        root = tmp_path / "repro"
        (root / "design").mkdir(parents=True)
        (root / "design" / "mod.py").write_text("VALUE = 1\n")
        (root / "other").mkdir()
        (root / "other" / "mod.py").write_text("VALUE = 1\n")
        before = tree_fingerprint(("design",), root)
        (root / "other" / "mod.py").write_text("VALUE = 2\n")
        assert tree_fingerprint(("design",), root) == before

    def test_synthesise_kind_hashes_fossy_sources(self):
        assert "fossy" in fp.subsystems_for_kind(KIND_SYNTHESISE)
        assert "fossy" not in fp.subsystems_for_kind(KIND_SIMULATE)



def _reference_fingerprint(subsystems, root):
    """The fingerprint as first specified: rglob, sort by relative path,
    hash path + bytes, reading every file afresh."""
    digest = hashlib.sha256()
    paths = [
        path for subsystem in subsystems if (root / subsystem).is_dir()
        for pattern in fp.SOURCE_PATTERNS
        for path in (root / subsystem).rglob(pattern)
    ]
    paths += [root / extra for extra in fp.EXTRA_FILES
              if (root / extra).is_file()]
    for path in sorted(paths, key=lambda p: str(p.relative_to(root))):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()


class TestOneReadPerProcess:
    """The ledger's per-subsystem fingerprints and the cache keys'
    combined one share one read of each package source."""

    @pytest.fixture
    def fresh(self):
        fp._cached_fingerprint.cache_clear()
        fp._package_sources.cache_clear()
        yield
        fp._cached_fingerprint.cache_clear()
        fp._package_sources.cache_clear()

    def test_values_are_unchanged(self, fresh):
        root = fp.package_root()
        synthesise = fp.subsystems_for_kind(KIND_SYNTHESISE)
        for subsystems in [fp.DEFAULT_SUBSYSTEMS, synthesise] + [
            (subsystem,) for subsystem in synthesise
        ]:
            assert fp.code_fingerprint(subsystems) == (
                _reference_fingerprint(subsystems, root)
            ), subsystems

    def test_each_source_is_read_once(self, fresh, monkeypatch):
        reads = collections.Counter()
        read_bytes = Path.read_bytes

        def counting(path):
            reads[str(path)] += 1
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        ledger.subsystem_fingerprints(KIND_SYNTHESISE)
        ledger.subsystem_fingerprints(KIND_SIMULATE)
        for kind in (KIND_SIMULATE, KIND_SYNTHESISE):
            fp.code_fingerprint(fp.subsystems_for_kind(kind))
        root = fp.package_root()
        sources = {
            str(path) for subsystem in fp.subsystems_for_kind(KIND_SYNTHESISE)
            for pattern in fp.SOURCE_PATTERNS
            for path in (root / subsystem).rglob(pattern)
        } | {str(root / extra) for extra in fp.EXTRA_FILES}
        assert set(reads) == sources
        assert set(reads.values()) == {1}


class TestResultCache:
    def _key(self, suffix=""):
        return CacheKey(
            key=f"deadbeef{suffix}", spec_hash="s1",
            workload_hash="w1", code_fingerprint="c1",
        )

    def _store(self, cache, key):
        cache.store(key, _sim_request(), {"decode_ms": 1.0}, seconds=0.5)

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._key()
        assert cache.load(key) is None  # miss before store
        self._store(cache, key)
        entry = cache.load(key)
        assert entry["payload"] == {"decode_ms": 1.0}
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0}

    def test_corrupt_entry_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._key()
        self._store(cache, key)
        path = tmp_path / f"{key.key}.json"
        path.write_text("{ not json")
        assert cache.load(key) is None
        assert not path.exists(), "corrupt entry must be deleted"
        assert cache.evictions == 1

    @pytest.mark.parametrize("field", ["spec_hash", "workload_hash", "code_fingerprint"])
    def test_stale_guard_field_is_evicted(self, tmp_path, field):
        """An entry whose embedded guard hashes mismatch is never returned."""
        cache = ResultCache(tmp_path)
        key = self._key()
        self._store(cache, key)
        path = tmp_path / f"{key.key}.json"
        entry = json.loads(path.read_text())
        entry[field] = "stale"
        path.write_text(json.dumps(entry))
        assert cache.load(key) is None
        assert not path.exists()
        assert cache.evictions == 1

    def test_old_schema_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self._key()
        self._store(cache, key)
        path = tmp_path / f"{key.key}.json"
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA - 1
        path.write_text(json.dumps(entry))
        assert cache.load(key) is None

