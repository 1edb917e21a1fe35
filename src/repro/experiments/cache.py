"""Content-addressed result cache under ``.repro_cache/``.

One JSON file per executed request, named by the request's content
address (see :func:`repro.experiments.request.cache_key`).  Because the
key already hashes the canonical design spec, the workload and a source
fingerprint, an unchanged cell of the experiment matrix is a plain file
read — a warm full Table 1 sweep never simulates anything.

Safety guard: every entry *embeds* the spec hash and code fingerprint it
was computed under, and ``load`` re-verifies them against the expected
key material.  A corrupt file (truncated write, hand edit) or a stale
entry (hash collision across schema changes, copied cache dirs) is
evicted and re-run — never returned.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from .request import CacheKey

#: Bump whenever the entry layout or payload semantics change; old
#: entries are evicted on first contact instead of being reinterpreted.
CACHE_SCHEMA = 1

#: Default cache location: ``.repro_cache/`` in the working directory,
#: overridable with the ``REPRO_CACHE_DIR`` environment variable.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_DIRNAME = ".repro_cache"


def default_cache_dir() -> Path:
    override = os.environ.get(ENV_CACHE_DIR)
    return Path(override) if override else Path.cwd() / DEFAULT_DIRNAME


class ResultCache:
    """A directory of content-addressed run results."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: CacheKey) -> Path:
        return self.root / f"{key.key}.json"

    def load(self, key: CacheKey) -> Optional[dict]:
        """The stored entry for *key*, or ``None`` after a miss/eviction."""
        path = self._path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self._evict(path)
            return None
        if not self._valid(entry, key):
            self._evict(path)
            return None
        self.hits += 1
        return entry

    def _valid(self, entry, key: CacheKey) -> bool:
        return (
            isinstance(entry, dict)
            and entry.get("schema") == CACHE_SCHEMA
            and entry.get("spec_hash") == key.spec_hash
            and entry.get("workload_hash") == key.workload_hash
            and entry.get("code_fingerprint") == key.code_fingerprint
            and isinstance(entry.get("payload"), dict)
        )

    def _evict(self, path: Path) -> None:
        """Remove a stale or corrupt entry; the caller re-runs the cell."""
        self.evictions += 1
        self.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    def store(self, key: CacheKey, request, payload: dict, seconds: float) -> None:
        """Persist one executed request (atomic: temp file + rename)."""
        entry = {
            "schema": CACHE_SCHEMA,
            "rid": request.rid,
            "kind": request.kind,
            "params": request.params,
            "options": request.options,
            "spec_hash": key.spec_hash,
            "workload_hash": key.workload_hash,
            "code_fingerprint": key.code_fingerprint,
            "seconds": round(seconds, 4),
            "payload": payload,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
        os.replace(temp, path)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
