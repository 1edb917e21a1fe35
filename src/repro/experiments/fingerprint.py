"""Content identity of an experiment run.

A cached result may only ever be served when *nothing that produced it*
has changed.  Three hashes pin that down:

* :func:`spec_hash` — the canonical hash of a design description
  (``DesignSpec.as_dict()`` in canonical JSON), so any spec field flip —
  a channel kind, a priority, a chunk size — yields a different key;
* the *workload hash* — the geometry and stage-time profile a model
  decodes (computed by the runner from the request parameters);
* :func:`code_fingerprint` — a hash over the sources of the subsystems a
  run executes (``src/repro/{casestudy,core,design,jpeg2000,kernel,
  telemetry,vta}`` plus the experiment interpreter itself, and ``fossy``
  for synthesis runs), so editing a single byte of model code
  invalidates every cached cell.

All hashes are SHA-256 over canonical JSON / file bytes and therefore
stable across processes, platforms and Python versions.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Sequence

#: Subsystems of ``src/repro`` whose sources every simulation/profile run
#: depends on: the model/workload layers, the ``core`` primitives they
#: all build on (arbiter, timing, interfaces), and ``telemetry`` because
#: span/metric summaries are embedded in cached payloads.  ``fossy`` is
#: only pulled in by synthesis runs (see :func:`subsystems_for_kind`).
DEFAULT_SUBSYSTEMS = (
    "casestudy",
    "core",
    "design",
    "jpeg2000",
    "kernel",
    "telemetry",
    "vta",
)

#: Extra files hashed into every fingerprint: the request interpreter —
#: its semantics (how options map onto model tweaks) are part of what a
#: cached payload means.
EXTRA_FILES = ("experiments/execute.py",)

#: Source files a subsystem's behaviour comes from: Python modules and
#: the C sources native kernels are compiled from at run time.
SOURCE_PATTERNS = ("*.py", "*.c")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace, strict types."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_hash(spec) -> str:
    """Canonical content hash of a :class:`~repro.design.spec.DesignSpec`."""
    return sha256_hex(canonical_json(spec.as_dict()))


def package_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def subsystems_for_kind(kind: str) -> tuple:
    """The subsystem set whose sources a request *kind* executes."""
    if kind == "synthesise":
        return DEFAULT_SUBSYSTEMS + ("fossy",)
    return DEFAULT_SUBSYSTEMS


def code_fingerprint(subsystems: Sequence[str] = DEFAULT_SUBSYSTEMS) -> str:
    """Hash of every source (``*.py``, and the ``*.c`` the native
    kernels compile from) under the installed package's listed subsystems.

    The digest covers relative path + file bytes in sorted path order, so
    renames, additions, deletions and single-byte edits all change it.
    """
    return _cached_fingerprint(tuple(subsystems))


@lru_cache(maxsize=32)
def _cached_fingerprint(subsystems: tuple) -> str:
    # Sources do not change underneath a running process: every
    # fingerprint of the package (the cache keys' combined one and the
    # ledger's per-subsystem ones) hashes the same per-process read.
    return _fingerprint(subsystems, _package_sources)


@lru_cache(maxsize=None)
def _package_sources(name: str) -> tuple:
    """:func:`_sources` of the installed package, read once per process."""
    return _sources(name, package_root())


def _sources(name: str, root: Path) -> tuple:
    """``(relative path, bytes)`` of every source of subsystem *name*, or
    of the one extra file *name*, under *root*."""
    base = root / name
    if name in EXTRA_FILES:
        paths = [base] if base.is_file() else []
    elif base.is_dir():
        paths = [path for pattern in SOURCE_PATTERNS
                 for path in base.rglob(pattern)]
    else:
        paths = []
    return tuple(
        (str(path.relative_to(root)), path.read_bytes()) for path in paths
    )


def _fingerprint(subsystems: tuple, sources) -> str:
    digest = hashlib.sha256()
    entries = [
        entry for name in subsystems + EXTRA_FILES for entry in sources(name)
    ]
    for relative, data in sorted(entries, key=lambda entry: entry[0]):
        digest.update(relative.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(data)
        digest.update(b"\x01")
    return digest.hexdigest()
