"""The one run API every experiment goes through.

A :class:`RunRequest` is a small picklable value — kind + parameters +
options — that fully determines one unit of work (one simulation cell,
one profiling decode, one synthesis run).  :func:`cache_key` derives its
content-addressed identity; :class:`RunResult` carries the plain-data
payload back, together with where it came from (computed or cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import fingerprint as fp

#: Request kinds understood by :mod:`repro.experiments.execute`.
KIND_SIMULATE = "simulate"
KIND_PROFILE = "profile"
KIND_LAYERS = "layers"
KIND_SYNTHESISE = "synthesise"

#: Every payload is a pure function of (spec, workload, code), so every
#: kind is cacheable.
KNOWN_KINDS = (KIND_SIMULATE, KIND_PROFILE, KIND_LAYERS, KIND_SYNTHESISE)

#: Option names a simulate request understands (their meaning is listed in
#: :mod:`repro.experiments.execute`).
SIMULATE_OPTIONS = (
    "fifo_depth",
    "hw_speedup",
    "opb_burst_threshold_words",
    "poll",
    "rmi_chunk_words",
    "so_bus",
)


@dataclass(frozen=True)
class RunRequest:
    """One unit of experiment work.

    ``rid``
        Request identifier, unique within its experiment (e.g.
        ``"sim:6a:lossless"``); table builders look results up by it.
    ``kind``
        Interpreter dispatch: one of :data:`KNOWN_KINDS`.
    ``params``
        What to run (version/mode/geometry).  Identity-bearing.
    ``options``
        How to run it (ablation tweaks).  Identity-bearing —
        any option flip is a different cache cell.
    """

    rid: str
    kind: str
    params: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r}; expected one of {KNOWN_KINDS}"
            )
        if self.kind == KIND_SIMULATE:
            unknown = sorted(set(self.options).difference(SIMULATE_OPTIONS))
            if unknown:
                raise ValueError(
                    f"{self.rid}: unknown simulate option(s) {unknown}; "
                    f"known: {list(SIMULATE_OPTIONS)}"
                )


@dataclass(frozen=True)
class CacheKey:
    """The content address of one request, with its guard components."""

    key: str
    spec_hash: Optional[str]
    workload_hash: str
    code_fingerprint: str


@dataclass
class RunResult:
    """One executed (or cache-served) request.

    ``deduplicated`` marks a batch alias: another request with the same
    content address executed (and was timed); this one only shares the
    payload, so its ``seconds`` stays 0.0 and timing aggregates count
    the work exactly once.
    """

    request: RunRequest
    payload: dict
    key: CacheKey
    cached: bool = False
    seconds: float = 0.0
    deduplicated: bool = False

    @property
    def rid(self) -> str:
        return self.request.rid


def request_spec(request: RunRequest):
    """The :class:`DesignSpec` a simulate request elaborates (else None).

    The one resolver from request to design: the interpreter elaborates
    exactly this spec and the cache key hashes it.  ``version`` names a
    catalog spec (:func:`repro.design.catalog.get`); the
    ``rmi_chunk_words`` and ``so_bus`` options are mapping rewrites.
    """
    if request.kind != KIND_SIMULATE:
        return None
    from ..design import catalog

    spec = catalog.get(request.params["version"])
    chunk = request.options.get("rmi_chunk_words")
    if chunk is not None:
        spec = catalog.with_chunk_words(spec, int(chunk))
    so_bus = request.options.get("so_bus")
    if so_bus == "plb":
        spec = catalog.with_plb_bus(spec)
    elif so_bus is not None:
        raise ValueError(f"{request.rid}: so_bus={so_bus!r}; only 'plb' exists")
    return spec


def workload_descriptor(request: RunRequest) -> dict:
    """Plain-data description of what the request decodes/processes."""
    if request.kind == KIND_SIMULATE:
        from ..casestudy.profiles import profile_for
        from ..casestudy.workload import (
            PAPER_COMPONENTS,
            PAPER_TILE_SIZE,
            PAPER_TILES,
        )

        lossless = bool(request.params["lossless"])
        times = profile_for(lossless)
        return {
            "workload": "paper",
            "lossless": lossless,
            "num_tiles": PAPER_TILES,
            "num_components": PAPER_COMPONENTS,
            "tile": PAPER_TILE_SIZE,
            "stage_times_ms": {
                "arith": times.arith,
                "iq": times.iq,
                "idwt": times.idwt,
                "ict": times.ict,
                "dc": times.dc,
            },
        }
    # profile / layers / synthesise: the parameters *are* the workload
    # description.
    return {"workload": request.kind, **request.params}


def cache_key(request: RunRequest) -> CacheKey:
    """Content address of *request*."""
    spec = request_spec(request)
    spec_digest = fp.spec_hash(spec) if spec is not None else None
    workload_digest = fp.sha256_hex(fp.canonical_json(workload_descriptor(request)))
    code = fp.code_fingerprint(fp.subsystems_for_kind(request.kind))
    material = {
        "kind": request.kind,
        "params": request.params,
        "options": request.options,
        "spec": spec_digest,
        "workload": workload_digest,
        "code": code,
    }
    return CacheKey(
        key=fp.sha256_hex(fp.canonical_json(material)),
        spec_hash=spec_digest,
        workload_hash=workload_digest,
        code_fingerprint=code,
    )
