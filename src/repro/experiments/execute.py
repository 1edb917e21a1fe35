"""The request interpreter: one ``RunRequest`` in, one plain payload out.

This is the *only* place experiment work is performed — the runner calls
it in-process or ships it to a worker process (requests and payloads are
small picklable plain data).

Every ablation tweak (module-global rebinding, post-construction
pokes, bus-swap subclasses) is expressed here as a declarative
``options`` entry, so it participates in the cache key and is
reproducible from the registry alone:

``rmi_chunk_words``        RMI serialisation chunk (spec rewrite).
``hw_speedup``             HW co-processor factor (model 2 sensitivity).
``opb_burst_threshold_words``  enable seqAddr bursts on the OPB.
``poll``                   ``False`` disables guarded-call bus polling.
``fifo_depth``             stream-pipeline FIFO capacity of the filters.
``so_bus``                 ``"plb"`` re-attaches the HW/SW SO to the PLB.
"""

from __future__ import annotations

import contextlib
import time

from .request import (
    KIND_LAYERS,
    KIND_PROFILE,
    KIND_SIMULATE,
    KIND_SYNTHESISE,
    RunRequest,
)


def execute_request(request: RunRequest) -> dict:
    """Run one request; returns its plain-data (JSON-safe) payload.

    With ``options["tolerant"]`` set, an execution failure becomes a
    deterministic ``{"failed": {...}}`` payload instead of an exception
    — one deadlocking mutant must not kill a whole exploration batch
    riding the same ``ProcessPoolExecutor.map``.  The flag is
    identity-bearing like every option, so tolerant and strict cells
    cache separately.
    """
    if request.options.get("tolerant"):
        try:
            return _dispatch(request)
        except Exception as exc:  # noqa: BLE001 - converted to data
            return {
                "failed": {
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
            }
    return _dispatch(request)


def _dispatch(request: RunRequest) -> dict:
    if request.kind == KIND_SIMULATE:
        return _simulate(request.params, request.options)
    if request.kind == KIND_PROFILE:
        return _profile_decode(request.params)
    if request.kind == KIND_LAYERS:
        return _layers_decode(request.params)
    if request.kind == KIND_SYNTHESISE:
        return _synthesise(request.params)
    raise ValueError(f"request kind {request.kind!r} has no interpreter")


def timed_execute(request: RunRequest) -> tuple:
    """``(payload, seconds)`` — the pool-side entry point."""
    start = time.perf_counter()
    payload = execute_request(request)
    return payload, time.perf_counter() - start


# --------------------------------------------------------------------------
# simulate: one Table 1 cell (any version, any mode, any ablation tweak)
# --------------------------------------------------------------------------


def _simulate(params: dict, options: dict) -> dict:
    import dataclasses

    from .. import telemetry
    from ..casestudy import profiles, vta_versions
    from ..casestudy.explorer import ALL_VERSIONS
    from ..casestudy.vta_versions import scaled_parallel_version
    from ..casestudy.workload import paper_workload

    lossless = bool(params["lossless"])
    version = params["version"]
    hw_speedup = options.get("hw_speedup")
    chunk = options.get("rmi_chunk_words")

    saved_speedup = profiles.HW_COPROCESSOR_SPEEDUP
    saved_chunk = vta_versions.RMI_CHUNK_WORDS
    try:
        if hw_speedup is not None:
            profiles.HW_COPROCESSOR_SPEEDUP = float(hw_speedup)
        if chunk is not None:
            vta_versions.RMI_CHUNK_WORDS = int(chunk)
        if version == "spec":
            # Spec-valued request: the design travels by value, so any
            # generated candidate elaborates like a catalog row.
            from ..design import catalog, elaborate_design, spec_from_dict

            if options.get("so_bus") == "plb":
                raise ValueError(
                    "so_bus='plb' applies to catalog model classes only"
                )
            spec = spec_from_dict(params["spec"])
            if chunk is not None:
                spec = catalog.with_chunk_words(spec, int(chunk))

            def model_cls(workload):
                return elaborate_design(spec, workload)

        elif version == "scaled":
            model_cls = scaled_parallel_version(
                int(params["num_tasks"]), bool(params["p2p"])
            )
        else:
            if version not in ALL_VERSIONS:
                raise KeyError(
                    f"unknown design version {version!r}; "
                    f"registered: {sorted(ALL_VERSIONS)}"
                )
            model_cls = ALL_VERSIONS[version]
        if version != "spec" and options.get("so_bus") == "plb":
            model_cls = _plb_variant(model_cls)
        workload = paper_workload(lossless)
        num_tiles = params.get("num_tiles")
        if num_tiles is not None:
            workload = dataclasses.replace(workload, num_tiles=int(num_tiles))
        # Scope every run to its own registry: an ambient recorder
        # (installed by a caller that is itself being traced) must not
        # accumulate this run's spans and counters, or its totals would
        # depend on which cells the cache served.
        with (telemetry.session(spans=True) if telemetry.active() is not None
              else contextlib.nullcontext()):
            model = model_cls(workload)
            _apply_model_tweaks(model, options)
            report = model.run()
    finally:
        profiles.HW_COPROCESSOR_SPEEDUP = saved_speedup
        vta_versions.RMI_CHUNK_WORDS = saved_chunk

    return {
        "version": report.version,
        "mode": report.mode,
        "decode_ms": report.decode_ms,
        "idwt_ms": report.idwt_ms,
        "details": _plain_details(report.details),
    }


def _plb_variant(base_cls):
    """*base_cls* with the Shared-Object bus swapped to the fast PLB tier
    (the OSSS Channel abstraction makes this a one-line refinement)."""
    from ..vta import PlbBus

    class _PlbModel(base_cls):
        version = f"{base_cls.version}-plb"

        def _prepare_architecture(self):
            super()._prepare_architecture()
            self.opb = PlbBus(self.sim, self.platform.clock_period)

    return _PlbModel


def _apply_model_tweaks(model, options: dict) -> None:
    burst = options.get("opb_burst_threshold_words")
    if burst is not None:
        model.opb.burst_threshold_words = int(burst)
    if options.get("poll") is False:
        # Ideal readiness notification: no status polling anywhere on the
        # path to the HW/SW Shared Object.
        for task in model.tasks:
            task.so_port._provider.poll_interval = None
        model.control.store_port._provider.poll_interval = None
        for block in model.filters:
            block.store_port._provider.poll_interval = None
    depth = options.get("fifo_depth")
    if depth is not None:
        for block in model.filters:
            block._in_fifo.capacity = int(depth)
            block._out_fifo.capacity = int(depth)


def _plain_details(details: dict) -> dict:
    """``DecodingReport.details`` as JSON-safe plain data."""
    plain = {}
    for name, value in details.items():
        if hasattr(value, "as_dict"):
            plain[name] = value.as_dict()
        elif hasattr(value, "__dict__"):
            plain[name] = dict(vars(value))
        else:
            plain[name] = value
    return plain


# --------------------------------------------------------------------------
# profile: the Fig. 1 software profiling decode
# --------------------------------------------------------------------------


def _profile_decode(params: dict) -> dict:
    from ..jpeg2000 import (
        CodingParameters,
        Jpeg2000Decoder,
        encode_image,
        synthetic_image,
    )

    size = int(params["size"])
    tile = int(params["tile"])
    lossless = bool(params["lossless"])
    image = synthetic_image(size, size, 3, seed=int(params.get("seed", 2008)))
    coding = CodingParameters(
        width=size,
        height=size,
        num_components=3,
        tile_width=tile,
        tile_height=tile,
        num_levels=int(params.get("levels", 3)),
        lossless=lossless,
        base_step=1 / 8,
    )
    decoder = Jpeg2000Decoder(encode_image(image, coding))
    decoder.decode()
    return {"ops": dict(decoder.ops.counts), "plan": decoder.plan.digest()}


# --------------------------------------------------------------------------
# layers: quality-layer prefix decoding (extension ablation)
# --------------------------------------------------------------------------


def _layers_decode(params: dict) -> dict:
    from ..jpeg2000 import (
        CodingParameters,
        Jpeg2000Decoder,
        encode_image,
        synthetic_image,
    )

    size = int(params["size"])
    tile = int(params["tile"])
    image = synthetic_image(size, size, 3, seed=int(params.get("seed", 7)))
    coding = CodingParameters(
        width=size,
        height=size,
        num_components=3,
        tile_width=tile,
        tile_height=tile,
        num_levels=int(params.get("levels", 3)),
        lossless=False,
        num_layers=int(params["num_layers"]),
        base_step=1 / 8,
    )
    codestream = encode_image(image, coding)
    decoder = Jpeg2000Decoder(codestream, max_layers=int(params["layers"]))
    decoded = decoder.decode()
    return {"psnr": decoded.psnr(image), "arith_ops": decoder.ops["arith"]}


# --------------------------------------------------------------------------
# synthesise: one IDWT block through the FOSSY and reference flows
# --------------------------------------------------------------------------


def _synthesise(params: dict) -> dict:
    from ..fossy import build_idwt53, build_idwt97, synthesise_block

    builders = {"idwt53": build_idwt53, "idwt97": build_idwt97}
    name = params["block"]
    if name not in builders:
        raise KeyError(f"unknown synthesis block {name!r}; expected {sorted(builders)}")
    block = synthesise_block(builders[name]())

    def report(source) -> dict:
        return {
            "flip_flops": source.flip_flops,
            "luts": source.luts,
            "slices": source.slices,
            "gate_count": source.gate_count,
            "frequency_mhz": source.frequency_mhz,
            "meets_100mhz": bool(source.meets(100e6)),
        }

    return {
        "name": block.name,
        "fossy": report(block.fossy_report),
        "reference": report(block.reference_report),
        "reference_loc": block.reference_loc,
        "model_statements": block.model_statements,
        "fossy_loc": block.fossy_loc,
        "num_states": block.num_states,
        "area_ratio": block.area_ratio,
        "frequency_ratio": block.frequency_ratio,
        "loc_ratio": block.loc_ratio,
    }
