"""The request interpreter: one ``RunRequest`` in, one plain payload out.

This is the *only* place experiment work is performed — the runner calls
it in-process or ships it to a worker process (requests and payloads are
small picklable plain data).

A simulate request elaborates the one spec
:func:`~repro.experiments.request.request_spec` resolves — the spec its
cache key hashes — on a workload built from its params, then applies
the runtime tweaks.  Every ablation is a declarative ``options`` entry,
so it participates in the cache key and is reproducible from the
registry alone:

``rmi_chunk_words``        RMI serialisation chunk (spec rewrite).
``so_bus``                 ``"plb"`` exchanges the bus for the PLB (spec rewrite).
``hw_speedup``             HW co-processor factor (workload field).
``opb_burst_threshold_words``  enable seqAddr bursts on the OPB.
``poll``                   ``False`` disables guarded-call bus polling.
``fifo_depth``             stream-pipeline FIFO capacity of the filters.

A runtime tweak aimed at a part the design lacks raises ``ValueError``.
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
    request_spec,
)


def execute_request(request: RunRequest) -> dict:
    """Run one request; returns its plain-data (JSON-safe) payload."""
    if request.kind == KIND_SIMULATE:
        return _simulate(request)
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


def _simulate(request: RunRequest) -> dict:
    import dataclasses

    from .. import telemetry
    from ..casestudy.workload import paper_workload
    from ..design import elaborate_design

    spec = request_spec(request)
    params, options = request.params, request.options
    overrides = {}
    if "hw_speedup" in options:
        overrides["hw_speedup"] = float(options["hw_speedup"])
    workload = dataclasses.replace(
        paper_workload(bool(params["lossless"])), **overrides
    )
    # Scope every run to its own registry: an ambient recorder
    # (installed by a caller that is itself being traced) must not
    # accumulate this run's spans and counters, or its totals would
    # depend on which cells the cache served.
    with (telemetry.session(spans=True) if telemetry.active() is not None
          else contextlib.nullcontext()):
        model = elaborate_design(spec, workload)
        _apply_model_tweaks(model, options)
        report = model.run()

    return {
        "version": report.version,
        "mode": report.mode,
        "decode_ms": report.decode_ms,
        "idwt_ms": report.idwt_ms,
        "details": _plain_details(report.details),
    }


def _apply_model_tweaks(model, options: dict) -> None:
    spec = model.spec

    def require(option: str, present: bool, part: str) -> None:
        if not present:
            raise ValueError(
                f"option {option}={options[option]!r} needs {part}; "
                f"design {spec.name!r} has none"
            )

    burst = options.get("opb_burst_threshold_words")
    if burst is not None:
        require("opb_burst_threshold_words",
                any(c.kind == "opb" for c in spec.bus_channels), "an OPB")
        model.opb.burst_threshold_words = int(burst)
    if options.get("poll") is False:
        require("poll", bool(spec.modules), "the IDWT hardware pipeline")
        # Ideal readiness notification: no status polling anywhere on the
        # path to the HW/SW Shared Object.
        for task in model.tasks:
            task.so_port._provider.poll_interval = None
        model.control.store_port._provider.poll_interval = None
        for block in model.filters:
            block.store_port._provider.poll_interval = None
    depth = options.get("fifo_depth")
    if depth is not None:
        require("fifo_depth", bool(spec.modules), "the IDWT hardware pipeline")
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
    from ..casestudy.workload import PAPER_COMPONENTS, paper_coding
    from ..jpeg2000 import Jpeg2000Decoder, encode_image, synthetic_image

    size = int(params["size"])
    image = synthetic_image(
        size, size, PAPER_COMPONENTS, seed=int(params["seed"])
    )
    coding = paper_coding(size, int(params["tile"]), bool(params["lossless"]))
    decoder = Jpeg2000Decoder(encode_image(image, coding))
    decoder.decode()
    return {"ops": dict(decoder.ops.counts), "plan": decoder.plan.digest()}


# --------------------------------------------------------------------------
# layers: quality-layer prefix decoding (extension ablation)
# --------------------------------------------------------------------------


def _layers_decode(params: dict) -> dict:
    from ..casestudy.workload import PAPER_COMPONENTS, paper_coding
    from ..jpeg2000 import Jpeg2000Decoder, encode_image, synthetic_image

    size = int(params["size"])
    image = synthetic_image(
        size, size, PAPER_COMPONENTS, seed=int(params["seed"])
    )
    coding = paper_coding(size, int(params["tile"]), lossless=False)
    coding.num_layers = int(params["num_layers"])
    codestream = encode_image(image, coding)
    decoder = Jpeg2000Decoder(codestream, max_layers=int(params["layers"]))
    decoded = decoder.decode()
    return {"psnr": decoded.psnr(image), "arith_ops": decoder.ops["arith"]}


# --------------------------------------------------------------------------
# synthesise: one IDWT block through the FOSSY and reference flows
# --------------------------------------------------------------------------


def _synthesise(params: dict) -> dict:
    from ..casestudy.profiles import FREQUENCY_HZ
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
            "meets_100mhz": bool(source.meets(FREQUENCY_HZ)),
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
