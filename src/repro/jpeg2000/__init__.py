"""``repro.jpeg2000`` — a complete JPEG 2000 codec substrate.

The functional payload and profiling subject of the case study: codestream
syntax, MQ arithmetic coding, EBCOT Tier-1/Tier-2, tag trees, de/quantisation,
5/3 and 9/7 lifting wavelet transforms, colour transforms and DC shift,
assembled into an encoder (to fabricate test material) and the decoder whose
five stages (Fig. 1) the OSSS models distribute across hardware and software.

Decoding is plan-driven: a caller asks with one :class:`DecodeOptions`
value, and :func:`compile_plan` lowers it (plus the host environment)
into the explicit :class:`DecodePlan` that runs — stages
``parse → entropy → reconstruct → assemble``, each bound to an
implementation and an executor.  Every error a malformed codestream
raises is a :class:`DecodeError`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ALL_STAGES": ".pipeline",
    "BlockSpec": ".options",
    "CodestreamError": ".codestream",
    "CodingParameters": ".codestream",
    "DecodeError": ".errors",
    "DecodeOptions": ".options",
    "DecodePlan": ".plan",
    "DecodingError": ".decoder",
    "EncodingError": ".encoder",
    "ExecutorSpec": ".plan",
    "Image": ".image",
    "Jpeg2000Decoder": ".decoder",
    "Jpeg2000Encoder": ".encoder",
    "KERNEL_NATIVE": ".options",
    "KERNEL_REFERENCE": ".options",
    "ParallelDegradedWarning": ".options",
    "PlanEnvironment": ".plan",
    "STAGE_ARITH": ".pipeline",
    "STAGE_DC": ".pipeline",
    "STAGE_ICT": ".pipeline",
    "STAGE_IDWT": ".pipeline",
    "STAGE_IQ": ".pipeline",
    "StageBinding": ".plan",
    "StageOps": ".pipeline",
    "TileGrid": ".image",
    "TilePart": ".codestream",
    "TileStages": ".decoder",
    "compile_plan": ".plan",
    "encode_image": ".encoder",
    "parse_codestream": ".codestream",
    "shutdown_pool": ".stages.entropy",
    "synthetic_image": ".image",
    "write_codestream": ".codestream",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
