"""``repro.jpeg2000`` — a complete JPEG 2000 codec substrate.

The functional payload and profiling subject of the case study: codestream
syntax, MQ arithmetic coding, EBCOT Tier-1/Tier-2, tag trees, de/quantisation,
5/3 and 9/7 lifting wavelet transforms, colour transforms and DC shift,
assembled into an encoder (to fabricate test material) and the decoder whose
five stages (Fig. 1) the OSSS models distribute across hardware and software.

Decoding is plan-driven: :func:`compile_plan` turns a
:class:`DecodeOptions` value (plus the host environment) into an
explicit, statically validated :class:`DecodePlan` — stages
``parse → entropy → reconstruct → assemble``, each bound to an
implementation and an executor — which the decoder executes.
"""

from .codestream import (
    CodestreamError,
    CodingParameters,
    TilePart,
    parse_codestream,
    write_codestream,
)
from .decoder import DecodingError, Jpeg2000Decoder, TileStages, decode_codestream
from .encoder import EncodingError, Jpeg2000Encoder, encode_image
from .options import (
    KERNEL_NATIVE,
    KERNEL_REFERENCE,
    BlockSpec,
    DecodeOptions,
    ParallelDegradedWarning,
)
from .plan import (
    DecodePlan,
    ExecutorSpec,
    PlanEnvironment,
    PlanIssue,
    PlanValidationError,
    StageBinding,
    check_plan,
    compile_plan,
    options_for_plan,
    validate_plan,
)
from .stages.entropy import shutdown_pool
from .image import Image, TileGrid, synthetic_image
from .transcode import TranscodeError, drop_layers
from .pipeline import (
    ALL_STAGES,
    STAGE_ARITH,
    STAGE_DC,
    STAGE_ICT,
    STAGE_IDWT,
    STAGE_IQ,
    StageOps,
)

__all__ = [
    "ALL_STAGES",
    "BlockSpec",
    "CodestreamError",
    "CodingParameters",
    "DecodeOptions",
    "DecodePlan",
    "DecodingError",
    "EncodingError",
    "ExecutorSpec",
    "Image",
    "Jpeg2000Decoder",
    "Jpeg2000Encoder",
    "KERNEL_NATIVE",
    "KERNEL_REFERENCE",
    "ParallelDegradedWarning",
    "PlanEnvironment",
    "PlanIssue",
    "PlanValidationError",
    "STAGE_ARITH",
    "STAGE_DC",
    "STAGE_ICT",
    "STAGE_IDWT",
    "STAGE_IQ",
    "StageBinding",
    "StageOps",
    "TileGrid",
    "TilePart",
    "TileStages",
    "TranscodeError",
    "check_plan",
    "compile_plan",
    "decode_codestream",
    "drop_layers",
    "encode_image",
    "options_for_plan",
    "parse_codestream",
    "shutdown_pool",
    "synthetic_image",
    "validate_plan",
    "write_codestream",
]
