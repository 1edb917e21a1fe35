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

from .codestream import (
    CodestreamError,
    CodingParameters,
    TilePart,
    parse_codestream,
    write_codestream,
)
from .decoder import DecodingError, Jpeg2000Decoder, TileStages, decode_codestream
from .errors import DecodeError
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
    StageBinding,
    compile_plan,
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
    "DecodeError",
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
    "compile_plan",
    "decode_codestream",
    "drop_layers",
    "encode_image",
    "parse_codestream",
    "shutdown_pool",
    "synthetic_image",
    "write_codestream",
]
