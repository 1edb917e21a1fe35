"""The decode pipeline's stage implementations.

One module per :mod:`~repro.jpeg2000.plan` stage seam:

:mod:`~repro.jpeg2000.stages.parse`
    Tier-2: packet headers → per-block codeword spans (plus the QCD
    interpretation the later stages consult).
:mod:`~repro.jpeg2000.stages.entropy`
    Tier-1: the code-block kernels and the two executors that run them
    (inline, and the worker pool streaming through shared-memory arenas)
    with the broken-pool resume machinery.
:mod:`~repro.jpeg2000.stages.reconstruct`
    Gather, inverse quantisation, inverse DWT, inverse colour transform,
    DC shift — per tile and vectorised across tiles.
:mod:`~repro.jpeg2000.stages.assemble`
    The tile mosaic (full-size and resolution-truncated).

Stage modules never import each other's executors and never read
:class:`~repro.jpeg2000.options.DecodeOptions` — the driver
(:mod:`repro.jpeg2000.driver`) hands each one its slice of a compiled
:class:`~repro.jpeg2000.plan.DecodePlan`.
"""
