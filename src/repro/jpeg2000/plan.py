"""The decode plan IR: options → plan → execute.

The paper's method is *seamless refinement*: one explicitly staged
design, lowered step by step across abstraction levels, never kept in a
second hand-written form.  This module gives the software decoder the
same discipline.  A caller asks for a decode with one
:class:`~repro.jpeg2000.options.DecodeOptions` value; the planner
(:func:`compile_plan`) lowers it, together with the host environment
(CPU count, native kernel), into a :class:`DecodePlan` — a small frozen
record of the four pipeline stages

    ``parse → entropy → reconstruct → assemble``

each bound to an implementation id and an executor (inline, or a worker
pool with start method and chunking).  The driver executes that plan;
ledgers, crash reports and the benchmark record its digest.

Compilation is total: requests are validated where the user writes
them (``DecodeOptions.__post_init__``), and every valid request compiles
to a runnable plan.  Requests the host cannot honour are rewritten and
the rewrite recorded (:attr:`DecodePlan.rewrites`): a ``native`` kernel
request on a host that cannot build the native kernel binds
``reference``.  :meth:`DecodePlan.describe` shows the records and the
driver seeds them into its fate map, where the runtime degradations (no
pool, a broken pool) join them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .. import host
from .options import DEFAULT_OPTIONS, KERNEL_NATIVE, KERNEL_REFERENCE, DecodeOptions

#: The pipeline stages, in execution order.
STAGE_PARSE = "parse"
STAGE_ENTROPY = "entropy"
STAGE_RECONSTRUCT = "reconstruct"
STAGE_ASSEMBLE = "assemble"
STAGE_ORDER = (STAGE_PARSE, STAGE_ENTROPY, STAGE_RECONSTRUCT, STAGE_ASSEMBLE)

#: Executor kinds.
EXECUTOR_INLINE = "inline"
EXECUTOR_POOL = "pool"

#: Reconstruction / assembly implementation ids (one each).
RECONSTRUCT_VECTORISED = "vectorised"
ASSEMBLE_MOSAIC = "mosaic"


@dataclass(frozen=True)
class ExecutorSpec:
    """How one stage's work is executed.

    ``kind="inline"`` runs on the calling process (the canonical form
    carries no pool configuration).  ``kind="pool"`` fans out to a
    process pool: ``workers`` processes created with ``start_method``,
    each tile's blocks streamed to the workers as pickled chunks of at
    most ``chunk_size`` blocks while later tiles are still parsing.
    """

    kind: str = EXECUTOR_INLINE
    workers: int = 0
    chunk_size: int = 0
    start_method: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "start_method": self.start_method,
        }

    def describe(self) -> str:
        if self.kind == EXECUTOR_INLINE:
            return "inline"
        return (
            f"pool workers={self.workers} chunk={self.chunk_size} "
            f"start={self.start_method or 'default'}"
        )


#: The canonical inline executor.
INLINE = ExecutorSpec()


@dataclass(frozen=True)
class StageBinding:
    """One stage bound to an implementation id and an executor."""

    stage: str
    impl: str
    executor: ExecutorSpec = INLINE

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "impl": self.impl,
            "executor": self.executor.as_dict(),
        }


@dataclass(frozen=True)
class DecodePlan:
    """An explicit decode pipeline: the unit the driver executes, the
    benchmark labels, and the ledger records.

    ``rewrites`` holds the planner's ``(stage, rule, detail)`` records of
    requests it could not honour on the host.  They are provenance, not
    identity: the canonical form, the digest and equality ignore them.
    """

    stages: tuple = ()
    rewrites: tuple = field(default=(), compare=False)

    def stage(self, name: str) -> StageBinding:
        for binding in self.stages:
            if binding.stage == name:
                return binding
        raise KeyError(f"plan binds no stage {name!r}")

    def as_dict(self) -> dict:
        """Canonical plain-data form (stable key order, JSON-safe)."""
        return {"stages": [binding.as_dict() for binding in self.stages]}

    def canonical_json(self) -> str:
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """The plan hash recorded in ledgers and benchmark rows."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Deterministic human-readable rendering (the CLI transcript)."""
        lines = [f"DecodePlan {self.digest()[:12]}"]
        width = max((len(b.stage) for b in self.stages), default=0)
        impl_width = max((len(b.impl) for b in self.stages), default=0)
        for binding in self.stages:
            lines.append(
                f"  {binding.stage:<{width}}  "
                f"impl={binding.impl:<{impl_width}}  "
                f"{binding.executor.describe()}"
            )
        for stage, rule, detail in self.rewrites:
            lines.append(f"  rewrite {stage}: [{rule}] {detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanEnvironment:
    """The host facts the planner consults.

    The defaults describe a minimal host (one CPU, no C compiler);
    :meth:`detect` reads the real one.
    """

    cpu_count: int = 1
    native_available: bool = False

    @classmethod
    def detect(cls) -> "PlanEnvironment":
        """This host's facts; builds the native kernel on first call."""
        from . import t1_native

        return cls(
            cpu_count=host.host_cpus(),
            native_available=t1_native.available(),
        )


def compile_plan(options: DecodeOptions = DEFAULT_OPTIONS,
                 env: Optional[PlanEnvironment] = None) -> DecodePlan:
    """Compile *options* into the plan that runs on *env*.

    Host clamping happens here and only here — a parallel request on a
    1-CPU host compiles to an inline entropy executor — and the *report*
    of that degradation stays with the decoder
    (``ParallelDegradedWarning``, from :func:`schedule_info`), not the
    planner, which is pure.  A ``native`` kernel request on a host
    without the native kernel binds ``reference`` and records that
    rewrite on the plan.
    """
    env = env if env is not None else PlanEnvironment.detect()
    impl = options.kernel
    rewrites = ()
    if impl == KERNEL_NATIVE and not env.native_available:
        impl = KERNEL_REFERENCE
        rewrites += ((
            STAGE_ENTROPY, "native-unavailable",
            "the native Tier-1 kernel cannot be built on this host; "
            "binding the reference kernel",
        ),)
    requested = (
        env.cpu_count if options.workers is None else options.workers
    )
    workers = requested if options.oversubscribe else min(requested, env.cpu_count)
    parse = StageBinding(STAGE_PARSE, options.tier2)
    if workers > 1:
        executor = ExecutorSpec(
            kind=EXECUTOR_POOL,
            workers=workers,
            chunk_size=options.chunk_size,
            start_method=options.start_method,
        )
        entropy = StageBinding(STAGE_ENTROPY, impl, executor)
    else:
        entropy = StageBinding(STAGE_ENTROPY, impl)
    return DecodePlan((
        parse,
        entropy,
        StageBinding(STAGE_RECONSTRUCT, RECONSTRUCT_VECTORISED),
        StageBinding(STAGE_ASSEMBLE, ASSEMBLE_MOSAIC),
    ), rewrites)


def schedule_info(options: DecodeOptions, plan: DecodePlan) -> dict:
    """The scheduling facts a ledger record and crash report carry.

    The worker counts are read off *plan*, the compiled form of
    *options*: ``effective_workers`` is the pool size, or at most 1 when
    the entropy stage runs inline, and a request for more than one
    worker that compiled inline is ``degraded``.
    """
    executor = plan.stage(STAGE_ENTROPY).executor
    # An inline executor carries workers=0; a pool at least 2.  A
    # ``workers=None`` request compiles inline only on a 1-CPU host.
    requested = (
        max(executor.workers, 1) if options.workers is None
        else options.workers
    )
    effective = executor.workers or min(requested, 1)
    return {
        "requested_workers": requested,
        "effective_workers": effective,
        "degraded": requested > 1 and executor.kind == EXECUTOR_INLINE,
        "chunk_size": options.chunk_size,
        "kernel": options.kernel,
        "tier2": options.tier2,
        "start_method": options.start_method,
        "oversubscribe": options.oversubscribe,
    }
