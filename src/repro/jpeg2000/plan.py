"""The decode plan IR: plan → validate → execute.

The paper's method is *seamless refinement*: one explicitly staged
design, refined across abstraction levels without rewrites.  This module
gives the software decoder the same discipline.  A
:class:`DecodePlan` is a small frozen intermediate representation of one
decode run — the four pipeline stages

    ``parse → entropy → reconstruct → assemble``

each bound to an implementation id and an executor (inline, or a worker
pool with start method and chunking).  The planner
(:func:`compile_plan`) compiles a
:class:`~repro.jpeg2000.options.DecodeOptions` value plus the host
environment (CPU count, shared-memory availability) into a plan; the
static validator (:func:`validate_plan` / :func:`check_plan`) rejects
impossible combinations *before* any worker spawns, with machine-readable
rule codes in the style of :mod:`repro.design.validate`.

Validation rules
----------------

``plan.stage-missing``              a pipeline stage is not bound
``plan.stage-order``                stages out of order or duplicated
``stage.unknown-impl``              impl id not registered for the stage
``executor.unknown-kind``           executor kind not inline/pool
``executor.pool-requires-workers``  pool executor with fewer than 2 workers
``executor.pool-requires-chunking`` pool executor with chunk_size < 1
``executor.unknown-start-method``   start method not fork/spawn/forkserver
``executor.inline-carries-pool-config``
                                    inline executor with workers/chunking/
                                    start method set (non-canonical)
``executor.stage-not-parallel``     pool executor on a stage other than
                                    entropy (only the entropy stage fans out)
``executor.arena-unavailable``      pool executor on a host without
                                    ``multiprocessing.shared_memory`` (the
                                    pool ships blocks through shared-memory
                                    arenas)

Compile-time rewrites — a ``native`` kernel request on a host that
cannot build the native kernel binds ``reference``; a parallel request
on a host without shared memory binds the inline executor — are carried
on the plan (:attr:`DecodePlan.rewrites`), shown by
:meth:`DecodePlan.describe` and seeded into the driver's fate map, where
the runtime degradations join them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .. import host
from .options import (
    DEFAULT_OPTIONS,
    KERNEL_NATIVE,
    KERNEL_REFERENCE,
    TIER2_FAST,
    TIER2_REFERENCE,
    _START_METHODS,
    DecodeOptions,
    shared_memory,
)

#: The pipeline stages, in execution order.
STAGE_PARSE = "parse"
STAGE_ENTROPY = "entropy"
STAGE_RECONSTRUCT = "reconstruct"
STAGE_ASSEMBLE = "assemble"
STAGE_ORDER = (STAGE_PARSE, STAGE_ENTROPY, STAGE_RECONSTRUCT, STAGE_ASSEMBLE)

#: Executor kinds.
EXECUTOR_INLINE = "inline"
EXECUTOR_POOL = "pool"

#: Reconstruction / assembly implementation ids (single registered impl
#: each today; the registry exists so refinements slot in as new ids).
RECONSTRUCT_VECTORISED = "vectorised"
ASSEMBLE_MOSAIC = "mosaic"

#: Registered implementation ids per stage.
STAGE_IMPLS = {
    STAGE_PARSE: (TIER2_FAST, TIER2_REFERENCE),
    STAGE_ENTROPY: (KERNEL_NATIVE, KERNEL_REFERENCE),
    STAGE_RECONSTRUCT: (RECONSTRUCT_VECTORISED,),
    STAGE_ASSEMBLE: (ASSEMBLE_MOSAIC,),
}


@dataclass(frozen=True)
class ExecutorSpec:
    """How one stage's work is executed.

    ``kind="inline"`` runs on the calling process (the canonical form
    carries no pool configuration).  ``kind="pool"`` fans out to a
    process pool: ``workers`` processes created with ``start_method``,
    each tile's blocks streamed through shared-memory arenas in chunks
    of at most ``chunk_size`` blocks while later tiles are still parsing.
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
    """An explicit, validatable decode pipeline: the unit the driver
    executes, the benchmark labels, and the ledger records.

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

    def with_stage(self, binding: StageBinding) -> "DecodePlan":
        """A new plan with the same-named stage replaced by *binding*."""
        return DecodePlan(tuple(
            binding if existing.stage == binding.stage else existing
            for existing in self.stages
        ), self.rewrites)

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
    """The host facts the planner and validator consult.

    The defaults describe a minimal host (one CPU, no shared memory, no
    C compiler); :meth:`detect` reads the real one.
    """

    cpu_count: int = 1
    shared_memory_available: bool = False
    native_available: bool = False

    @classmethod
    def detect(cls) -> "PlanEnvironment":
        """This host's facts; builds the native kernel on first call."""
        from . import t1_native

        return cls(
            cpu_count=host.host_cpus(),
            shared_memory_available=shared_memory is not None,
            native_available=t1_native.available(),
        )


# --------------------------------------------------------------------------
# validation (rule/path-coded issues, in the design/validate.py style)
# --------------------------------------------------------------------------


class PlanIssue(str):
    """One validation finding; a str with ``rule`` and ``path`` codes."""

    __slots__ = ("rule", "path")

    def __new__(cls, message: str, rule: str = "generic", path: str = "plan"):
        issue = super().__new__(cls, message)
        issue.rule = rule
        issue.path = path
        return issue

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "message": str(self)}


class PlanValidationError(ValueError):
    """An invalid decode plan, carrying every issue found."""

    def __init__(self, issues):
        self.issues = list(issues)
        bullets = "\n".join(f"  - [{i.rule}] {i.path}: {i}" for i in self.issues)
        super().__init__(
            f"invalid decode plan ({len(self.issues)} issue(s)):\n{bullets}"
        )


class _Collector:
    def __init__(self):
        self.issues: list = []

    def __call__(self, message: str, rule: str, path: str) -> None:
        self.issues.append(PlanIssue(message, rule=rule, path=path))


def validate_plan(plan: DecodePlan,
                  env: Optional[PlanEnvironment] = None) -> list:
    """Every issue that makes *plan* unexecutable on *env* (static)."""
    env = env if env is not None else PlanEnvironment.detect()
    issue = _Collector()
    bound = [binding.stage for binding in plan.stages]
    for name in STAGE_ORDER:
        if name not in bound:
            issue(
                f"stage {name!r} is not bound",
                rule="plan.stage-missing", path="plan.stages",
            )
    if bound != [name for name in STAGE_ORDER if name in bound] or (
        len(bound) != len(set(bound))
    ):
        issue(
            f"stages must appear once each, in order {STAGE_ORDER}; "
            f"got {tuple(bound)}",
            rule="plan.stage-order", path="plan.stages",
        )
    for binding in plan.stages:
        _validate_binding(binding, env, issue)
    return issue.issues


def _validate_binding(binding: StageBinding, env: PlanEnvironment,
                      issue: _Collector) -> None:
    stage = binding.stage
    impls = STAGE_IMPLS.get(stage)
    if impls is not None and binding.impl not in impls:
        issue(
            f"unknown impl {binding.impl!r} for stage {stage!r}; "
            f"registered: {impls}",
            rule="stage.unknown-impl", path=f"{stage}.impl",
        )
    ex = binding.executor
    path = f"{stage}.executor"
    if ex.kind not in (EXECUTOR_INLINE, EXECUTOR_POOL):
        issue(
            f"unknown executor kind {ex.kind!r}",
            rule="executor.unknown-kind", path=path,
        )
        return
    if ex.start_method not in _START_METHODS:
        issue(
            f"unknown start method {ex.start_method!r}; "
            f"expected one of {_START_METHODS}",
            rule="executor.unknown-start-method", path=path,
        )
    if ex.kind == EXECUTOR_INLINE:
        if ex.workers or ex.chunk_size or ex.start_method is not None:
            issue(
                "inline executors carry no pool configuration "
                "(workers/chunking/start method)",
                rule="executor.inline-carries-pool-config", path=path,
            )
        return
    # pool executor
    if stage != STAGE_ENTROPY:
        issue(
            f"stage {stage!r} cannot fan out; only the entropy stage "
            "(independent EBCOT code blocks) is parallel",
            rule="executor.stage-not-parallel", path=path,
        )
    if ex.workers < 2:
        issue(
            f"pool executor needs at least 2 workers, got {ex.workers}",
            rule="executor.pool-requires-workers", path=path,
        )
    if ex.chunk_size < 1:
        issue(
            f"pool executor needs chunk_size >= 1, got {ex.chunk_size}",
            rule="executor.pool-requires-chunking", path=path,
        )
    if not env.shared_memory_available:
        issue(
            "pool executors require multiprocessing.shared_memory, "
            "which this host does not provide",
            rule="executor.arena-unavailable", path=path,
        )


def check_plan(plan: DecodePlan,
               env: Optional[PlanEnvironment] = None) -> DecodePlan:
    """*plan* unchanged if valid; raises :class:`PlanValidationError`."""
    issues = validate_plan(plan, env)
    if issues:
        raise PlanValidationError(issues)
    return plan


# --------------------------------------------------------------------------
# the planner: DecodeOptions + environment -> validated DecodePlan
# --------------------------------------------------------------------------


def compile_plan(options: DecodeOptions = DEFAULT_OPTIONS,
                 env: Optional[PlanEnvironment] = None) -> DecodePlan:
    """Compile *options* into a valid plan for *env*.

    The compilation is total: every constructible
    :class:`DecodeOptions` value yields a plan that passes
    :func:`validate_plan` on the same environment (a property the test
    suite pins).  Host clamping happens here — a parallel request on a
    1-CPU host compiles to an inline entropy executor — and the *report*
    of that degradation stays with the decode entry points
    (``ParallelDegradedWarning``), not the planner, which is pure.
    A ``native`` kernel request on a host without the native kernel
    binds ``reference``, and a parallel request on a host without
    shared memory binds the inline executor; each records its rewrite
    on the plan.
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
    if workers > 1 and not env.shared_memory_available:
        workers = 0
        rewrites += ((
            STAGE_ENTROPY, "arena-unavailable",
            "multiprocessing.shared_memory is missing on this host; "
            "binding the inline executor",
        ),)
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


def options_for_plan(plan: DecodePlan) -> DecodeOptions:
    """The :class:`DecodeOptions` value equivalent to *plan*.

    Best-effort inverse of :func:`compile_plan` — pinned by a round-trip
    property in the test suite: for any valid plan,
    ``compile_plan(options_for_plan(p), env)`` reproduces ``p`` when the
    environment supports a pool.  Lets callers hand the decoder a
    plan directly while schedule reporting keeps working.
    """
    parse = plan.stage(STAGE_PARSE)
    entropy = plan.stage(STAGE_ENTROPY)
    ex = entropy.executor
    if ex.kind == EXECUTOR_POOL:
        return DecodeOptions(
            workers=ex.workers,
            chunk_size=ex.chunk_size,
            kernel=entropy.impl,
            start_method=ex.start_method,
            oversubscribe=True,
            tier2=parse.impl,
        )
    return DecodeOptions(kernel=entropy.impl, tier2=parse.impl)

