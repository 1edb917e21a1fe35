"""Unit tests for the decode-plan IR: planner and validator.

The properties pinned here are the contract the driver relies on:
compilation is *total* (every constructible ``DecodeOptions`` yields a
valid plan), the canonical serialisation is deterministic (the digest is
a usable cache/ledger key), ``options_for_plan`` round-trips, and every
documented validation rule actually fires with its code.
"""

import itertools
import json

import pytest

from repro.jpeg2000.options import DecodeOptions
from repro.jpeg2000.plan import (
    ASSEMBLE_MOSAIC,
    EXECUTOR_INLINE,
    EXECUTOR_POOL,
    INLINE,
    RECONSTRUCT_VECTORISED,
    STAGE_ASSEMBLE,
    STAGE_ENTROPY,
    STAGE_ORDER,
    STAGE_PARSE,
    STAGE_RECONSTRUCT,
    DecodePlan,
    ExecutorSpec,
    PlanEnvironment,
    PlanValidationError,
    StageBinding,
    check_plan,
    compile_plan,
    options_for_plan,
    validate_plan,
)

#: A host that can run everything (so validation exercises the plan, not
#: the machine the tests happen to run on).
BIG_HOST = PlanEnvironment(
    cpu_count=8, shared_memory_available=True, native_available=True
)
#: A host with no shared memory.
NO_SHM_HOST = PlanEnvironment(
    cpu_count=8, shared_memory_available=False, native_available=True
)
#: A single-CPU host.
SMALL_HOST = PlanEnvironment(
    cpu_count=1, shared_memory_available=True, native_available=True
)
#: A host that cannot build the native Tier-1 kernel (no C compiler).
NO_NATIVE_HOST = PlanEnvironment(cpu_count=8, shared_memory_available=True)


def valid_pool_plan(**executor_overrides) -> DecodePlan:
    """A known-good parallel plan to perturb in validator tests."""
    fields = {
        "kind": EXECUTOR_POOL, "workers": 4, "chunk_size": 8,
        **executor_overrides,
    }
    executor = ExecutorSpec(**fields)
    return DecodePlan((
        StageBinding(STAGE_PARSE, "fast"),
        StageBinding(STAGE_ENTROPY, "native", executor),
        StageBinding(STAGE_RECONSTRUCT, RECONSTRUCT_VECTORISED),
        StageBinding(STAGE_ASSEMBLE, ASSEMBLE_MOSAIC),
    ))


def rules_of(plan, env=BIG_HOST):
    return {issue.rule for issue in validate_plan(plan, env)}


class TestCompileTotality:
    """compile_plan(options, env) validates for every constructible options."""

    # The full cross product: cheap, and the whole point of a totality
    # property.
    WORKERS = (0, 1, 2, 4, None)
    KERNELS = ("native", "reference")
    TIER2 = ("fast", "reference")
    BOOLS = (False, True)

    @pytest.mark.parametrize(
        "env", [BIG_HOST, NO_SHM_HOST, SMALL_HOST, NO_NATIVE_HOST]
    )
    def test_every_options_value_compiles_valid(self, env):
        for workers, kernel, tier2, oversub in itertools.product(
            self.WORKERS, self.KERNELS, self.TIER2, self.BOOLS,
        ):
            options = DecodeOptions(
                workers=workers, kernel=kernel, tier2=tier2,
                oversubscribe=oversub,
            )
            plan = compile_plan(options, env)
            issues = validate_plan(plan, env)
            assert not issues, (
                f"options {options} compiled to invalid plan on {env}: "
                f"{[i.as_dict() for i in issues]}"
            )

    def test_sequential_options_bind_inline_entropy(self):
        plan = compile_plan(DecodeOptions(workers=0), BIG_HOST)
        assert plan.stage(STAGE_ENTROPY).executor == INLINE

    def test_parallel_options_bind_pool_entropy(self):
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        ex = plan.stage(STAGE_ENTROPY).executor
        assert ex.kind == EXECUTOR_POOL
        assert ex.workers == 4
        assert plan.rewrites == ()

    def test_host_clamp_compiles_parallel_request_to_inline(self):
        # On a 1-CPU host without oversubscribe, workers=4 is clamped to
        # 1 worker — which is not a pool at all.
        plan = compile_plan(DecodeOptions(workers=4), SMALL_HOST)
        assert plan.stage(STAGE_ENTROPY).executor.kind == EXECUTOR_INLINE

    def test_oversubscribe_defeats_host_clamp(self):
        plan = compile_plan(
            DecodeOptions(workers=4, oversubscribe=True), SMALL_HOST
        )
        assert plan.stage(STAGE_ENTROPY).executor.workers == 4

    def test_workers_none_takes_env_cpu_count(self):
        plan = compile_plan(DecodeOptions(workers=None), BIG_HOST)
        assert plan.stage(STAGE_ENTROPY).executor.workers == BIG_HOST.cpu_count

    def test_no_shared_memory_compiles_inline(self):
        plan = compile_plan(DecodeOptions(workers=4), NO_SHM_HOST)
        assert plan.stage(STAGE_ENTROPY) == StageBinding(STAGE_ENTROPY, "native")
        ((stage, rule, _),) = plan.rewrites
        assert (stage, rule) == (STAGE_ENTROPY, "arena-unavailable")
        assert "rewrite entropy: [arena-unavailable]" in plan.describe()

    @pytest.mark.parametrize("workers", [0, 4])
    def test_no_native_kernel_compiles_to_reference(self, workers):
        plan = compile_plan(DecodeOptions(workers=workers), NO_NATIVE_HOST)
        assert plan.stage(STAGE_ENTROPY).impl == "reference"
        ((stage, rule, _),) = plan.rewrites
        assert (stage, rule) == (STAGE_ENTROPY, "native-unavailable")
        assert "rewrite entropy: [native-unavailable]" in plan.describe()
        assert validate_plan(plan, NO_NATIVE_HOST) == []

    def test_native_rewrite_is_provenance_not_identity(self):
        rewritten = compile_plan(DecodeOptions(), NO_NATIVE_HOST)
        explicit = compile_plan(DecodeOptions(kernel="reference"), BIG_HOST)
        assert explicit.rewrites == ()
        assert rewritten == explicit
        assert rewritten.digest() == explicit.digest()
        # Swapping a stage keeps the planner's record.
        swapped = rewritten.with_stage(StageBinding(STAGE_PARSE, "reference"))
        assert swapped.rewrites == rewritten.rewrites

    def test_fate_map_starts_with_the_compile_rewrites(self):
        from repro.jpeg2000.driver import StageFates

        fates = StageFates(compile_plan(DecodeOptions(), NO_NATIVE_HOST))
        assert [r["rule"] for r in fates.fates[STAGE_ENTROPY]["rewrites"]] == [
            "native-unavailable"
        ]

    def test_tier2_choice_lands_on_parse_stage(self):
        plan = compile_plan(DecodeOptions(tier2="reference"), BIG_HOST)
        assert plan.stage(STAGE_PARSE).impl == "reference"


class TestCanonicalForm:
    def test_digest_is_deterministic(self):
        a = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        b = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        assert a == b
        assert a.digest() == b.digest()
        assert a.canonical_json() == b.canonical_json()

    def test_digest_distinguishes_plans(self):
        a = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        b = compile_plan(DecodeOptions(workers=2), BIG_HOST)
        assert a.digest() != b.digest()

    def test_canonical_json_round_trips_as_data(self):
        plan = valid_pool_plan()
        data = json.loads(plan.canonical_json())
        assert [s["stage"] for s in data["stages"]] == list(STAGE_ORDER)

    def test_describe_is_deterministic_and_carries_digest(self):
        plan = valid_pool_plan()
        text = plan.describe()
        assert text == plan.describe()
        assert plan.digest()[:12] in text.splitlines()[0]
        assert len(text.splitlines()) == 1 + len(plan.stages)

    def test_stage_lookup_raises_on_unbound_stage(self):
        with pytest.raises(KeyError):
            DecodePlan(()).stage(STAGE_ENTROPY)


class TestValidatorRules:
    def test_valid_plan_has_no_issues(self):
        assert validate_plan(valid_pool_plan(), BIG_HOST) == []

    def test_stage_missing(self):
        plan = DecodePlan(tuple(
            b for b in valid_pool_plan().stages if b.stage != STAGE_RECONSTRUCT
        ))
        assert "plan.stage-missing" in rules_of(plan)

    def test_stage_order(self):
        plan = DecodePlan(tuple(reversed(valid_pool_plan().stages)))
        assert "plan.stage-order" in rules_of(plan)

    def test_duplicate_stage_is_an_order_issue(self):
        stages = valid_pool_plan().stages
        plan = DecodePlan(stages + (stages[0],))
        assert "plan.stage-order" in rules_of(plan)

    def test_unknown_impl(self):
        plan = valid_pool_plan().with_stage(
            StageBinding(STAGE_RECONSTRUCT, "quantum")
        )
        assert "stage.unknown-impl" in rules_of(plan)

    def test_unknown_executor_kind(self):
        plan = valid_pool_plan().with_stage(StageBinding(
            STAGE_ENTROPY, "native", ExecutorSpec(kind="gpu")
        ))
        assert "executor.unknown-kind" in rules_of(plan)

    def test_pool_requires_workers(self):
        assert "executor.pool-requires-workers" in rules_of(
            valid_pool_plan(workers=1)
        )

    def test_pool_requires_chunking(self):
        assert "executor.pool-requires-chunking" in rules_of(
            valid_pool_plan(chunk_size=0)
        )

    def test_unknown_start_method(self):
        assert "executor.unknown-start-method" in rules_of(
            valid_pool_plan(start_method="teleport")
        )

    def test_inline_carries_pool_config(self):
        plan = valid_pool_plan().with_stage(StageBinding(
            STAGE_ENTROPY, "native", ExecutorSpec(kind=EXECUTOR_INLINE, workers=4)
        ))
        assert "executor.inline-carries-pool-config" in rules_of(plan)

    def test_stage_not_parallel(self):
        plan = valid_pool_plan().with_stage(StageBinding(
            STAGE_RECONSTRUCT, RECONSTRUCT_VECTORISED,
            ExecutorSpec(kind=EXECUTOR_POOL, workers=4, chunk_size=8),
        ))
        assert "executor.stage-not-parallel" in rules_of(plan)

    def test_arena_unavailable(self):
        assert "executor.arena-unavailable" in rules_of(
            valid_pool_plan(), NO_SHM_HOST
        )

    def test_retired_kernel_names_are_unknown(self):
        for retired in ("fast", "batched"):
            plan = valid_pool_plan().with_stage(StageBinding(
                STAGE_ENTROPY, retired,
                valid_pool_plan().stage(STAGE_ENTROPY).executor,
            ))
            assert "stage.unknown-impl" in rules_of(plan)

    def test_issues_carry_paths(self):
        issues = validate_plan(valid_pool_plan(workers=1), BIG_HOST)
        assert issues
        for issue in issues:
            record = issue.as_dict()
            assert set(record) == {"rule", "path", "message"}
            assert record["path"].startswith(STAGE_ENTROPY)

    def test_check_plan_returns_plan_or_raises(self):
        plan = valid_pool_plan()
        assert check_plan(plan, BIG_HOST) is plan
        with pytest.raises(PlanValidationError) as excinfo:
            check_plan(valid_pool_plan(workers=1), BIG_HOST)
        assert "executor.pool-requires-workers" in str(excinfo.value)
        assert excinfo.value.issues


class TestOptionsRoundTrip:
    @pytest.mark.parametrize("options", [
        DecodeOptions(),
        DecodeOptions(kernel="reference", tier2="reference"),
        DecodeOptions(workers=4),
        DecodeOptions(workers=4, kernel="reference", chunk_size=3),
        DecodeOptions(workers=2, start_method="spawn"),
        DecodeOptions(workers=6, tier2="reference"),
    ])
    def test_compile_options_for_plan_reproduces_plan(self, options):
        plan = compile_plan(options, BIG_HOST)
        recovered = options_for_plan(plan)
        assert compile_plan(recovered, BIG_HOST) == plan

    def test_pool_round_trip_pins_workers_with_oversubscribe(self):
        # The recovered options must reproduce the plan even on a
        # smaller host, which is exactly what oversubscribe grants.
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        recovered = options_for_plan(plan)
        assert recovered.oversubscribe
        assert compile_plan(recovered, SMALL_HOST) == plan


class TestOptionsCanonicalDict:
    """Satellite regression: as_dict is the identity the cache hashes."""

    def test_equal_valued_instances_serialise_identically(self):
        a = DecodeOptions(workers=4, kernel="reference", chunk_size=16)
        b = DecodeOptions(workers=4, kernel="reference", chunk_size=16)
        assert a == b
        assert a.as_dict() == b.as_dict()
        assert (
            json.dumps(a.as_dict(), sort_keys=True)
            == json.dumps(b.as_dict(), sort_keys=True)
        )

    @pytest.mark.parametrize("flip", [
        {"workers": 2},
        {"chunk_size": 9},
        {"kernel": "reference"},
        {"start_method": "spawn"},
        {"oversubscribe": True},
        {"tier2": "reference"},
    ])
    def test_every_field_flip_changes_the_serialisation(self, flip):
        base = DecodeOptions(workers=4)
        flipped = DecodeOptions(**{**base.as_dict(), **flip})
        assert base.as_dict() != flipped.as_dict()

    def test_from_dict_round_trips(self):
        options = DecodeOptions(
            workers=None, kernel="reference", start_method="forkserver",
            oversubscribe=True, tier2="reference",
        )
        assert DecodeOptions.from_dict(options.as_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError):
            DecodeOptions.from_dict({"workers": 2, "turbo": True})
