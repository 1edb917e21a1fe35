"""Unit tests for the decode-plan IR: the planner and its output.

The properties pinned here are the contract the driver, the ledgers and
the benchmark rely on: compilation is *total* (every constructible
``DecodeOptions`` value yields a runnable plan), the canonical
serialisation is deterministic (the digest is a usable cache/ledger
key), and the digests of the default plan, of the README example and of
the whole options cross product stay exactly what they are.
"""

import hashlib
import itertools
import json

import pytest

from repro.jpeg2000.options import DecodeOptions
from repro.jpeg2000.plan import (
    EXECUTOR_INLINE,
    EXECUTOR_POOL,
    INLINE,
    STAGE_ENTROPY,
    STAGE_ORDER,
    STAGE_PARSE,
    STAGE_RECONSTRUCT,
    DecodePlan,
    ExecutorSpec,
    PlanEnvironment,
    compile_plan,
    schedule_info,
)

#: A host that can run everything (so the tests exercise the planner,
#: not the machine they happen to run on).
BIG_HOST = PlanEnvironment(cpu_count=8, native_available=True)
#: A single-CPU host.
SMALL_HOST = PlanEnvironment(cpu_count=1, native_available=True)
#: A host that cannot build the native Tier-1 kernel (no C compiler).
NO_NATIVE_HOST = PlanEnvironment(cpu_count=8)

#: ``python -m repro plan decode`` on a host with the native kernel, by
#: CPU count (the default plan's inline entropy executor runs one
#: thread per CPU).
DEFAULT_DIGEST = {
    1: "d2556a05198c88caf468829373249a70277edaf83a35011efd862e52cd80705f",
    2: "f0f6f6f1a0b1920e71787189569c361c32fcb3cf588c3ffd745ca1012d88772e",
}
#: README's ``plan decode --workers 4 --cpus 8`` example.
README_DIGEST = (
    "1b7a8c9ad3062045fc34a3a91ff9669fee45b2dcbcb91f134092d2e5627834c9"
)


class TestPinnedIdentity:
    """Plan digests are ledger and benchmark keys: they never drift."""

    def test_default_plan_digest(self):
        for cpus, digest in DEFAULT_DIGEST.items():
            env = PlanEnvironment(cpu_count=cpus, native_available=True)
            assert compile_plan(env=env).digest() == digest, cpus

    def test_readme_example_digest(self):
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        assert plan.digest() == README_DIGEST
        assert plan.describe().splitlines()[0] == (
            f"DecodePlan {README_DIGEST[:12]}"
        )


class TestOptionsAreTheOnlyInput:
    def test_decoder_takes_no_hand_built_plan(self):
        from repro.jpeg2000 import Jpeg2000Decoder, decode_codestream

        with pytest.raises(TypeError):
            Jpeg2000Decoder(b"", plan=compile_plan(DecodeOptions(), BIG_HOST))
        with pytest.raises(TypeError):
            decode_codestream(b"", plan=compile_plan(DecodeOptions(), BIG_HOST))


class TestCompileTotality:
    """compile_plan(options, env) validates for every constructible options."""

    # The full cross product: cheap, and the whole point of a totality
    # property.
    WORKERS = (0, 1, 2, 4, None)
    KERNELS = ("native", "reference")
    TIER2 = ("fast", "reference")
    BOOLS = (False, True)

    #: sha256 over the space-joined digests of the cross product, in
    #: ``itertools.product`` order, per host.
    CROSS_PRODUCT_DIGESTS = {
        "big": "7d7834fc711821d57c1fe739981fd3df3448a06160c0cc890e9e88af62660083",
        "small": "eda72ac3682c7bda7e6e4252aebc52238f783a821df4a7ac408333cfea966f55",
        "no-native": "0d23a616ca8b91d38ad86a65747c50a0530510f3870dfff53a987ae9aa06bb3b",
    }

    def _cross_product(self):
        for workers, kernel, tier2, oversub in itertools.product(
            self.WORKERS, self.KERNELS, self.TIER2, self.BOOLS,
        ):
            yield DecodeOptions(
                workers=workers, kernel=kernel, tier2=tier2,
                oversubscribe=oversub,
            )

    @pytest.mark.parametrize("env", [BIG_HOST, SMALL_HOST, NO_NATIVE_HOST])
    def test_every_options_value_compiles_valid(self, env):
        for options in self._cross_product():
            plan = compile_plan(options, env)
            assert [b.stage for b in plan.stages] == list(STAGE_ORDER)
            for binding in plan.stages:
                if binding.stage == STAGE_ENTROPY:
                    continue
                assert binding.executor == INLINE, (options, binding)
            entropy = plan.stage(STAGE_ENTROPY)
            ex = entropy.executor
            if ex.kind == EXECUTOR_INLINE:
                threads = env.cpu_count if entropy.impl == "native" else 1
                assert ex == ExecutorSpec(threads=threads), options
            else:
                assert ex.kind == EXECUTOR_POOL, options
                assert ex.workers >= 2 and ex.chunk_size >= 1, options
                assert ex.threads == 1, options

    @pytest.mark.parametrize("host", sorted(CROSS_PRODUCT_DIGESTS))
    def test_cross_product_digests_are_pinned(self, host):
        env = {
            "big": BIG_HOST, "small": SMALL_HOST, "no-native": NO_NATIVE_HOST,
        }[host]
        digests = " ".join(
            compile_plan(options, env).digest()
            for options in self._cross_product()
        )
        assert hashlib.sha256(digests.encode()).hexdigest() == (
            self.CROSS_PRODUCT_DIGESTS[host]
        )

    def test_sequential_options_bind_inline_entropy(self):
        plan = compile_plan(DecodeOptions(workers=0), BIG_HOST)
        assert plan.stage(STAGE_ENTROPY).executor == ExecutorSpec(
            threads=BIG_HOST.cpu_count
        )

    def test_inline_threads_are_reported(self):
        options = DecodeOptions(workers=0)
        plan = compile_plan(options, BIG_HOST)
        assert "entropy      impl=native  inline threads=8" in (
            plan.describe()
        )
        assert schedule_info(options, plan)["threads"] == 8

    @pytest.mark.parametrize("options,env", [
        (DecodeOptions(kernel="reference"), BIG_HOST),
        (DecodeOptions(), NO_NATIVE_HOST),
        (DecodeOptions(workers=4), BIG_HOST),
        (DecodeOptions(), SMALL_HOST),
    ], ids=["reference-kernel", "no-native", "pool", "one-cpu"])
    def test_single_threaded_entropy(self, options, env):
        # The reference kernel holds the GIL, and pool workers each
        # decode on one thread, so a pool never runs workers x threads.
        plan = compile_plan(options, env)
        assert plan.stage(STAGE_ENTROPY).executor.threads == 1
        assert schedule_info(options, plan)["threads"] == 1

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

    @pytest.mark.parametrize("workers", [0, 4])
    def test_no_native_kernel_compiles_to_reference(self, workers):
        plan = compile_plan(DecodeOptions(workers=workers), NO_NATIVE_HOST)
        assert plan.stage(STAGE_ENTROPY).impl == "reference"
        assert plan.stage(STAGE_RECONSTRUCT).impl == "vectorised"
        assert [(stage, rule) for stage, rule, _ in plan.rewrites] == [
            (STAGE_ENTROPY, "native-unavailable"),
            (STAGE_RECONSTRUCT, "native-unavailable"),
        ]
        assert "rewrite entropy: [native-unavailable]" in plan.describe()
        assert "rewrite reconstruct: [native-unavailable]" in plan.describe()

    @pytest.mark.parametrize("options,impl", [
        (DecodeOptions(), "native"),
        (DecodeOptions(workers=4), "native"),
        (DecodeOptions(kernel="reference"), "vectorised"),
    ], ids=["default", "pool", "reference-kernel"])
    def test_reconstruct_binding_follows_the_kernel(self, options, impl):
        plan = compile_plan(options, BIG_HOST)
        assert plan.stage(STAGE_RECONSTRUCT).impl == impl
        assert plan.stage(STAGE_RECONSTRUCT).executor == INLINE
        assert plan.rewrites == ()

    def test_native_rewrite_is_provenance_not_identity(self):
        rewritten = compile_plan(DecodeOptions(), NO_NATIVE_HOST)
        explicit = compile_plan(DecodeOptions(kernel="reference"), BIG_HOST)
        assert explicit.rewrites == ()
        assert rewritten == explicit
        assert rewritten.digest() == explicit.digest()

    def test_fate_map_starts_with_the_compile_rewrites(self):
        from repro.jpeg2000.driver import StageFates

        fates = StageFates(compile_plan(DecodeOptions(), NO_NATIVE_HOST))
        for stage in (STAGE_ENTROPY, STAGE_RECONSTRUCT):
            assert [r["rule"] for r in fates.fates[stage]["rewrites"]] == [
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
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        data = json.loads(plan.canonical_json())
        assert [s["stage"] for s in data["stages"]] == list(STAGE_ORDER)

    def test_describe_is_deterministic_and_carries_digest(self):
        plan = compile_plan(DecodeOptions(workers=4), BIG_HOST)
        text = plan.describe()
        assert text == plan.describe()
        assert plan.digest()[:12] in text.splitlines()[0]
        assert len(text.splitlines()) == 1 + len(plan.stages)

    def test_stage_lookup_raises_on_unbound_stage(self):
        with pytest.raises(KeyError):
            DecodePlan(()).stage(STAGE_ENTROPY)


class TestOptionsCanonicalDict:
    """as_dict is the options identity a plan ledger record carries."""

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
