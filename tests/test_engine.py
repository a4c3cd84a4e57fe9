import json

import numpy as np
import pytest

from loraroute import (
    AdapterPool,
    EngineConfig,
    SignalConfig,
    StaleDecisionError,
    ValidationError,
    fuse_parameters,
    fused_hooks,
    mixture_hooks,
    route_and_generate,
    route_only,
    route_result_to_json,
)

from conftest import delta_apply_hooks, make_adapter, make_pool


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.k == 20
        assert config.signal == SignalConfig()

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            EngineConfig(k=0)


class TestForwardAccounting:
    def test_probe_plus_one_per_token(self, tiny_backbone, small_pool):
        result = route_and_generate(tiny_backbone, small_pool, [1, 2, 3], EngineConfig(k=2), max_new=7)
        assert result.forward_pass_count == 1 + 7
        assert len(result.timings["per_token_ms"]) == 7

    def test_route_without_generation_is_single_pass(self, tiny_backbone, small_pool):
        result = route_and_generate(tiny_backbone, small_pool, [1, 2, 3], EngineConfig(k=2), max_new=0)
        assert result.forward_pass_count == 1
        assert result.output_tokens == []

    def test_timing_fields_present(self, tiny_backbone, small_pool):
        result = route_and_generate(tiny_backbone, small_pool, [1, 2], EngineConfig(k=2), max_new=3)
        assert set(result.timings) == {"probe_ms", "select_merge_ms", "per_token_ms"}
        assert result.timings["probe_ms"] >= 0.0


class TestMergeEquivalence:
    def test_mixture_and_fusion_emit_identical_tokens(self, tiny_backbone, tiny_config):
        rng = np.random.default_rng(0)
        pool = make_pool(tiny_config, 6, alpha=1.2)
        for trial in range(5):
            prompt = list(rng.integers(0, tiny_config.vocab_size, size=5))
            result = route_and_generate(tiny_backbone, pool, prompt, EngineConfig(k=3), max_new=8)
            fused = fused_hooks(fuse_parameters(pool, result.decision))
            assert result.output_tokens == tiny_backbone.generate(prompt, fused, max_new=8).tokens


class TestConvexityEdges:
    def test_single_adapter_equals_direct_attachment(self, tiny_backbone, tiny_config):
        adapter = make_adapter(tiny_config, "solo", seed=11, alpha=1.4)
        pool = AdapterPool(tiny_config)
        pool.add(adapter)
        routed = route_and_generate(tiny_backbone, pool, [4, 5, 6], EngineConfig(k=1), max_new=10)
        direct_hooks = delta_apply_hooks(tiny_config.n_blocks, [(adapter, adapter.alpha)])
        direct = tiny_backbone.generate([4, 5, 6], direct_hooks, max_new=10)
        assert routed.output_tokens == direct.tokens
        assert routed.decision.weights()["solo"] == 1.0

    def test_identical_copies_equal_single_copy(self, tiny_backbone, tiny_config):
        # k = N identical adapters: uniform weights, output matches one copy.
        n = 3
        pool = AdapterPool(tiny_config)
        for i in range(n):
            pool.add(make_adapter(tiny_config, f"copy{i}", seed=77))
        single = AdapterPool(tiny_config)
        single.add(make_adapter(tiny_config, "copy0", seed=77))

        many = route_and_generate(tiny_backbone, pool, [2, 3], EngineConfig(k=n), max_new=8)
        one = route_and_generate(tiny_backbone, single, [2, 3], EngineConfig(k=1), max_new=8)
        weights = many.decision.weights()
        for w in weights.values():
            assert w == pytest.approx(1.0 / n, rel=1e-12)
        assert many.output_tokens == one.output_tokens


class TestDeterminismAndStaleness:
    def test_repeat_runs_identical_tokens_and_decision(self, tiny_backbone, small_pool):
        a = route_and_generate(tiny_backbone, small_pool, [1, 2, 3], EngineConfig(k=2), max_new=6)
        b = route_and_generate(tiny_backbone, small_pool, [1, 2, 3], EngineConfig(k=2), max_new=6)
        assert a.output_tokens == b.output_tokens
        assert a.decision == b.decision

    def test_route_only_matches_full_run_decision(self, tiny_backbone, small_pool):
        decision = route_only(tiny_backbone, small_pool, [1, 2, 3], EngineConfig(k=2))
        result = route_and_generate(tiny_backbone, small_pool, [1, 2, 3], EngineConfig(k=2), max_new=1)
        assert decision == result.decision

    def test_remove_and_readd_same_bytes_same_scores(self, tiny_backbone, tiny_config):
        pool = make_pool(tiny_config, 4)
        before = route_only(tiny_backbone, pool, [1, 2], EngineConfig(k=4))
        pool.remove("ad02")
        pool.add(make_adapter(tiny_config, "ad02", seed=2))  # same seed -> same bytes
        after = route_only(tiny_backbone, pool, [1, 2], EngineConfig(k=4))
        assert [s.adapter_id for s in before.selected] == [s.adapter_id for s in after.selected]
        for sa, sb in zip(before.selected, after.selected):
            assert sa.score == sb.score
            assert sa.weight == sb.weight

    def test_pool_mutation_between_route_and_merge_raises(self, tiny_backbone, small_pool):
        decision = route_only(tiny_backbone, small_pool, [1, 2, 3], EngineConfig(k=2))
        victim = decision.ids()[0]
        small_pool.remove(victim)
        with pytest.raises(StaleDecisionError):
            mixture_hooks(small_pool, decision)


class TestResultSerialization:
    def test_json_record_schema(self, tiny_backbone, small_pool):
        result = route_and_generate(tiny_backbone, small_pool, [1, 2], EngineConfig(k=2), max_new=3)
        record = json.loads(route_result_to_json(result))
        assert set(record) == {"decision", "output_tokens", "timings", "forward_pass_count"}
        assert record["output_tokens"] == result.output_tokens
        assert record["forward_pass_count"] == 1 + 3
        assert len(record["timings"]["per_token_ms"]) == 3

    def test_k_larger_than_pool_selects_all(self, tiny_backbone, small_pool):
        result = route_and_generate(tiny_backbone, small_pool, [1], EngineConfig(k=50), max_new=2)
        assert len(result.decision.selected) == len(small_pool)
