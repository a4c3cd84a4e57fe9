import struct

import numpy as np
import pytest

from loraroute import (
    ContextOverflowError,
    EngineConfig,
    FormatError,
    ModelConfig,
    ProjectionHook,
    ShapeMismatchError,
    TokenRangeError,
    ValidationError,
    backbone_from_bytes,
    init_backbone,
    load_backbone,
    mixture_hooks,
    route_only,
    save_backbone,
)
from loraroute.backbone import BACKBONE_MAGIC

from conftest import byte_mutations, delta_apply_hooks, make_mixed_pool


class TestModelConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValidationError):
            ModelConfig(d_model=30, n_blocks=2, n_heads=4, d_ff=64, vocab_size=64, max_seq_len=32)

    @pytest.mark.parametrize("field", ["d_model", "n_blocks", "n_heads", "d_ff", "vocab_size", "max_seq_len"])
    def test_dims_positive(self, field):
        kwargs = dict(d_model=32, n_blocks=2, n_heads=4, d_ff=64, vocab_size=64, max_seq_len=32)
        kwargs[field] = 0
        with pytest.raises(ValidationError):
            ModelConfig(**kwargs)


class TestInit:
    def test_same_seed_bitwise_identical(self, tiny_config):
        a = init_backbone(tiny_config, seed=123)
        b = init_backbone(tiny_config, seed=123)
        assert a.to_bytes() == b.to_bytes()
        assert a.content_hash() == b.content_hash()

    def test_different_seeds_differ(self, tiny_config):
        a = init_backbone(tiny_config, seed=1)
        b = init_backbone(tiny_config, seed=2)
        assert a.to_bytes() != b.to_bytes()

    def test_init_scale_bound(self, tiny_config):
        b = init_backbone(tiny_config, seed=0)
        bound = 1.0 / np.sqrt(tiny_config.d_model)
        for blk in b.blocks:
            assert np.all(np.abs(blk.wq) <= bound)
            assert np.all(np.abs(blk.w1) <= bound)

    def test_weights_frozen(self, tiny_backbone):
        with pytest.raises(ValueError):
            tiny_backbone.embed[0, 0] = 1.0


class TestForward:
    def test_trace_shapes(self, tiny_backbone, tiny_config):
        trace = tiny_backbone.forward([1, 2, 3, 4])
        assert trace.final_hidden.shape == (4, tiny_config.d_model)
        assert trace.logits.shape == (4, tiny_config.vocab_size)

    def test_deterministic(self, tiny_backbone):
        a = tiny_backbone.forward([5, 6, 7]).logits
        b = tiny_backbone.forward([5, 6, 7]).logits
        assert np.array_equal(a, b)

    def test_causality_prefix_logits_stable(self, tiny_backbone):
        # Logits at early positions must not depend on later tokens.
        rng = np.random.default_rng(11)
        tokens = list(rng.integers(0, 64, size=12))
        full = tiny_backbone.forward(tokens).logits
        for cut in (1, 4, 9):
            prefix = tiny_backbone.forward(tokens[:cut]).logits
            np.testing.assert_allclose(prefix, full[:cut], rtol=0, atol=1e-12)

    def test_rejects_empty(self, tiny_backbone):
        with pytest.raises(ValidationError):
            tiny_backbone.forward([])

    def test_rejects_out_of_range_token(self, tiny_backbone):
        with pytest.raises(TokenRangeError):
            tiny_backbone.forward([0, 64])
        with pytest.raises(TokenRangeError):
            tiny_backbone.forward([-1])
        with pytest.raises(TokenRangeError):
            tiny_backbone.forward([2**70])

    @pytest.mark.parametrize("bad", [1.7, True, "3", np.float64(2.0)])
    def test_rejects_non_integer_token(self, tiny_backbone, bad):
        with pytest.raises(ValidationError, match="integers"):
            tiny_backbone.forward([0, bad])
        with pytest.raises(ValidationError, match="integers"):
            tiny_backbone.generate([bad], max_new=1)

    def test_accepts_numpy_integer_tokens(self, tiny_backbone):
        want = tiny_backbone.forward([1, 2, 3]).logits
        got = tiny_backbone.forward([np.int64(1), np.int32(2), np.uint8(3)]).logits
        assert np.array_equal(got, want)

    def test_rejects_overlong_sequence(self, tiny_backbone, tiny_config):
        with pytest.raises(ContextOverflowError):
            tiny_backbone.forward([0] * (tiny_config.max_seq_len + 1))

    def test_forward_count_increments(self, tiny_backbone):
        before = tiny_backbone.forward_count
        tiny_backbone.forward([1])
        tiny_backbone.forward([1, 2])
        assert tiny_backbone.forward_count == before + 2

    def test_hash_unchanged_by_forward_and_generate(self, tiny_backbone):
        h0 = tiny_backbone.content_hash()
        tiny_backbone.forward([1, 2, 3])
        tiny_backbone.generate([1, 2], max_new=4)
        assert tiny_backbone.content_hash() == h0


class TestBlockInput:
    @pytest.mark.parametrize("block", [0, 1])
    def test_equals_q_input_of_full_forward(self, tiny_backbone, tiny_config, block):
        adapters = make_mixed_pool(tiny_config).snapshot()[1]
        hooks = delta_apply_hooks(tiny_config.n_blocks, [(a, a.alpha) for a in adapters])
        seen = []

        def spy(b, s, h, base):
            seen.append(h)
            return np.zeros_like(base)

        tokens = [5, 9, 2, 33, 7]
        tiny_backbone.forward(tokens, hooks + [ProjectionHook(block, "Q", spy)])
        assert np.array_equal(tiny_backbone.block_input(tokens, block, hooks), seen[0])

    @pytest.mark.parametrize("block", [0, 1])
    def test_one_pass_and_no_hook_at_or_after_block(self, tiny_backbone, tiny_config, block):
        called = []

        def spy(b, s, h, base):
            called.append((b, s))
            return np.zeros_like(base)

        hooks = [ProjectionHook(j, s, spy) for j in range(tiny_config.n_blocks) for s in ("Q", "V")]
        before = tiny_backbone.forward_count
        tiny_backbone.block_input([1, 2, 3], block, hooks)
        assert tiny_backbone.forward_count == before + 1
        assert called == [(j, s) for j in range(block) for s in ("Q", "V")]

    @pytest.mark.parametrize("block", [-1, 2, 1.0])
    def test_block_out_of_range_rejected(self, tiny_backbone, block):
        with pytest.raises(ValidationError):
            tiny_backbone.block_input([1, 2], block)


class TestHooks:
    def test_zero_delta_hook_is_identity(self, tiny_backbone):
        hook = ProjectionHook(0, "Q", lambda b, s, h, base: np.zeros_like(base))
        plain = tiny_backbone.forward([1, 2, 3]).logits
        hooked = tiny_backbone.forward([1, 2, 3], [hook]).logits
        assert np.array_equal(plain, hooked)

    def test_hooks_are_additive(self, tiny_backbone):
        rng = np.random.default_rng(0)
        d1 = rng.normal(size=32) * 0.1
        d2 = rng.normal(size=32) * 0.1
        h1 = ProjectionHook(1, "V", lambda b, s, h, base: np.tile(d1, (h.shape[0], 1)))
        h2 = ProjectionHook(1, "V", lambda b, s, h, base: np.tile(d2, (h.shape[0], 1)))
        hsum = ProjectionHook(1, "V", lambda b, s, h, base: np.tile(d1 + d2, (h.shape[0], 1)))
        two = tiny_backbone.forward([3, 4, 5], [h1, h2]).logits
        one = tiny_backbone.forward([3, 4, 5], [hsum]).logits
        np.testing.assert_allclose(two, one, rtol=0, atol=1e-12)

    def test_hook_changes_output(self, tiny_backbone):
        hook = ProjectionHook(0, "Q", lambda b, s, h, base: np.ones_like(base))
        plain = tiny_backbone.forward([1, 2, 3]).logits
        hooked = tiny_backbone.forward([1, 2, 3], [hook]).logits
        assert not np.allclose(plain, hooked)

    def test_hook_receives_projection_input_and_base(self, tiny_backbone):
        seen = {}

        def spy(block, site, h, base):
            seen["block"], seen["site"] = block, site
            seen["h_shape"], seen["base_shape"] = h.shape, base.shape
            return np.zeros_like(base)

        tiny_backbone.forward([1, 2, 3, 4], [ProjectionHook(1, "Q", spy)])
        assert seen["block"] == 1 and seen["site"] == "Q"
        assert seen["h_shape"] == (4, 32) and seen["base_shape"] == (4, 32)

    def test_invalid_site_rejected(self):
        with pytest.raises(ValidationError):
            ProjectionHook(0, "K", lambda b, s, h, base: base)

    def test_out_of_range_block_rejected(self, tiny_backbone):
        hook = ProjectionHook(5, "Q", lambda b, s, h, base: np.zeros_like(base))
        with pytest.raises(ValidationError):
            tiny_backbone.forward([1], [hook])

    def test_bad_delta_shape_rejected(self, tiny_backbone):
        hook = ProjectionHook(0, "Q", lambda b, s, h, base: np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            tiny_backbone.forward([1, 2], [hook])


class TestGenerate:
    def test_max_new_zero(self, tiny_backbone):
        out = tiny_backbone.generate([1, 2, 3], max_new=0)
        assert out.tokens == [] and out.per_token_ms == []

    def test_decode_checks_arguments_on_the_call_and_steps_lazily(self, tiny_backbone):
        with pytest.raises(ContextOverflowError):
            tiny_backbone.decode([1, 2, 3], max_new=10_000)
        before = tiny_backbone.forward_count
        steps = tiny_backbone.decode([1, 2, 3], max_new=4)
        assert tiny_backbone.forward_count == before
        assert [tok for tok, _ in steps] == tiny_backbone.generate([1, 2, 3], max_new=4).tokens

    def test_emits_requested_count_with_timings(self, tiny_backbone):
        out = tiny_backbone.generate([1, 2, 3], max_new=8)
        assert len(out.tokens) == 8
        assert len(out.per_token_ms) == 8
        assert all(t >= 0.0 for t in out.per_token_ms)

    def test_matches_full_recompute_greedy(self, tiny_backbone):
        # The KV-cache decode path must agree with naive full-prefix recompute.
        rng = np.random.default_rng(5)
        for trial in range(3):
            prompt = list(rng.integers(0, 64, size=6))
            got = tiny_backbone.generate(prompt, max_new=10).tokens
            seq = list(prompt)
            for _ in range(10):
                seq.append(int(np.argmax(tiny_backbone.forward(seq).logits[-1])))
            assert got == seq[len(prompt):]

    def test_deterministic_tokens(self, tiny_backbone):
        a = tiny_backbone.generate([9, 8, 7], max_new=12).tokens
        b = tiny_backbone.generate([9, 8, 7], max_new=12).tokens
        assert a == b

    def test_eos_stops_early(self, tiny_backbone):
        # Find what the model emits first, then declare that id to be EOS.
        first = tiny_backbone.generate([1, 2, 3], max_new=5).tokens[0]
        out = tiny_backbone.generate([1, 2, 3], max_new=5, eos_token=first)
        assert out.tokens == [first]

    def test_context_overflow(self, tiny_backbone, tiny_config):
        prompt = [0] * (tiny_config.max_seq_len - 2)
        with pytest.raises(ContextOverflowError):
            tiny_backbone.generate(prompt, max_new=3)

    def test_negative_max_new_rejected(self, tiny_backbone):
        with pytest.raises(ValidationError):
            tiny_backbone.generate([1], max_new=-1)

    def test_forward_count_tracks_passes(self, tiny_backbone):
        before = tiny_backbone.forward_count
        tiny_backbone.generate([1, 2, 3], max_new=6)
        assert tiny_backbone.forward_count == before + 6

    def test_hooks_apply_during_generation(self, tiny_backbone):
        hook = ProjectionHook(0, "V", lambda b, s, h, base: 0.5 * np.ones_like(base))
        plain = tiny_backbone.generate([1, 2, 3], max_new=6).tokens
        hooked = tiny_backbone.generate([1, 2, 3], [hook], max_new=6).tokens
        assert plain != hooked  # a constant V shift this large must change greedy output


class TestDecodeMatchesFullPass:
    """Prefill and every decoded step are the block loop over a run of
    positions; each must compute what a full pass over the sequence so far
    computes, read at the last block's Q input."""

    @staticmethod
    def spy(config, captured):
        def fn(block, site, h, base):
            captured.append(h.copy())
            return np.zeros_like(base)

        return ProjectionHook(config.n_blocks - 1, "Q", fn)

    @pytest.mark.parametrize("merged", [False, True], ids=["bare", "mixture"])
    @pytest.mark.parametrize(
        "prompt_len,max_new",
        # a 1-token prefill runs unmasked; 40 + 8 ends exactly at max_seq_len
        [(1, 8), (5, 8), (40, 8)],
    )
    def test_each_step_matches_forward(self, tiny_backbone, tiny_config, merged, prompt_len, max_new):
        prompt = list(np.random.default_rng(prompt_len).integers(0, 64, size=prompt_len))
        hooks = []
        if merged:
            pool = make_mixed_pool(tiny_config)
            hooks = mixture_hooks(pool, route_only(tiny_backbone, pool, prompt, EngineConfig(k=3)))
        captured = []
        spied = hooks + [self.spy(tiny_config, captured)]
        tokens = tiny_backbone.generate(prompt, spied, max_new=max_new).tokens
        assert len(captured) == max_new
        assert captured[0].shape == (prompt_len, tiny_config.d_model)
        assert all(c.shape == (1, tiny_config.d_model) for c in captured[1:])
        for i, step in enumerate(captured):
            full = []
            trace = tiny_backbone.forward(prompt + tokens[:i], hooks + [self.spy(tiny_config, full)])
            want = full[0] if i == 0 else full[0][-1:]
            np.testing.assert_allclose(step, want, rtol=0, atol=1e-12)
            assert tokens[i] == int(np.argmax(trace.logits[-1]))


class TestSerialization:
    def test_round_trip_bitwise(self, tiny_backbone, tmp_path):
        path = tmp_path / "model.lgbk"
        save_backbone(tiny_backbone, str(path))
        loaded = load_backbone(str(path))
        assert loaded.to_bytes() == tiny_backbone.to_bytes()
        assert loaded.config == tiny_backbone.config

    def test_magic_prefix(self, tiny_backbone):
        assert tiny_backbone.to_bytes()[:4] == BACKBONE_MAGIC

    def test_loaded_model_same_logits(self, tiny_backbone):
        loaded = backbone_from_bytes(tiny_backbone.to_bytes())
        a = tiny_backbone.forward([1, 2, 3]).logits
        b = loaded.forward([1, 2, 3]).logits
        assert np.array_equal(a, b)

    def test_bad_magic(self, tiny_backbone):
        raw = bytearray(tiny_backbone.to_bytes())
        raw[:4] = b"XXXX"
        with pytest.raises(FormatError, match="magic"):
            backbone_from_bytes(bytes(raw))

    def test_bad_version(self, tiny_backbone):
        raw = bytearray(tiny_backbone.to_bytes())
        raw[4] = 99
        with pytest.raises(FormatError, match="version"):
            backbone_from_bytes(bytes(raw))

    def test_truncation(self, tiny_backbone):
        raw = tiny_backbone.to_bytes()
        with pytest.raises(FormatError, match="truncat"):
            backbone_from_bytes(raw[: len(raw) // 2])

    def test_trailing_garbage(self, tiny_backbone):
        with pytest.raises(FormatError, match="trailing"):
            backbone_from_bytes(tiny_backbone.to_bytes() + b"\x00" * 8)

    def test_degenerate_header_is_format_error(self, tiny_backbone):
        raw = bytearray(tiny_backbone.to_bytes())
        struct.pack_into("<I", raw, 13, 0)  # n_heads
        with pytest.raises(FormatError, match="n_heads"):
            backbone_from_bytes(bytes(raw))

    def test_byte_mutations_raise_only_format_error(self, tiny_backbone):
        for data in byte_mutations(tiny_backbone.to_bytes(), seed=1, count=300):
            try:
                backbone_from_bytes(data)
            except FormatError:
                pass
