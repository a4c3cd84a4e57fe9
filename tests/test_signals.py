import math
import sys
import threading
import time

import numpy as np
import pytest

import loraroute.adapters as adapters_module

from loraroute import (
    AdapterPool,
    EmptyPoolError,
    LoraAdapter,
    LoraFactors,
    ProjectionHook,
    SignalConfig,
    ValidationError,
    delta_apply,
    mean_pool_token,
    probe,
    score_rows,
)
from loraroute.signals import ENTROPY_FLOOR

from conftest import make_adapter, make_chunked_pool, make_mixed_pool, make_pool


def reference_outputs(backbone, adapters, tokens, config):
    """Pooled per-adapter Q deltas at the target block, each from ``delta_apply``
    inside one forward pass with every adapter attached through ``delta_apply``."""
    target = config.resolve_block(backbone.config.n_blocks)
    deltas = {}

    def fn(block, site, h, base):
        total = np.zeros_like(base)
        for ad in adapters:
            d = delta_apply(ad, block, site, h)
            if (block, site) == (target, "Q"):
                deltas[ad.id] = d
            total = total + d
        return total

    n_blocks = backbone.config.n_blocks
    backbone.forward(tokens, [ProjectionHook(j, s, fn) for j in range(n_blocks) for s in ("Q", "V")])
    return {i: mean_pool_token(d, config.token_policy) for i, d in deltas.items()}


class TestScoreNorm:
    def test_three_four_five(self):
        assert score_rows(np.array([3.0, 4.0]), "norm") == 5.0

    def test_zero_vector_scores_zero(self):
        assert score_rows(np.zeros(16), "norm") == 0.0

    def test_power_of_two_scaling_exact(self):
        o = np.random.default_rng(0).normal(size=32)
        assert score_rows(2.0 * o, "norm") == 2.0 * score_rows(o, "norm")

    def test_generic_scaling_close(self):
        o = np.random.default_rng(1).normal(size=32)
        c = 3.7
        assert score_rows(c * o, "norm") == pytest.approx(c * score_rows(o, "norm"), rel=1e-12)


class TestScoreInverseEntropy:
    @pytest.mark.parametrize("d", [2, 4, 8, 64])
    def test_constant_vector_hits_lower_bound(self, d):
        # Constant projections softmax to uniform: score = 1 / ln d.
        score = score_rows(np.zeros(d), "inverse_entropy")
        assert score == pytest.approx(1.0 / math.log(d), rel=1e-9)

    def test_extreme_margin_clamps_to_floor(self):
        # softmax([50, 0]) is one-hot to ~1e-21 entropy, below the floor.
        score = score_rows(np.array([50.0, 0.0]), "inverse_entropy")
        assert score == 1.0 / ENTROPY_FLOOR
        assert np.isfinite(score)

    def test_peaked_beats_flat(self):
        flat = score_rows(np.array([1.0, 1.1, 0.9, 1.0]), "inverse_entropy")
        peaked = score_rows(np.array([8.0, 0.0, 0.0, 0.0]), "inverse_entropy")
        assert peaked > flat

    def test_always_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            output = rng.normal(size=int(rng.integers(2, 64)))
            assert score_rows(output, "inverse_entropy") > 0.0


class TestScoreRows:
    def test_unknown_scoring_rejected(self):
        with pytest.raises(ValidationError):
            score_rows(np.ones(4), "cosine")


class TestMeanPoolToken:
    def test_policies_pick_expected_rows(self):
        rows = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        assert np.array_equal(mean_pool_token(rows, "first"), rows[0])
        assert np.array_equal(mean_pool_token(rows, "last"), rows[2])
        np.testing.assert_allclose(mean_pool_token(rows, "mean"), rows.mean(axis=0), atol=0)

    def test_single_row_policies_agree(self):
        rows = np.array([[4.0, 5.0, 6.0]])
        for policy in ("first", "last", "mean"):
            assert np.array_equal(mean_pool_token(rows, policy), rows[0])

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValidationError):
            mean_pool_token(np.ones((2, 2)), "median")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            mean_pool_token(np.ones((0, 4)), "last")


class TestProbe:
    def test_exactly_one_forward_pass(self, tiny_backbone, small_pool):
        before = tiny_backbone.forward_count
        probe(tiny_backbone, small_pool, [1, 2, 3])
        assert tiny_backbone.forward_count == before + 1

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_one_forward_regardless_of_pool_size(self, tiny_backbone, tiny_config, n):
        pool = make_pool(tiny_config, n)
        before = tiny_backbone.forward_count
        probe(tiny_backbone, pool, [5, 6])
        assert tiny_backbone.forward_count == before + 1

    def test_one_entry_per_adapter_sorted(self, tiny_backbone, small_pool, tiny_config):
        report = probe(tiny_backbone, small_pool, [1, 2, 3])
        assert list(report.adapter_ids) == sorted(small_pool.ids())
        assert report.outputs.shape == (len(small_pool), tiny_config.d_model)
        assert report.score_vector.shape == (len(small_pool),)

    def test_empty_pool_rejected(self, tiny_backbone, tiny_config):
        with pytest.raises(EmptyPoolError):
            probe(tiny_backbone, AdapterPool(tiny_config), [1])

    def test_identical_adapters_identical_scores(self, tiny_backbone, tiny_config):
        pool = AdapterPool(tiny_config)
        pool.add(make_adapter(tiny_config, "twin-a", seed=42))
        pool.add(make_adapter(tiny_config, "twin-b", seed=42))
        for scoring in ("norm", "inverse_entropy"):
            report = probe(tiny_backbone, pool, [3, 1, 4], SignalConfig(scoring=scoring))
            scores = report.scores()
            assert scores["twin-a"] == scores["twin-b"]

    def test_zero_b_adapter_scores_zero_norm(self, tiny_backbone, tiny_config):
        rng = np.random.default_rng(0)
        factors = {}
        for j in range(tiny_config.n_blocks):
            for s in ("Q", "V"):
                factors[(j, s)] = LoraFactors(
                    rng.normal(size=(tiny_config.d_model, 2)),
                    np.zeros((2, tiny_config.d_model)),
                )
        pool = AdapterPool(tiny_config)
        pool.add(LoraAdapter(id="inert", alpha=1.0, factors=factors))
        pool.add(make_adapter(tiny_config, "live", seed=1))
        report = probe(tiny_backbone, pool, [1, 2])
        assert report.scores()["inert"] == 0.0
        assert report.scores()["live"] > 0.0

    def test_report_pins_revision(self, tiny_backbone, tiny_config):
        pool = make_pool(tiny_config, 3)
        rev = pool.revision
        report = probe(tiny_backbone, pool, [1, 2])
        assert report.pool_revision == rev
        pool.add(make_adapter(tiny_config, "late", seed=99))
        assert report.pool_revision == rev
        assert len(report.adapter_ids) == 3

    def test_deterministic_across_calls(self, tiny_backbone, small_pool):
        a = probe(tiny_backbone, small_pool, [7, 8, 9])
        b = probe(tiny_backbone, small_pool, [7, 8, 9])
        assert a.pool_revision == b.pool_revision
        assert a.adapter_ids == b.adapter_ids
        assert np.array_equal(a.score_vector, b.score_vector)
        assert np.array_equal(a.outputs, b.outputs)

    def test_default_target_is_last_block(self, tiny_backbone, small_pool, tiny_config):
        report = probe(tiny_backbone, small_pool, [1])
        assert report.target_block == tiny_config.n_blocks - 1

    def test_explicit_target_block(self, tiny_backbone, small_pool):
        report = probe(tiny_backbone, small_pool, [1], SignalConfig(target_block=0))
        assert report.target_block == 0

    def test_target_block_out_of_range(self, tiny_backbone, small_pool):
        with pytest.raises(ValidationError):
            probe(tiny_backbone, small_pool, [1], SignalConfig(target_block=10))

    def test_token_policies_change_output(self, tiny_backbone, small_pool):
        # With a multi-token prompt the pooled vectors generally differ.
        reports = {
            policy: probe(tiny_backbone, small_pool, [1, 2, 3, 4], SignalConfig(token_policy=policy))
            for policy in ("first", "last", "mean")
        }
        first = reports["first"].outputs[0]
        last = reports["last"].outputs[0]
        assert not np.array_equal(first, last)

    def test_scale_monotonicity_via_captured_output(self, tiny_backbone, small_pool):
        # Doubling alpha doubles the captured delta, hence the norm score,
        # when scored against the same captured h.
        report = probe(tiny_backbone, small_pool, [2, 3, 4])
        assert np.array_equal(score_rows(2.0 * report.outputs, "norm"), 2.0 * report.score_vector)

    def test_ranks_stable_under_uniform_scaling(self, tiny_backbone, small_pool):
        report = probe(tiny_backbone, small_pool, [2, 3, 4])
        ids = report.adapter_ids
        scaled = score_rows(3.0 * report.outputs, "norm")
        base = sorted(range(len(ids)), key=lambda i: (-report.score_vector[i], ids[i]))
        rescored = sorted(range(len(ids)), key=lambda i: (-scaled[i], ids[i]))
        assert base == rescored


class TestStackedProbeMatchesReference:
    def check_against_reference(self, backbone, config, signal, pool=None):
        pool = pool or make_mixed_pool(config)
        tokens = [5, 9, 2, 33, 7]
        report = probe(backbone, pool, tokens, signal)
        want = reference_outputs(backbone, pool.snapshot()[1], tokens, signal)
        assert list(report.adapter_ids) == sorted(want)
        for adapter_id, output, score in zip(report.adapter_ids, report.outputs, report.score_vector):
            ref = want[adapter_id]
            np.testing.assert_allclose(output, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
            assert score == pytest.approx(score_rows(ref, signal.scoring), rel=1e-12, abs=0)

    @pytest.mark.parametrize("policy", ["first", "last", "mean"])
    @pytest.mark.parametrize("scoring", ["norm", "inverse_entropy"])
    def test_mixed_rank_outputs_and_scores(self, tiny_backbone, tiny_config, policy, scoring):
        config = SignalConfig(token_policy=policy, scoring=scoring)
        self.check_against_reference(tiny_backbone, tiny_config, config)

    # The reference attaches every adapter at every block, the probe only
    # before the target; block 0 has nothing before it.
    @pytest.mark.parametrize("policy", ["first", "last", "mean"])
    @pytest.mark.parametrize("scoring", ["norm", "inverse_entropy"])
    @pytest.mark.parametrize("target_block", [0, 1])
    def test_every_target_block(self, tiny_backbone, tiny_config, policy, scoring, target_block):
        config = SignalConfig(target_block=target_block, token_policy=policy, scoring=scoring)
        self.check_against_reference(tiny_backbone, tiny_config, config)

    @pytest.mark.parametrize("scoring", ["norm", "inverse_entropy"])
    @pytest.mark.parametrize("target_block", [0, 1])
    def test_pool_spanning_several_chunks(self, tiny_backbone, tiny_config, scoring, target_block):
        config = SignalConfig(target_block=target_block, token_policy="mean", scoring=scoring)
        self.check_against_reference(tiny_backbone, tiny_config, config, make_chunked_pool(tiny_config))


class TestPoolOperators:
    """The probe attaches the pool's per-revision operators and stops at the
    target's Q input."""

    @pytest.mark.parametrize("target_block", [0, 1])
    def test_one_forward_pass_at_every_target_block(self, tiny_backbone, small_pool, target_block):
        for _ in range(2):
            before = tiny_backbone.forward_count
            probe(tiny_backbone, small_pool, [1, 2, 3], SignalConfig(target_block=target_block))
            assert tiny_backbone.forward_count == before + 1

    def test_target_block_zero_attaches_nothing(self, monkeypatch, tiny_backbone, small_pool):
        calls = []
        original = tiny_backbone.block_input

        def recorded(tokens, block, hooks=()):
            calls.append(list(hooks))
            return original(tokens, block, hooks)

        monkeypatch.setattr(tiny_backbone, "block_input", recorded)
        probe(tiny_backbone, small_pool, [1, 2, 3], SignalConfig(target_block=0))
        assert calls == [[]]
        assert small_pool._operators == {}

    def test_two_probes_build_each_site_once(self, monkeypatch, tiny_backbone, small_pool):
        built = []
        original = adapters_module.dense_operator

        def counted(stacks):
            built.append(None)
            return original(stacks)

        monkeypatch.setattr(adapters_module, "dense_operator", counted)
        first = probe(tiny_backbone, small_pool, [1, 2, 3])
        second = probe(tiny_backbone, small_pool, [1, 2, 3])
        assert len(built) == 2
        assert sorted(small_pool._operators) == [(0, "Q"), (0, "V")]
        assert np.array_equal(first.outputs, second.outputs)

    def test_replaced_adapter_reports_like_a_fresh_pool(self, tiny_backbone, tiny_config):
        pool = make_pool(tiny_config, 5)
        probe(tiny_backbone, pool, [4, 5, 6])
        pool.remove("ad02")
        pool.add(make_adapter(tiny_config, "ad02", seed=77, rank=2, alpha=1.4))
        fresh = AdapterPool(tiny_config)
        for adapter in pool.snapshot()[1]:
            fresh.add(adapter)
        got = probe(tiny_backbone, pool, [4, 5, 6])
        want = probe(tiny_backbone, fresh, [4, 5, 6])
        assert got.adapter_ids == want.adapter_ids
        assert np.array_equal(got.outputs, want.outputs)
        assert np.array_equal(got.score_vector, want.score_vector)

    def test_pool_keeps_only_site_operators(self, tiny_backbone, tiny_config):
        pool = make_chunked_pool(tiny_config)
        d, n_blocks = tiny_config.d_model, tiny_config.n_blocks
        for target_block in range(n_blocks):
            probe(tiny_backbone, pool, [1, 2, 3, 4], SignalConfig(target_block=target_block))
            held = list(pool._operators.values())
            assert len(held) <= 2 * n_blocks
            assert all(w.shape == (d, d) and not w.flags.writeable for w in held)

    def test_probes_racing_edits_match_serial_probes(self, monkeypatch, tiny_backbone, tiny_config):
        pool = make_pool(tiny_config, 4)
        variants = [make_adapter(tiny_config, "swap", seed=s, rank=r) for s, r in ((50, 2), (51, 5))]
        self.race(monkeypatch, tiny_backbone, tiny_config, pool, variants)

    def test_probes_racing_chunk_shifting_edits_match_serial_probes(self, monkeypatch, tiny_backbone, tiny_config):
        # An id sorting before every other: each edit shifts every chunk's members.
        pool = make_chunked_pool(tiny_config)
        variants = [make_adapter(tiny_config, "a-first", seed=s, rank=r) for s, r in ((52, 3), (53, 7))]
        self.race(monkeypatch, tiny_backbone, tiny_config, pool, variants)

    @staticmethod
    def race(monkeypatch, backbone, config, pool, variants):
        """200 probes racing a thread that swaps one id between two factor sets
        each equal a serial probe of a fresh pool at their revision."""
        original = adapters_module.dense_operator

        def slow(*args):
            # Widen the window in which an edit lands while a probe builds.
            time.sleep(2e-4)
            return original(*args)

        monkeypatch.setattr(adapters_module, "dense_operator", slow)
        swap = variants[0].id
        pool.add(variants[0])
        snapshots = dict([pool.snapshot()])  # revision -> adapters
        tokens = [7, 3, 9, 1]
        reports = []
        done = threading.Event()

        def edit():
            i = 0
            while not done.is_set():
                pool.remove(swap)
                snapshots.update([pool.snapshot()])
                time.sleep(5e-4)
                i += 1
                pool.add(variants[i % 2])
                snapshots.update([pool.snapshot()])
                time.sleep(5e-4)

        def read():
            try:
                for _ in range(200):
                    reports.append(probe(backbone, pool, tokens))
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=edit), threading.Thread(target=read)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            done.set()
            sys.setswitchinterval(interval)

        assert len(reports) == 200
        assert len({r.pool_revision for r in reports}) > 1
        serial = {}
        for report in reports:
            if report.pool_revision not in serial:
                fresh = AdapterPool(config)
                for adapter in snapshots[report.pool_revision]:
                    fresh.add(adapter)
                serial[report.pool_revision] = probe(backbone, fresh, tokens)
            want = serial[report.pool_revision]
            assert report.adapter_ids == want.adapter_ids
            np.testing.assert_allclose(
                report.outputs, want.outputs, rtol=0, atol=1e-12 * np.abs(want.outputs).max()
            )


class TestSignalConfig:
    def test_invalid_policy(self):
        with pytest.raises(ValidationError):
            SignalConfig(token_policy="middle")

    def test_invalid_scoring(self):
        with pytest.raises(ValidationError):
            SignalConfig(scoring="cosine")

    def test_invalid_target_block(self):
        with pytest.raises(ValidationError):
            SignalConfig(target_block=-2)
