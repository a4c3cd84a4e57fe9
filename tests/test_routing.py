import numpy as np
import pytest

import loraroute.adapters as adapters_module
from loraroute import (
    SignalReport,
    StaleDecisionError,
    ValidationError,
    RoutingDecision,
    decision_record,
    delta_apply,
    fuse_parameters,
    fused_hooks,
    mixture_hooks,
    normalize_weights,
    probe,
    select_topk,
)

from conftest import make_adapter, make_chunked_pool, make_mixed_pool, make_pool


def report_from_scores(scores, revision=1, scoring="norm"):
    return SignalReport(
        pool_revision=revision,
        target_block=0,
        token_policy="last",
        scoring=scoring,
        adapter_ids=tuple(scores),
        outputs=np.zeros((len(scores), 1)),
        score_vector=np.array(list(scores.values()), dtype=np.float64),
    )


def brute_force_topk(scores, k):
    """Independent reference: sort score descending, id ascending, take k."""
    order = sorted(scores, key=lambda i: (-scores[i], i))
    return order[: min(k, len(order))]


class TestNormalizeWeights:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = rng.uniform(0, 10, size=int(rng.integers(1, 50)))
            assert abs(normalize_weights(s).sum() - 1.0) <= 1e-12

    def test_proportional_to_scores(self):
        w = normalize_weights([1.0, 3.0])
        np.testing.assert_allclose(w, [0.25, 0.75], atol=0)

    def test_all_zero_falls_back_to_uniform(self):
        np.testing.assert_allclose(normalize_weights([0.0, 0.0, 0.0, 0.0]), np.full(4, 0.25), atol=0)

    def test_single_score_gives_exactly_one(self):
        assert normalize_weights([0.37])[0] == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            normalize_weights([1.0, -0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            normalize_weights([1.0, np.nan])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            normalize_weights([])


class TestSelectTopK:
    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for trial in range(300):
            n = int(rng.integers(1, 30))
            # Quantized scores force plenty of exact ties.
            scores = {f"a{i:03d}": float(rng.integers(0, 5)) for i in range(n)}
            k = int(rng.integers(1, n + 2))
            decision = select_topk(report_from_scores(scores), k)
            assert decision.ids() == brute_force_topk(scores, k)

    def test_tie_broken_by_ascending_id(self):
        decision = select_topk(report_from_scores({"zeta": 2.0, "alpha": 2.0, "mid": 1.0}), 1)
        assert decision.ids() == ["alpha"]

    def test_k_clamped_to_pool_size(self):
        decision = select_topk(report_from_scores({"a": 1.0, "b": 2.0}), 10)
        assert sorted(decision.ids()) == ["a", "b"]
        assert decision.k == 10

    def test_top1_is_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = {f"x{i}": float(rng.uniform(0, 1)) for i in range(10)}
            decision = select_topk(report_from_scores(scores), 1)
            best = max(scores.values())
            assert scores[decision.ids()[0]] == best

    def test_weights_are_selected_scores_normalized(self):
        decision = select_topk(report_from_scores({"a": 3.0, "b": 1.0, "c": 6.0}), 2)
        weights = decision.weights()
        assert weights["c"] == pytest.approx(6.0 / 9.0, rel=1e-15)
        assert weights["a"] == pytest.approx(3.0 / 9.0, rel=1e-15)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_entry_order_does_not_matter(self):
        scores = {"d": 4.0, "b": 2.0, "c": 2.0, "a": 1.0}
        fwd = report_from_scores(scores)
        rev = SignalReport(
            pool_revision=fwd.pool_revision,
            target_block=fwd.target_block,
            token_policy=fwd.token_policy,
            scoring=fwd.scoring,
            adapter_ids=fwd.adapter_ids[::-1],
            outputs=fwd.outputs[::-1],
            score_vector=fwd.score_vector[::-1],
        )
        assert select_topk(fwd, 2).ids() == select_topk(rev, 2).ids()

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            select_topk(report_from_scores({"a": 1.0}), 0)

    def test_empty_report(self):
        empty = SignalReport(1, 0, "last", "norm", (), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValidationError):
            select_topk(empty, 3)

    def test_prefix_nesting(self):
        # Fixed scores: smaller k always selects a prefix of larger k's list.
        rng = np.random.default_rng(3)
        scores = {f"n{i:02d}": float(rng.uniform(0, 1)) for i in range(12)}
        report = report_from_scores(scores)
        ids5 = select_topk(report, 5).ids()
        ids3 = select_topk(report, 3).ids()
        assert ids3 == ids5[:3]


class TestMerging:
    def test_mixture_equals_fusion_on_random_instances(self, tiny_config, tiny_backbone):
        rng = np.random.default_rng(4)
        pool = make_pool(tiny_config, 6, alpha=1.3)
        for trial in range(10):
            tokens = list(rng.integers(0, tiny_config.vocab_size, size=4))
            report = probe(tiny_backbone, pool, tokens)
            decision = select_topk(report, 3)
            mix = mixture_hooks(pool, decision)
            fus = fused_hooks(fuse_parameters(pool, decision))
            h = rng.normal(size=(5, tiny_config.d_model))
            base = np.zeros_like(h)
            for hm, hf in zip(mix, fus):
                assert (hm.block, hm.site) == (hf.block, hf.site)
                dm = hm.fn(hm.block, hm.site, h, base)
                df = hf.fn(hf.block, hf.site, h, base)
                np.testing.assert_allclose(dm, df, rtol=0, atol=1e-10)

    def test_fusion_matches_manual_dense_sum(self, tiny_config):
        pool = make_pool(tiny_config, 4, alpha=2.0)
        report_scores = {f"ad{i:02d}": float(i + 1) for i in range(4)}
        decision = select_topk(report_from_scores(report_scores, revision=pool.revision), 2)
        fused = fuse_parameters(pool, decision)
        weights = decision.weights()
        for (block, site), got in fused.items():
            want = np.zeros((tiny_config.d_model, tiny_config.d_model))
            for adapter_id, w in weights.items():
                ad = pool.get(adapter_id)
                fac = ad.factors[(block, site)]
                want += w * ad.alpha * (fac.a @ fac.b)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_fused_delta_covers_all_sites(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        scores = {"ad00": 1.0, "ad01": 2.0, "ad02": 3.0}
        decision = select_topk(report_from_scores(scores, revision=pool.revision), 2)
        fused = fuse_parameters(pool, decision)
        assert set(fused) == {(j, s) for j in range(tiny_config.n_blocks) for s in ("Q", "V")}
        d = tiny_config.d_model
        assert all(w.shape == (d, d) for w in fused.values())

    def test_mixture_drops_unselected(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        scores = {"ad00": 5.0, "ad01": 4.0, "ad02": 0.1}
        decision = select_topk(report_from_scores(scores, revision=pool.revision), 2)
        hooks = mixture_hooks(pool, decision)
        h = np.random.default_rng(5).normal(size=(2, tiny_config.d_model))
        got = hooks[0].fn(hooks[0].block, hooks[0].site, h, np.zeros_like(h))
        weights = decision.weights()
        want = sum(
            delta_apply(pool.get(i), hooks[0].block, hooks[0].site, h, alpha_override=w * pool.get(i).alpha)
            for i, w in weights.items()
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_mixed_rank_merges_match_delta_apply(self, tiny_config, tiny_backbone):
        # The second pool spans several stacking chunks and every adapter is selected.
        for pool, k in ((make_mixed_pool(tiny_config), 3), (make_chunked_pool(tiny_config), 10**6)):
            decision = select_topk(probe(tiny_backbone, pool, [4, 8, 15, 16]), k)
            fused = fuse_parameters(pool, decision)
            hooks = mixture_hooks(pool, decision)
            assert len(hooks) == 2 * tiny_config.n_blocks
            h = np.random.default_rng(6).normal(size=(5, tiny_config.d_model))
            for hook in hooks:
                want = sum(
                    delta_apply(pool.get(i), hook.block, hook.site, h, alpha_override=w * pool.get(i).alpha)
                    for i, w in decision.weights().items()
                )
                tol = 1e-12 * np.abs(want).max()
                got = hook.fn(hook.block, hook.site, h, np.zeros_like(h))
                np.testing.assert_allclose(got, want, rtol=0, atol=tol)
                dense = h @ fused[(hook.block, hook.site)].T
                np.testing.assert_allclose(dense, want, rtol=0, atol=tol)

    def test_empty_decision_merges_to_bare_model(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        decision = RoutingDecision(k=1, pool_revision=pool.revision, scoring="norm", selected=())
        assert mixture_hooks(pool, decision) == []
        assert fused_hooks(fuse_parameters(pool, decision)) == []

    def test_stacks_once_per_site_and_never_while_decoding(
        self, monkeypatch, tiny_config, tiny_backbone, small_pool
    ):
        decision = select_topk(probe(tiny_backbone, small_pool, [3, 1, 4]), 3)
        stacks = []

        def counted(*args):
            stacks.append(args)
            return original(*args)

        original = adapters_module.dense_operator
        monkeypatch.setattr(adapters_module, "dense_operator", counted)
        hooks = mixture_hooks(small_pool, decision)
        assert len(stacks) == 2 * tiny_config.n_blocks
        stacks.clear()
        tiny_backbone.generate([3, 1, 4], hooks, max_new=8)
        assert stacks == []

    def test_stale_decision_mixture(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        scores = {"ad00": 1.0, "ad01": 2.0, "ad02": 3.0}
        decision = select_topk(report_from_scores(scores, revision=pool.revision), 2)
        pool.remove("ad02")
        with pytest.raises(StaleDecisionError, match="ad02"):
            mixture_hooks(pool, decision)

    def test_stale_decision_fusion(self, tiny_config):
        pool = make_pool(tiny_config, 3)
        scores = {"ad00": 1.0, "ad01": 2.0, "ad02": 3.0}
        decision = select_topk(report_from_scores(scores, revision=pool.revision), 1)
        pool.remove("ad02")
        with pytest.raises(StaleDecisionError):
            fuse_parameters(pool, decision)

    def test_hand_built_decision_naming_a_missing_adapter_is_stale(self, tiny_config):
        pool = make_pool(tiny_config, 2)
        scores = {"ad00": 1.0, "ghost": 2.0}
        decision = select_topk(report_from_scores(scores, revision=pool.revision), 2)
        with pytest.raises(StaleDecisionError, match="ghost"):
            mixture_hooks(pool, decision)


@pytest.mark.parametrize("merge", [mixture_hooks, fuse_parameters], ids=["mixture", "fusion"])
class TestStaleDecision:
    """A decision is refused once the pool moved past the revision it was made at,
    even when every selected id is still present."""

    def _decision(self, tiny_backbone, pool):
        decision = select_topk(probe(tiny_backbone, pool, [3, 1, 4]), 2)
        assert decision.pool_revision == pool.revision
        return decision

    def test_selected_adapter_replaced_under_same_id(self, merge, tiny_config, tiny_backbone):
        pool = make_pool(tiny_config, 4)
        decision = self._decision(tiny_backbone, pool)
        victim = decision.ids()[0]
        pool.remove(victim)
        pool.add(make_adapter(tiny_config, victim, seed=99))
        with pytest.raises(StaleDecisionError, match=victim):
            merge(pool, decision)

    def test_unselected_adapter_removed(self, merge, tiny_config, tiny_backbone):
        pool = make_pool(tiny_config, 4)
        decision = self._decision(tiny_backbone, pool)
        bystander = next(i for i in pool.ids() if i not in decision.ids())
        pool.remove(bystander)
        with pytest.raises(StaleDecisionError, match=f"revision {decision.pool_revision}"):
            merge(pool, decision)


class TestDecisionJson:

    def test_schema_fields(self):
        import json

        decision = select_topk(report_from_scores({"a": 1.0}), 1)
        record = json.loads(json.dumps(decision_record(decision)))
        assert set(record) == {"pool_revision", "k", "scoring", "entries"}
        assert set(record["entries"][0]) == {"id", "score", "weight"}

    def test_scoring_field_follows_report(self):
        for scoring in ("norm", "inverse_entropy"):
            decision = select_topk(report_from_scores({"a": 1.0}, scoring=scoring), 1)
            assert decision_record(decision)["scoring"] == scoring
