"""Top-level acceptance checks.

Each test covers one numbered criterion and prints a ``CRITERION n: PASS/FAIL``
line with the measured values (visible under ``pytest -s``); the test outcome
itself mirrors that verdict, so ``pytest -v`` yields a ten-line scorecard.  The
slow criteria share one module-scoped pool of eight trained adapters.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from loraroute import (
    AdapterPool,
    EngineConfig,
    FormatError,
    ModelConfig,
    RoutingDecision,
    SelectedAdapter,
    SignalConfig,
    SignalEntry,
    SignalReport,
    adapter_from_bytes,
    adapter_to_bytes,
    backbone_from_bytes,
    fuse_parameters,
    fused_hooks,
    init_backbone,
    load_backbone,
    mixture_hooks,
    normalize_weights,
    probe,
    route_and_generate,
    save_backbone,
    score_inverse_entropy,
    score_norm,
    select_topk,
)
from loraroute.harness import default_thresholds_text, make_tasks, signal_heatmap, ablate, timing_sweep, train_toy_adapter

from conftest import make_adapter, make_pool, per_adapter_reference_decode

REFERENCE_MODEL = ModelConfig(
    d_model=64, n_blocks=4, n_heads=4, d_ff=128, vocab_size=256, max_seq_len=256
)
REFERENCE_SIGNAL = SignalConfig(target_block=0, token_policy="first")
THRESHOLDS = json.loads(default_thresholds_text())


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def reference():
    """Eight tasks with one trained adapter each on the 64-wide backbone."""
    backbone = init_backbone(REFERENCE_MODEL, seed=7)
    tasks = make_tasks(
        8, REFERENCE_MODEL.vocab_size, band_width=2, seed=11,
        in_band_prob=1.0, anchor_prob=0.75,
    )
    pool = AdapterPool(REFERENCE_MODEL)
    adapter_for = {}
    t0 = time.perf_counter()
    for i, task in enumerate(tasks):
        adapter = train_toy_adapter(
            backbone, task, rank=4, steps=450, lr=0.3, seed=100 + i,
            weight_decay=0.01, quiet_weight=0.01, length_jitter=1,
        )
        pool.add(adapter)
        adapter_for[task.task_id] = adapter.id
    train_seconds = time.perf_counter() - t0
    return SimpleNamespace(
        backbone=backbone, tasks=tasks, pool=pool,
        adapter_for=adapter_for, train_seconds=train_seconds,
    )


class TestCriterion01MergeModeEquivalence:
    def test_mixture_matches_fusion(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            d = int(rng.choice([8, 16, 32, 64]))
            rank = int(rng.integers(1, 9))
            config = ModelConfig(d, 1, 1, 8, 16, 8)
            pool = AdapterPool(config)
            n = int(rng.integers(1, 6))
            for i in range(n):
                pool.add(
                    make_adapter(
                        config, f"a{i}", seed=int(rng.integers(1 << 30)),
                        rank=rank, alpha=float(rng.uniform(0.25, 4.0)), scale=0.5,
                    )
                )
            n_sel = int(rng.integers(1, n + 1))
            raw = rng.random(n_sel) + 0.1
            weights = raw / raw.sum()
            chosen = rng.choice(n, size=n_sel, replace=False)
            decision = RoutingDecision(
                k=n_sel,
                pool_revision=pool.snapshot()[0],
                scoring="norm",
                selected=tuple(
                    SelectedAdapter(f"a{i}", float(w), float(w))
                    for i, w in zip(chosen, weights)
                ),
            )
            h = rng.normal(size=(6, d))
            fused = fused_hooks(fuse_parameters(pool, decision))
            for site in ("Q", "V"):
                mix = sum(
                    hk.fn(0, site, h, np.zeros_like(h))
                    for hk in mixture_hooks(pool, decision)
                    if hk.block == 0 and hk.site == site
                )
                fus = next(
                    hk for hk in fused if hk.block == 0 and hk.site == site
                ).fn(0, site, h, np.zeros_like(h))
                worst = max(worst, float(np.max(np.abs(mix - fus))))

        config = ModelConfig(32, 2, 2, 64, 64, 96)
        backbone = init_backbone(config, seed=5)
        pool = make_pool(config, 5)
        mismatches = 0
        cfg = EngineConfig(signal=SignalConfig(target_block=0, token_policy="first"), k=3)
        for trial in range(20):
            prompt_rng = np.random.default_rng([13, trial])
            prompt = list(prompt_rng.integers(0, 64, size=int(prompt_rng.integers(4, 11))))
            result = route_and_generate(backbone, pool, prompt, cfg, max_new=12)
            reference = per_adapter_reference_decode(backbone, pool, result.decision, prompt, 12)
            if result.output_tokens != reference:
                mismatches += 1

        ok = worst <= 1e-10 and mismatches == 0
        verdict(
            1, ok,
            f"max |mixture − fused| = {worst:.3e} over 100 pools (tol 1e-10); "
            f"{mismatches}/20 engine decodes differ from the per-adapter reference",
        )


class TestCriterion02WeightContract:
    def test_normalized_weights_over_random_scores(self):
        rng = np.random.default_rng(1)
        worst_sum = 0.0
        worst_inv = 0.0
        for _ in range(10_000):
            n = int(rng.integers(1, 51))
            scores = np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3)
            w = normalize_weights(scores)
            assert np.all(w >= 0.0)
            worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
            c = 10.0 ** rng.uniform(-6, 6)
            worst_inv = max(worst_inv, float(np.max(np.abs(normalize_weights(c * scores) - w))))
        uniform = normalize_weights(np.zeros(7))
        uniform_dev = float(np.max(np.abs(uniform - 1.0 / 7.0)))
        ok = worst_sum <= 1e-12 and worst_inv <= 1e-12 and uniform_dev <= 1e-12
        verdict(
            2, ok,
            f"10,000 vectors: worst |Σw − 1| = {worst_sum:.2e}, worst scale-variance = "
            f"{worst_inv:.2e} (tol 1e-12); all-zero case uniform within {uniform_dev:.2e}",
        )


class TestCriterion03TopKCorrectness:
    def test_selection_matches_brute_force(self):
        rng = np.random.default_rng(2)
        agree = 0
        for _ in range(1000):
            n = int(rng.integers(1, 301))
            scores = rng.integers(0, max(2, n // 8), size=n) / 4.0
            ids = [f"a{i:03d}" for i in range(n)]
            report = SignalReport(
                pool_revision=0, target_block=0, token_policy="first", scoring="norm",
                entries=tuple(
                    SignalEntry(i, np.zeros(1), float(s)) for i, s in zip(ids, scores)
                ),
            )
            k = int(rng.integers(1, n + 3))
            got = select_topk(report, k).ids()
            want = [
                i for _, i in sorted(zip(scores, ids), key=lambda t: (-t[0], t[1]))
            ][: min(k, n)]
            agree += got == want
        verdict(
            3, agree == 1000,
            f"{agree}/1000 tie-laden score vectors ranked identically to "
            "sort-then-truncate (ties broken by ascending id)",
        )


class TestCriterion04SignalClosedForms:
    def test_norm_entropy_and_floor(self):
        norm_exact = score_norm(np.array([3.0, 4.0])) == 5.0
        worst = 0.0
        for d in (2, 4, 8, 64):
            got = score_inverse_entropy(np.full(d, 0.7))
            worst = max(worst, abs(got - 1.0 / np.log(d)))
        floored = score_inverse_entropy(np.array([1000.0, 0.0, 0.0]))
        floor_ok = np.isfinite(floored) and floored == pytest.approx(1e12)
        ok = norm_exact and worst <= 1e-9 and floor_ok
        verdict(
            4, ok,
            f"‖(3,4)‖₂ == 5 exactly: {norm_exact}; constant-vector inverse entropy off "
            f"1/ln d by ≤ {worst:.2e} (tol 1e-9); one-hot path returns finite {floored:.3g}",
        )


class TestCriterion05SingleProbe:
    def test_one_forward_per_probe(self):
        config = ModelConfig(32, 2, 4, 64, 64, 48)
        backbone = init_backbone(config, seed=3)
        rng = np.random.default_rng(4)
        counts = {}
        for n in (1, 4, 16, 64):
            pool = make_pool(config, n, rank=2)
            prompt = list(rng.integers(0, 64, size=8))
            before = backbone.forward_count
            probe(backbone, pool, prompt, SignalConfig(target_block=0, token_policy="first"))
            counts[n] = backbone.forward_count - before
        ok = all(c == 1 for c in counts.values())
        verdict(
            5, ok,
            "forward passes per probe by pool size: "
            + ", ".join(f"N={n}: {c}" for n, c in counts.items()),
        )


class TestCriterion06SignalHeatmap:
    def test_diagonal_dominates_columns_under_both_scorings(self, reference):
        t0 = time.perf_counter()
        fractions = {}
        for scoring in ("norm", "inverse_entropy"):
            cfg = SignalConfig(target_block=0, token_policy="first", scoring=scoring)
            report = signal_heatmap(
                reference.backbone, reference.pool, reference.tasks, cfg,
                n_samples=50, seed=0,
            )
            by_id = {adapter_id: task_id for task_id, adapter_id in reference.adapter_for.items()}
            hits = 0
            for col, adapter_id in enumerate(report.col_labels):
                expected_row = report.row_labels.index(by_id[adapter_id])
                hits += int(np.argmax(report.grid[:, col]) == expected_row)
            fractions[scoring] = hits / len(report.col_labels)
        elapsed = reference.train_seconds + (time.perf_counter() - t0)
        floor = THRESHOLDS["heatmap_diagonal_fraction_min"]
        ok = all(f >= floor for f in fractions.values()) and elapsed <= 600
        verdict(
            6, ok,
            f"diagonal is column max for {fractions['norm']:.0%} (norm) and "
            f"{fractions['inverse_entropy']:.0%} (inverse entropy) of 8 adapters "
            f"(floor {floor:.0%}); {elapsed:.0f}s including training (cap 600s)",
        )


class TestCriterion07RoutingQuality:
    def test_top3_hit_rate_and_accuracy_gain(self, reference):
        t0 = time.perf_counter()
        cfg = EngineConfig(signal=REFERENCE_SIGNAL, k=3)
        hits = total = 0
        for ti, task in enumerate(reference.tasks):
            rng = np.random.default_rng([42, ti])
            truth = reference.adapter_for[task.task_id]
            for _ in range(25):
                prompt = task.sample_prompt(rng, 12)
                report = probe(reference.backbone, reference.pool, prompt, REFERENCE_SIGNAL)
                hits += truth in select_topk(report, 3).ids()
                total += 1
        hit_rate = hits / total

        routed_hits = base_hits = n_eval = 0
        for ti, task in enumerate(reference.tasks):
            rng = np.random.default_rng([7, ti])
            for _ in range(25):
                prompt = task.sample_prompt(rng, 12)
                target = task.target_next(prompt)
                routed = route_and_generate(
                    reference.backbone, reference.pool, prompt, cfg, max_new=1
                ).output_tokens[0]
                base = reference.backbone.generate(prompt, (), max_new=1).tokens[0]
                routed_hits += routed == target
                base_hits += base == target
                n_eval += 1
        gain_points = 100.0 * (routed_hits - base_hits) / n_eval
        elapsed = time.perf_counter() - t0

        ok = (
            hit_rate >= THRESHOLDS["top3_hit_rate_min"]
            and gain_points >= THRESHOLDS["routed_gain_points_min"]
        )
        verdict(
            7, ok,
            f"ground truth in top-3 for {hit_rate:.1%} of {total} held-out prompts "
            f"(floor {THRESHOLDS['top3_hit_rate_min']:.0%}); routed k=3 accuracy "
            f"{100.0 * routed_hits / n_eval:.1f}% vs base {100.0 * base_hits / n_eval:.1f}% "
            f"(gain {gain_points:.1f}pt, floor {THRESHOLDS['routed_gain_points_min']:.0f}pt); "
            f"{elapsed:.0f}s",
        )


class TestCriterion08Amortization:
    def test_per_token_cost_falls_with_length_and_routed_covers_base(self):
        backbone = init_backbone(REFERENCE_MODEL, seed=7)
        pool = AdapterPool(REFERENCE_MODEL)
        for i in range(16):
            pool.add(make_adapter(REFERENCE_MODEL, f"rnd{i:02d}", seed=i, rank=4, scale=0.1))
        (task,) = make_tasks(1, 256, band_width=2, seed=11, in_band_prob=1.0)
        report = timing_sweep(
            backbone, pool, task, [10, 200],
            EngineConfig(signal=REFERENCE_SIGNAL, k=4),
            prompt_len=28, seed=0, repeats=5,
        )
        short, long = report.records
        amortizes = long["routed_ms_per_token"] < short["routed_ms_per_token"]
        covers = all(
            r["routed_ms_per_token"] >= r["base_ms_per_token"] for r in report.records
        )
        verdict(
            8, amortizes and covers,
            f"routed per-token cost {short['routed_ms_per_token']:.3f}ms @10 → "
            f"{long['routed_ms_per_token']:.3f}ms @200 (must fall); base "
            f"{short['base_ms_per_token']:.3f}ms @10, {long['base_ms_per_token']:.3f}ms @200 "
            f"(routed must stay above)",
        )


class TestCriterion09AblationRobustness:
    def test_policy_spread_and_k_insensitivity(self, reference):
        t0 = time.perf_counter()
        cfg = EngineConfig(signal=REFERENCE_SIGNAL, k=3)
        policy = ablate(
            reference.backbone, reference.pool, reference.tasks,
            "token_policy", ["first", "last", "mean"], cfg, n_samples=25, seed=0,
        )
        policy_spread_points = 100.0 * policy.metadata["spread"]
        k_report = ablate(
            reference.backbone, reference.pool, reference.tasks,
            "k", [3, len(reference.pool.ids())], cfg, n_samples=25, seed=0,
        )
        k_means = k_report.metadata["mean_accuracy"]
        k_gap_points = 100.0 * abs(k_means["3"] - k_means["8"])
        elapsed = time.perf_counter() - t0

        ok = (
            policy_spread_points <= THRESHOLDS["policy_spread_points_max"]
            and k_gap_points <= THRESHOLDS["k_gap_points_max"]
        )
        verdict(
            9, ok,
            f"accuracy spread across token policies {policy_spread_points:.1f}pt "
            f"(cap {THRESHOLDS['policy_spread_points_max']:.0f}pt); |k=3 − k=8| = "
            f"{k_gap_points:.1f}pt (cap {THRESHOLDS['k_gap_points_max']:.0f}pt); {elapsed:.0f}s",
        )


class TestCriterion10WireFormats:
    def test_round_trips_and_structured_corruption_errors(self, tmp_path):
        config = ModelConfig(16, 2, 2, 32, 32, 16)
        backbone = init_backbone(config, seed=9)
        p1, p2 = tmp_path / "a.lgbk", tmp_path / "b.lgbk"
        save_backbone(backbone, str(p1))
        save_backbone(load_backbone(str(p1)), str(p2))
        backbone_ok = p1.read_bytes() == p2.read_bytes()

        adapter = make_adapter(config, "rt", seed=1, rank=3)
        blob = adapter_to_bytes(adapter)
        adapter_ok = adapter_to_bytes(adapter_from_bytes(blob)) == blob

        model_blob = p1.read_bytes()
        failures = []
        for name, parser, data in (
            ("backbone magic", backbone_from_bytes, b"XXXX" + model_blob[4:]),
            ("backbone version", backbone_from_bytes, model_blob[:4] + b"\xff" + model_blob[5:]),
            ("backbone truncation", backbone_from_bytes, model_blob[: len(model_blob) // 2]),
            ("adapter magic", adapter_from_bytes, b"XXXX" + blob[4:]),
            ("adapter version", adapter_from_bytes, blob[:4] + b"\xff" + blob[5:]),
            ("adapter truncation", adapter_from_bytes, blob[: len(blob) // 2]),
        ):
            try:
                parser(data)
                failures.append(f"{name}: accepted")
            except FormatError:
                pass
            except Exception as exc:  # noqa: BLE001 — anything else is the wrong error type
                failures.append(f"{name}: {type(exc).__name__}")

        ok = backbone_ok and adapter_ok and not failures
        verdict(
            10, ok,
            f"backbone bitwise round-trip: {backbone_ok}; adapter bitwise round-trip: "
            f"{adapter_ok}; corrupted magic/version/truncation all raised the format "
            f"error{'' if not failures else ' EXCEPT ' + ', '.join(failures)}",
        )
