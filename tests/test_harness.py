import csv
import io
import json
import os

import numpy as np
import pytest

from loraroute import (
    EngineConfig,
    LoraFactors,
    ModelConfig,
    ProjectionHook,
    SignalConfig,
    TrainingDivergedError,
    ValidationError,
    adapter_to_bytes,
    init_backbone,
)
from loraroute.adapters import AdapterPool, LoraAdapter
from loraroute.harness import (
    DEFAULT_PROMPT_LEN,
    ExperimentReport,
    SyntheticTask,
    ablate,
    alignment_analysis,
    cosine_similarity,
    embed_prompt,
    load_tasks,
    load_thresholds,
    loss_and_grads,
    make_tasks,
    minmax_normalize_columns,
    negative_grams,
    quiet_penalty_and_grads,
    save_report,
    save_tasks,
    selection_counts,
    signal_heatmap,
    timing_sweep,
    train_toy_adapter,
)
from loraroute.harness.thresholds import REQUIRED_KEYS, THRESHOLDS_ENV_VAR

from conftest import delta_apply_hooks, make_adapter, make_pool


# -- synthetic tasks ---------------------------------------------------------------


class TestSyntheticTask:
    def test_band_properties(self):
        task = SyntheticTask("t", 64, 8, (9, 10, 11, 8))
        assert task.band_width == 4
        assert list(task.band) == [8, 9, 10, 11]

    def test_band_outside_vocab_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticTask("t", 8, 6, (6, 7, 8))

    def test_permutation_must_be_bijection_on_band(self):
        with pytest.raises(ValidationError):
            SyntheticTask("t", 64, 0, (0, 0))
        with pytest.raises(ValidationError):
            SyntheticTask("t", 64, 0, (1, 2))

    def test_probability_fields_validated(self):
        with pytest.raises(ValidationError):
            SyntheticTask("t", 64, 0, (1, 0), in_band_prob=0.0)
        with pytest.raises(ValidationError):
            SyntheticTask("t", 64, 0, (1, 0), anchor_prob=1.5)
        with pytest.raises(ValidationError):
            SyntheticTask("t", 64, 0, (1, 0), anchor_prob=-0.1)

    def test_target_next_applies_permutation_to_last_token(self):
        task = SyntheticTask("t", 64, 4, (5, 6, 7, 4))
        assert task.target_next([9, 9, 4]) == 5
        assert task.target_next([4, 7]) == 4

    def test_target_next_rejects_out_of_band_ending(self):
        task = SyntheticTask("t", 64, 4, (5, 4))
        with pytest.raises(ValidationError):
            task.target_next([4, 20])


class TestSamplePrompt:
    def test_endpoints_always_in_band(self):
        task = SyntheticTask("t", 64, 10, (11, 10), in_band_prob=0.5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            prompt = task.sample_prompt(rng, length=6)
            assert prompt[0] in task.band and prompt[-1] in task.band

    def test_full_anchor_prompt_repeats_one_token(self):
        task = SyntheticTask("t", 64, 10, (11, 10), in_band_prob=1.0, anchor_prob=1.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            prompt = task.sample_prompt(rng, length=8)
            assert len(set(prompt)) == 1 and prompt[0] in task.band

    def test_interior_leaves_band_at_roughly_one_minus_in_band_prob(self):
        task = SyntheticTask("t", 256, 0, (1, 0), in_band_prob=0.6)
        rng = np.random.default_rng(2)
        interior = [t for _ in range(500) for t in task.sample_prompt(rng, 10)[1:-1]]
        out_rate = np.mean([t not in task.band for t in interior])
        # out-of-band draws are vocab-uniform, so a few land back in the band
        assert 0.3 < out_rate < 0.45

    def test_same_rng_state_same_prompt(self):
        task = SyntheticTask("t", 64, 2, (3, 2), anchor_prob=0.5)
        a = task.sample_prompt(np.random.default_rng(9), 12)
        b = task.sample_prompt(np.random.default_rng(9), 12)
        assert a == b

    def test_length_validated(self):
        task = SyntheticTask("t", 64, 2, (3, 2))
        with pytest.raises(ValidationError):
            task.sample_prompt(np.random.default_rng(0), 0)


class TestMakeTasks:
    def test_bands_are_disjoint_and_sized(self):
        tasks = make_tasks(6, 64, band_width=3, seed=0)
        assert len(tasks) == 6
        seen: set[int] = set()
        for task in tasks:
            band = set(task.band)
            assert len(band) == 3
            assert not band & seen
            seen |= band

    def test_too_many_tasks_for_vocab_rejected(self):
        with pytest.raises(ValidationError):
            make_tasks(10, 16, band_width=2)

    def test_deterministic(self):
        a = make_tasks(4, 64, band_width=2, seed=3, anchor_prob=0.5)
        b = make_tasks(4, 64, band_width=2, seed=3, anchor_prob=0.5)
        assert a == b

    def test_knobs_propagate(self):
        (task,) = make_tasks(1, 64, band_width=2, in_band_prob=0.7, anchor_prob=0.25)
        assert task.in_band_prob == 0.7
        assert task.anchor_prob == 0.25


class TestTaskManifest:
    def test_round_trip_with_labels(self, tmp_path):
        tasks = make_tasks(3, 64, band_width=2, seed=5, in_band_prob=0.8, anchor_prob=0.4)
        labels = {"a0": tasks[0].task_id, "a1": tasks[1].task_id}
        path = tmp_path / "tasks.json"
        save_tasks(str(path), tasks, labels)
        loaded, loaded_labels = load_tasks(str(path))
        assert loaded == tasks
        assert loaded_labels == labels

    def test_malformed_file_raises(self, tmp_path):
        good = tmp_path / "good.json"
        save_tasks(str(good), make_tasks(2, 64, band_width=2, seed=5), {"a0": "task00"})
        record = json.loads(good.read_text())

        def edited(edit):
            copy = json.loads(json.dumps(record))
            edit(copy)
            return json.dumps(copy).encode()

        cases = [
            b"{not json",
            b"\xff",
            edited(lambda r: r.update(vocab_size="abc")),
            edited(lambda r: r["tasks"][0].update(band_start="x")),
            edited(lambda r: r["tasks"][1].update(in_band_prob="nan?")),
            edited(lambda r: r.update(adapters=["a"])),
        ]
        path = tmp_path / "bad.json"
        for raw in cases:
            path.write_bytes(raw)
            with pytest.raises(ValidationError, match="malformed tasks file"):
                load_tasks(str(path))

    def test_task_rule_error_passes_through(self, tmp_path):
        path = tmp_path / "tasks.json"
        save_tasks(str(path), make_tasks(1, 64, band_width=2, seed=5))
        record = json.loads(path.read_text())
        record["tasks"][0]["in_band_prob"] = 2.0
        path.write_text(json.dumps(record))
        with pytest.raises(ValidationError, match=r"^in_band_prob must be in"):
            load_tasks(str(path))


# -- trainer -----------------------------------------------------------------------


def _one_task(vocab=64):
    return make_tasks(1, vocab, band_width=2, seed=11, in_band_prob=1.0)[0]


def task_loss(backbone, task, hooks=(), n_samples=50, seed=0):
    """Mean next-token cross-entropy at the final prompt position."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        prompt = task.sample_prompt(rng, DEFAULT_PROMPT_LEN)
        target = task.target_next(prompt)
        logits = backbone.forward(prompt, hooks).logits[-1]
        shifted = logits - np.max(logits)
        total += float(np.log(np.sum(np.exp(shifted))) - shifted[target])
    return total / n_samples


class TestTrainer:
    def test_zero_steps_rejected(self, tiny_backbone):
        with pytest.raises(ValidationError):
            train_toy_adapter(tiny_backbone, _one_task(), steps=0)

    def test_one_step_changes_factors(self, tiny_backbone):
        adapter = train_toy_adapter(tiny_backbone, _one_task(), rank=2, steps=1, seed=0)
        moved = any(
            np.any(f.a != 0) and np.any(f.b != 0) for f in adapter.factors.values()
        )
        assert moved

    def test_same_seed_same_bytes(self, tiny_backbone):
        kwargs = dict(rank=2, steps=3, lr=0.2, seed=4, weight_decay=0.01, quiet_weight=0.01)
        a = train_toy_adapter(tiny_backbone, _one_task(), **kwargs)
        b = train_toy_adapter(tiny_backbone, _one_task(), **kwargs)
        assert adapter_to_bytes(a) == adapter_to_bytes(b)

    def test_divergence_error_names_step(self, tiny_backbone):
        # the quiet penalty is quartic in the factors, so an absurd lr overflows
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match=r"step \d+"):
            train_toy_adapter(
                tiny_backbone, _one_task(), rank=2, steps=50, lr=50.0, seed=0, quiet_weight=1.0
            )

    def test_held_out_loss_beats_base_by_committed_margin(self, tiny_backbone):
        task = _one_task()
        adapter = train_toy_adapter(tiny_backbone, task, rank=2, steps=120, lr=0.3, seed=1)
        base = task_loss(tiny_backbone, task, (), n_samples=40, seed=999)
        hooks = delta_apply_hooks(tiny_backbone.config.n_blocks, [(adapter, adapter.alpha)])
        adapted = task_loss(tiny_backbone, task, hooks, n_samples=40, seed=999)
        improvement = (base - adapted) / base
        assert improvement >= load_thresholds()["train_loss_improvement_min"]


class TestTrainerGradients:
    def _setup(self, tiny_backbone, rank=2, seed=0):
        rng = np.random.default_rng(seed)
        cfg = tiny_backbone.config
        params = {}
        for j in range(cfg.n_blocks):
            for site in ("Q", "V"):
                params[(j, site)] = [
                    rng.normal(size=(cfg.d_model, rank)) * 0.2,
                    rng.normal(size=(rank, cfg.d_model)) * 0.2,
                ]
        ids = rng.integers(0, cfg.vocab_size, size=(3, 5))
        targets = rng.integers(0, cfg.vocab_size, size=3)
        return params, ids, targets

    def test_loss_matches_backbone_forward(self, tiny_backbone):
        params, ids, targets = self._setup(tiny_backbone)
        loss, _ = loss_and_grads(tiny_backbone, params, 1.0, ids, targets)
        total = 0.0
        factors = {k: LoraFactors(v[0], v[1]) for k, v in params.items()}
        adapter = LoraAdapter(id="x", alpha=1.0, factors=factors)
        hooks = delta_apply_hooks(tiny_backbone.config.n_blocks, [(adapter, adapter.alpha)])
        for row, target in zip(ids, targets):
            logits = tiny_backbone.forward(list(row), hooks).logits[-1]
            shifted = logits - logits.max()
            total += np.log(np.exp(shifted).sum()) - shifted[target]
        assert loss == pytest.approx(total / len(ids), rel=1e-10)

    def test_gradients_match_finite_differences(self, tiny_backbone):
        params, ids, targets = self._setup(tiny_backbone)
        _, grads = loss_and_grads(tiny_backbone, params, 1.0, ids, targets)
        eps = 1e-6
        rng = np.random.default_rng(7)
        for key in [(0, "Q"), (1, "V")]:
            for slot in (0, 1):
                arr = params[key][slot]
                for _ in range(3):
                    i = tuple(rng.integers(0, s) for s in arr.shape)
                    orig = arr[i]
                    arr[i] = orig + eps
                    up, _ = loss_and_grads(tiny_backbone, params, 1.0, ids, targets)
                    arr[i] = orig - eps
                    down, _ = loss_and_grads(tiny_backbone, params, 1.0, ids, targets)
                    arr[i] = orig
                    fd = (up - down) / (2 * eps)
                    assert grads[key][slot][i] == pytest.approx(fd, rel=2e-4, abs=1e-7)

    def test_quiet_penalty_gradients_match_finite_differences(self, tiny_backbone):
        params, _, _ = self._setup(tiny_backbone, seed=3)
        rng = np.random.default_rng(5)
        neg = rng.integers(0, tiny_backbone.config.vocab_size, size=(4, 6))
        grams = negative_grams(tiny_backbone, neg)
        _, pgrads = quiet_penalty_and_grads(params, 1.3, grams)
        eps = 1e-6
        for key in [(0, "Q"), (1, "V")]:
            for slot in (0, 1):
                arr = params[key][slot]
                i = (0, 0)
                orig = arr[i]
                arr[i] = orig + eps
                up, _ = quiet_penalty_and_grads(params, 1.3, grams)
                arr[i] = orig - eps
                down, _ = quiet_penalty_and_grads(params, 1.3, grams)
                arr[i] = orig
                fd = (up - down) / (2 * eps)
                assert pgrads[key][slot][i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_quiet_penalty_equals_mean_squared_response(self, tiny_backbone):
        """The Gram-matrix shortcut must equal directly measured ‖αABu‖²."""
        params, _, _ = self._setup(tiny_backbone, seed=8)
        rng = np.random.default_rng(9)
        neg = rng.integers(0, tiny_backbone.config.vocab_size, size=(3, 5))
        grams = negative_grams(tiny_backbone, neg)
        penalty, _ = quiet_penalty_and_grads(params, 0.7, grams)

        captured = {}

        def make_spy(j):
            def spy(block, site, h, base):
                captured[j] = np.array(h)
                return np.zeros_like(base)

            return spy

        spies = [
            ProjectionHook(j, "Q", make_spy(j))
            for j in range(tiny_backbone.config.n_blocks)
        ]
        per_site = []
        for key, (a, b) in params.items():
            total, count = 0.0, 0
            for row in neg:
                tiny_backbone.forward(list(row), spies)
                u = captured[key[0]]
                delta = 0.7 * (u @ b.T) @ a.T
                total += float((delta**2).sum())
                count += u.shape[0]
            per_site.append(total / count)
        assert penalty == pytest.approx(np.mean(per_site), rel=1e-10)


class TestNegativeGrams:
    def test_one_psd_gram_per_block(self, tiny_backbone):
        rng = np.random.default_rng(0)
        neg = rng.integers(0, tiny_backbone.config.vocab_size, size=(4, 6))
        grams = negative_grams(tiny_backbone, neg)
        assert len(grams) == tiny_backbone.config.n_blocks
        for g in grams:
            assert g.shape == (32, 32)
            assert np.allclose(g, g.T)
            assert np.linalg.eigvalsh(g).min() > -1e-10


# -- reports -----------------------------------------------------------------------


class TestExperimentReport:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentReport(kind="scatter")

    def test_grid_shape_must_match_labels(self):
        with pytest.raises(ValidationError):
            ExperimentReport(
                kind="heatmap",
                row_labels=("a",),
                col_labels=("x", "y"),
                grid=np.zeros((2, 2)),
            )

    def test_grid_must_be_finite(self):
        with pytest.raises(ValidationError):
            ExperimentReport(
                kind="heatmap",
                row_labels=("a",),
                col_labels=("x",),
                grid=np.array([[np.nan]]),
            )

    def test_records_must_share_keys(self):
        with pytest.raises(ValidationError):
            ExperimentReport(kind="timing", records=({"a": 1}, {"b": 2}))

    def test_csv_round_trip_is_lossless(self):
        rng = np.random.default_rng(0)
        report = ExperimentReport(
            kind="heatmap",
            row_axis="task",
            col_axis="adapter",
            row_labels=("t0", "t1", "t2"),
            col_labels=("a0", "a1"),
            grid=rng.normal(size=(3, 2)),
            metadata={"seed": 0},
        )
        header, *rows = csv.reader(io.StringIO(report.to_csv()))
        assert header == ["task/adapter", "a0", "a1"]
        assert tuple(row[0] for row in rows) == report.row_labels
        for row, want in zip(rows, report.grid):
            assert [float(cell) for cell in row[1:]] == list(want)

    def test_csv_quotes_labels_with_commas_and_quotes(self):
        report = ExperimentReport(
            kind="heatmap",
            row_axis="task",
            col_axis="adapter",
            row_labels=("t,0",),
            col_labels=("a,b", 'q"x'),
            grid=np.array([[0.5, 1.0]]),
        )
        header, row = csv.reader(io.StringIO(report.to_csv()))
        assert header == ["task/adapter", "a,b", 'q"x']
        assert row == ["t,0", "0.5", "1.0"]

    def test_csv_first_row_names_axes(self):
        report = ExperimentReport(
            kind="ablation",
            row_axis="k",
            col_axis="task",
            row_labels=("1",),
            col_labels=("t0",),
            grid=np.ones((1, 1)),
        )
        assert report.to_csv().splitlines()[0] == "k/task,t0"

    def test_json_round_trip_both_shapes(self):
        grid_report = ExperimentReport(
            kind="selection_counts",
            row_labels=("a",),
            col_labels=("rank_1",),
            grid=np.array([[3.0]]),
            metadata={"k": 1},
        )
        assert json.loads(grid_report.to_json()) == {
            "kind": "selection_counts",
            "row_axis": "row",
            "col_axis": "col",
            "row_labels": ["a"],
            "col_labels": ["rank_1"],
            "grid": [[3.0]],
            "metadata": {"k": 1},
        }
        record_report = ExperimentReport(
            kind="timing",
            records=({"length": 10, "routed_ms_per_token": 1.5},),
            metadata={"repeats": 3},
        )
        assert json.loads(record_report.to_json()) == {
            "kind": "timing",
            "axes": ["length", "routed_ms_per_token"],
            "records": [{"length": 10, "routed_ms_per_token": 1.5}],
            "metadata": {"repeats": 3},
        }

    def test_record_json_names_axes_first(self):
        report = ExperimentReport(kind="timing", records=({"length": 1, "ms": 2.0},))
        body = json.loads(report.to_json())
        assert body["axes"] == ["length", "ms"]

    def test_save_report_picks_format_by_kind(self, tmp_path):
        grid = ExperimentReport(
            kind="heatmap", row_labels=("t",), col_labels=("a",), grid=np.ones((1, 1))
        )
        records = ExperimentReport(kind="alignment", records=({"median": 0.5},))
        gpath, rpath = tmp_path / "g.csv", tmp_path / "r.json"
        save_report(grid, str(gpath))
        save_report(records, str(rpath))
        assert gpath.read_text().startswith("row/col,")
        assert json.loads(rpath.read_text())["kind"] == "alignment"


class TestMinMaxNormalize:
    def test_columns_span_unit_interval(self):
        rng = np.random.default_rng(1)
        out = minmax_normalize_columns(rng.normal(size=(6, 4)))
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(2)
        grid = rng.normal(size=(7, 5)) * 40.0
        once = minmax_normalize_columns(grid)
        twice = minmax_normalize_columns(once)
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_constant_column_maps_to_zero(self):
        grid = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = minmax_normalize_columns(grid)
        assert np.array_equal(out[:, 0], [0.0, 0.0])
        assert np.array_equal(out[:, 1], [0.0, 1.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            minmax_normalize_columns(np.ones(3))
        with pytest.raises(ValidationError):
            minmax_normalize_columns(np.array([[np.inf]]))


# -- experiments over random pools ----------------------------------------------


@pytest.fixture
def two_tasks():
    return make_tasks(2, 64, band_width=2, seed=1, in_band_prob=1.0)


FIRST_BLOCK = SignalConfig(target_block=0, token_policy="first")


class TestSignalHeatmap:
    def test_requires_two_tasks_and_two_adapters(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 3)
        with pytest.raises(ValidationError):
            signal_heatmap(tiny_backbone, pool, two_tasks[:1], FIRST_BLOCK, n_samples=2)
        with pytest.raises(ValidationError):
            signal_heatmap(tiny_backbone, make_pool(tiny_config, 1), two_tasks, FIRST_BLOCK, n_samples=2)
        with pytest.raises(ValidationError):
            signal_heatmap(tiny_backbone, pool, two_tasks, FIRST_BLOCK, n_samples=0)

    def test_normalized_columns_span_unit_interval(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 3)
        report = signal_heatmap(tiny_backbone, pool, two_tasks, FIRST_BLOCK, n_samples=4)
        assert report.kind == "heatmap"
        assert report.grid.shape == (2, 3)
        assert np.allclose(report.grid.min(axis=0), 0.0)
        assert np.allclose(report.grid.max(axis=0), 1.0)

    def test_identical_adapters_give_equal_columns(self, tiny_backbone, tiny_config, two_tasks):
        # min-max normalization maps identical columns to identical columns
        pool = AdapterPool(tiny_config)
        pool.add(make_adapter(tiny_config, "twin-a", seed=42))
        pool.add(make_adapter(tiny_config, "twin-b", seed=42))
        report = signal_heatmap(tiny_backbone, pool, two_tasks, FIRST_BLOCK, n_samples=4)
        assert np.allclose(report.grid[:, 0], report.grid[:, 1])

    def test_byte_reproducible_under_fixed_seed(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 3)
        a = signal_heatmap(tiny_backbone, pool, two_tasks, FIRST_BLOCK, n_samples=4, seed=5)
        b = signal_heatmap(tiny_backbone, pool, two_tasks, FIRST_BLOCK, n_samples=4, seed=5)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()


class TestSelectionCounts:
    def test_mass_identity(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 5)
        for k in (1, 3, 9):
            report = selection_counts(
                tiny_backbone, pool, two_tasks[0],
                EngineConfig(signal=FIRST_BLOCK, k=k), n_samples=11,
            )
            assert report.grid.sum() == 11 * min(k, 5)
            assert report.grid.shape == (5, min(k, 5))

    def test_dominant_adapter_always_ranks_first(self, tiny_backbone, tiny_config, two_tasks):
        pool = AdapterPool(tiny_config)
        pool.add(make_adapter(tiny_config, "loud", seed=0, alpha=100.0))
        for i in range(3):
            pool.add(make_adapter(tiny_config, f"quiet{i}", seed=10 + i, alpha=1.0))
        report = selection_counts(
            tiny_backbone, pool, two_tasks[0],
            EngineConfig(signal=FIRST_BLOCK, k=1), n_samples=20,
        )
        loud_row = report.row_labels.index("loud")
        assert report.grid[loud_row, 0] == 20

    def test_single_adapter_pool_trivially_selected(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 1)
        report = selection_counts(
            tiny_backbone, pool, two_tasks[0],
            EngineConfig(signal=FIRST_BLOCK, k=4), n_samples=7,
        )
        assert report.grid.shape == (1, 1)
        assert report.grid[0, 0] == 7


class TestAlignmentAnalysis:
    def test_cosine_similarity_basics(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)
        assert cosine_similarity(v, -2.0 * v) == pytest.approx(-1.0, abs=1e-9)
        assert cosine_similarity(v, np.zeros(3)) == 0.0

    def test_embed_prompt_is_mean_pooled_final_hidden(self, tiny_backbone):
        tokens = [1, 2, 3]
        expected = tiny_backbone.forward(tokens).final_hidden.mean(axis=0)
        assert np.allclose(embed_prompt(tiny_backbone, tokens), expected)

    def test_unlabeled_adapters_skipped_and_counted(self, tiny_backbone, tiny_config, two_tasks):
        pool = AdapterPool(tiny_config)
        pool.add(make_adapter(tiny_config, "lab0", seed=0))
        pool.add(make_adapter(tiny_config, "mystery", seed=1))
        report = alignment_analysis(
            tiny_backbone, pool, two_tasks, {"lab0": two_tasks[0].task_id},
            EngineConfig(signal=FIRST_BLOCK, k=2), n_samples=6, n_reference=3,
        )
        assert report.metadata["skipped_unlabeled"] == 1
        assert report.metadata["n_pairs"] == 6  # the labeled adapter's pairs only

    def test_records_are_ordered_buckets_with_quartiles(self, tiny_backbone, tiny_config, two_tasks):
        pool = AdapterPool(tiny_config)
        labels = {}
        for i, task in enumerate(two_tasks):
            pool.add(make_adapter(tiny_config, f"a{i}", seed=i))
            labels[f"a{i}"] = task.task_id
        report = alignment_analysis(
            tiny_backbone, pool, two_tasks, labels,
            EngineConfig(signal=FIRST_BLOCK, k=2), n_samples=8, n_reference=3,
        )
        assert report.kind == "alignment"
        lows = [r["bucket_low"] for r in report.records]
        assert lows == sorted(lows)
        for r in report.records:
            assert r["min_similarity"] <= r["q1"] <= r["median"] <= r["q3"] <= r["max_similarity"]
            assert -1.0 - 1e-9 <= r["min_similarity"] and r["max_similarity"] <= 1.0 + 1e-9

    def test_deterministic_given_seed(self, tiny_backbone, tiny_config, two_tasks):
        pool = AdapterPool(tiny_config)
        labels = {}
        for i, task in enumerate(two_tasks):
            pool.add(make_adapter(tiny_config, f"a{i}", seed=i))
            labels[f"a{i}"] = task.task_id
        kwargs = dict(n_samples=6, n_reference=3, seed=4)
        cfg = EngineConfig(signal=FIRST_BLOCK, k=2)
        a = alignment_analysis(tiny_backbone, pool, two_tasks, labels, cfg, **kwargs)
        b = alignment_analysis(tiny_backbone, pool, two_tasks, labels, cfg, **kwargs)
        assert a.to_json() == b.to_json()


class TestAblate:
    def test_invalid_axis_and_empty_values_rejected(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 2)
        with pytest.raises(ValidationError):
            ablate(tiny_backbone, pool, two_tasks, "alpha", [1])
        with pytest.raises(ValidationError):
            ablate(tiny_backbone, pool, two_tasks, "k", [])

    def test_k_boundaries_produce_finite_accuracies(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 3)
        report = ablate(
            tiny_backbone, pool, two_tasks, "k", [1, 3],
            EngineConfig(signal=FIRST_BLOCK, k=1), n_samples=3,
        )
        assert report.grid.shape == (2, 2)
        assert np.all((report.grid >= 0) & (report.grid <= 1))
        assert set(report.metadata["mean_accuracy"]) == {"1", "3"}

    def test_target_block_endpoints_run_on_four_block_model(self, two_tasks):
        config = ModelConfig(d_model=16, n_blocks=4, n_heads=2, d_ff=32, vocab_size=64, max_seq_len=32)
        backbone = init_backbone(config, seed=3)
        pool = make_pool(config, 2, rank=2)
        report = ablate(
            backbone, pool, two_tasks, "target_block", [0, 3],
            EngineConfig(signal=FIRST_BLOCK, k=1), n_samples=2,
        )
        assert report.row_labels == ("0", "3")

    def test_token_policy_rows_and_spread(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 2)
        report = ablate(
            tiny_backbone, pool, two_tasks, "token_policy", ["first", "last", "mean"],
            EngineConfig(signal=FIRST_BLOCK, k=1), n_samples=3,
        )
        assert report.row_labels == ("first", "last", "mean")
        means = list(report.metadata["mean_accuracy"].values())
        assert report.metadata["spread"] == pytest.approx(max(means) - min(means))

    def test_byte_reproducible(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 2)
        runs = [
            ablate(
                tiny_backbone, pool, two_tasks, "k", [1, 2],
                EngineConfig(signal=FIRST_BLOCK, k=1), n_samples=3, seed=8,
            ).to_csv()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestTimingSweep:
    def test_validates_length_sequence(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 2)
        eng = EngineConfig(signal=FIRST_BLOCK, k=1)
        with pytest.raises(ValidationError):
            timing_sweep(tiny_backbone, pool, two_tasks[0], [], eng)
        with pytest.raises(ValidationError):
            timing_sweep(tiny_backbone, pool, two_tasks[0], [10, 5], eng)
        with pytest.raises(ValidationError):
            timing_sweep(tiny_backbone, pool, two_tasks[0], [5, 4000], eng)

    def test_single_length_emits_one_record_and_no_comparison(
        self, tiny_backbone, tiny_config, two_tasks
    ):
        pool = make_pool(tiny_config, 2)
        report = timing_sweep(
            tiny_backbone, pool, two_tasks[0], [1],
            EngineConfig(signal=FIRST_BLOCK, k=1), repeats=1,
        )
        assert len(report.records) == 1
        assert "routed_first_to_last" not in report.metadata

    def test_record_schema_and_positive_times(self, tiny_backbone, tiny_config, two_tasks):
        pool = make_pool(tiny_config, 2)
        report = timing_sweep(
            tiny_backbone, pool, two_tasks[0], [2, 6],
            EngineConfig(signal=FIRST_BLOCK, k=1), repeats=1,
        )
        assert [r["length"] for r in report.records] == [2, 6]
        for r in report.records:
            assert r["routed_ms_per_token"] > 0
            assert r["base_ms_per_token"] > 0
        assert "routed_first_to_last" in report.metadata


# -- thresholds --------------------------------------------------------------------


class TestThresholds:
    def test_committed_file_has_every_key(self):
        values = load_thresholds()
        for key in REQUIRED_KEYS:
            assert key in values
            assert isinstance(values[key], float)

    def test_env_var_substitutes_file(self, tmp_path, monkeypatch):
        custom = dict.fromkeys(REQUIRED_KEYS, 0.42)
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(custom))
        monkeypatch.setenv(THRESHOLDS_ENV_VAR, str(path))
        assert load_thresholds() == {k: 0.42 for k in REQUIRED_KEYS}

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(dict.fromkeys(REQUIRED_KEYS, 1.0)))
        b.write_text(json.dumps(dict.fromkeys(REQUIRED_KEYS, 2.0)))
        monkeypatch.setenv(THRESHOLDS_ENV_VAR, str(a))
        assert load_thresholds(str(b))["top3_hit_rate_min"] == 2.0

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"top3_hit_rate_min": 0.8}))
        with pytest.raises(ValidationError):
            load_thresholds(str(path))

    def test_infinity_is_no_bound(self, tmp_path):
        path = tmp_path / "open.json"
        record = dict.fromkeys(REQUIRED_KEYS, 0.5)
        path.write_text(json.dumps(record).replace("0.5", "Infinity", 1).replace("0.5", "-Infinity", 1))
        values = list(load_thresholds(str(path)).values())
        assert values[:3] == [float("inf"), float("-inf"), 0.5]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        nan = json.dumps(dict.fromkeys(REQUIRED_KEYS, 0.5)).replace("0.5", "NaN", 1)
        huge = json.dumps(dict.fromkeys(REQUIRED_KEYS, 0.5)).replace("0.5", "9" * 401, 1)
        for raw in (b"[1, 2", b"\xff", nan.encode(), huge.encode()):
            path.write_bytes(raw)
            with pytest.raises(ValidationError, match="malformed thresholds file"):
                load_thresholds(str(path))
