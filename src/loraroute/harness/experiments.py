"""Desk-scale analyses of routing behavior over synthetic task pools.

Five analyses, each returning an :class:`~loraroute.harness.reports.ExperimentReport`:

* :func:`signal_heatmap` — mean probe score per (task, adapter), per-adapter
  min-max normalized; block structure means signals identify the right adapter.
* :func:`selection_counts` — how often each adapter is picked, broken down by
  the rank it was picked at.
* :func:`alignment_analysis` — do bigger merge weights go to adapters whose
  training task looks like the input?  Weight-bucketed cosine similarities
  between input and task embeddings.
* :func:`ablate` — task accuracy swept along one routing knob (token policy,
  k, or target block), everything else held fixed.
* :func:`timing_sweep` — amortized per-token latency of routed generation
  versus the bare backbone across generation lengths.

All analyses except the timing sweep are deterministic given their seed: the
same inputs produce byte-identical serialized reports.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np
from scipy import stats

from ..adapters import AdapterPool
from ..backbone import Backbone
from ..engine import EngineConfig, route_and_generate, route_and_merge, route_only
from ..errors import ValidationError
from ..signals import SignalConfig, probe
from .reports import ExperimentReport, minmax_normalize_columns
from .tasks import DEFAULT_PROMPT_LEN, SyntheticTask

Array = np.ndarray

#: Merge-weight bucket width used by the alignment analysis.
WEIGHT_BUCKET_WIDTH = 0.05

ABLATE_AXES = ("token_policy", "k", "target_block")


def _require_tasks(tasks: Sequence[SyntheticTask], minimum: int) -> list[SyntheticTask]:
    out = list(tasks)
    if len(out) < minimum:
        raise ValidationError(f"need at least {minimum} task(s), got {len(out)}")
    return out


def signal_heatmap(
    backbone: Backbone,
    pool: AdapterPool,
    tasks: Sequence[SyntheticTask],
    cfg: SignalConfig = SignalConfig(),
    n_samples: int = 50,
    prompt_len: int = DEFAULT_PROMPT_LEN,
    seed: int = 0,
    normalize: bool = True,
) -> ExperimentReport:
    """Mean probe score per (task row, adapter column), column-normalized.

    Each cell averages the adapter's score over ``n_samples`` prompts drawn
    from the row's task; columns are then min-max normalized to [0, 1] so
    every adapter's response profile is comparable regardless of its overall
    magnitude (``normalize=False`` returns the raw means).
    """
    tasks = _require_tasks(tasks, 2)
    if len(pool) < 2:
        raise ValidationError(f"heatmap needs at least 2 adapters, got {len(pool)}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")

    adapter_ids = pool.ids()
    grid = np.zeros((len(tasks), len(adapter_ids)))
    for ti, task in enumerate(tasks):
        rng = np.random.default_rng([seed, ti])
        for _ in range(n_samples):
            prompt = task.sample_prompt(rng, prompt_len)
            scores = probe(backbone, pool, prompt, cfg).scores()
            grid[ti] += [scores[aid] for aid in adapter_ids]
    grid /= n_samples
    if normalize:
        grid = minmax_normalize_columns(grid)

    return ExperimentReport(
        kind="heatmap",
        row_axis="task",
        col_axis="adapter",
        row_labels=tuple(t.task_id for t in tasks),
        col_labels=tuple(adapter_ids),
        grid=grid,
        metadata={
            "scoring": cfg.scoring,
            "token_policy": cfg.token_policy,
            "target_block": cfg.resolve_block(backbone.config.n_blocks),
            "n_samples": n_samples,
            "prompt_len": prompt_len,
            "seed": seed,
            "normalized": bool(normalize),
        },
    )


def selection_counts(
    backbone: Backbone,
    pool: AdapterPool,
    task: SyntheticTask,
    cfg: EngineConfig = EngineConfig(),
    n_samples: int = 100,
    prompt_len: int = DEFAULT_PROMPT_LEN,
    seed: int = 0,
) -> ExperimentReport:
    """How often each adapter is selected, split by selection rank.

    Cell (adapter, rank r) counts the samples where the adapter was the
    r-th highest scored.  Every sample contributes exactly ``min(k, N)``
    counts, so the grid total is ``n_samples * min(k, N)``.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    adapter_ids = pool.ids()
    if not adapter_ids:
        raise ValidationError("selection counts need a non-empty pool")
    n_ranks = min(cfg.k, len(adapter_ids))
    grid = np.zeros((len(adapter_ids), n_ranks))
    index = {aid: i for i, aid in enumerate(adapter_ids)}

    rng = np.random.default_rng([seed])
    for _ in range(n_samples):
        prompt = task.sample_prompt(rng, prompt_len)
        decision = route_only(backbone, pool, prompt, cfg)
        for rank, adapter_id in enumerate(decision.ids()):
            grid[index[adapter_id], rank] += 1

    return ExperimentReport(
        kind="selection_counts",
        row_axis="adapter",
        col_axis="rank",
        row_labels=tuple(adapter_ids),
        col_labels=tuple(f"rank_{r}" for r in range(1, n_ranks + 1)),
        grid=grid,
        metadata={
            "task_id": task.task_id,
            "k": cfg.k,
            "scoring": cfg.signal.scoring,
            "n_samples": n_samples,
            "prompt_len": prompt_len,
            "seed": seed,
        },
    )


def cosine_similarity(u: Array, v: Array) -> float:
    """Cosine of the angle between two vectors; zero if either is zero."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def embed_prompt(backbone: Backbone, tokens: Sequence[int]) -> Array:
    """Base-model prompt embedding: mean-pooled final hidden state."""
    return backbone.forward(tokens).final_hidden.mean(axis=0)


def alignment_analysis(
    backbone: Backbone,
    pool: AdapterPool,
    tasks: Sequence[SyntheticTask],
    cfg: EngineConfig = EngineConfig(),
    n_samples: int = 100,
    prompt_len: int = DEFAULT_PROMPT_LEN,
    n_reference: int = 16,
    seed: int = 0,
) -> ExperimentReport:
    """Merge weight versus input/task similarity, bucketed by weight.

    Inputs are drawn round-robin from ``tasks``.  For every (input, selected
    adapter) pair the pair's weight is recorded alongside the mean cosine
    similarity between the input's embedding and embeddings of reference
    samples from the adapter's own task (adapters are matched to tasks by
    their metadata label; unlabeled ones are skipped and counted).  Pairs are
    bucketed by weight (width ``WEIGHT_BUCKET_WIDTH``) and each non-empty
    bucket reports its similarity distribution: count, min, quartiles, max.

    If routing works, higher-weight buckets should hold higher similarities;
    ``metadata["spearman"]`` quantifies that as the rank correlation between
    bucket index and bucket median (``None`` with fewer than two non-empty
    buckets).
    """
    tasks = _require_tasks(tasks, 1)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if n_reference < 1:
        raise ValidationError(f"n_reference must be >= 1, got {n_reference}")

    by_label = {t.task_id: t for t in tasks}
    _, adapters = pool.snapshot()
    reference: dict[str, list[Array]] = {}
    skipped_unlabeled = 0
    for adapter in adapters:
        task = by_label.get(adapter.metadata)
        if task is None:
            skipped_unlabeled += 1
            continue
        if task.task_id not in reference:
            rng = np.random.default_rng([seed, 1, sorted(by_label).index(task.task_id)])
            reference[task.task_id] = [
                embed_prompt(backbone, task.sample_prompt(rng, prompt_len))
                for _ in range(n_reference)
            ]

    labeled = {a.id: a.metadata for a in adapters if a.metadata in reference}
    pairs: list[tuple[float, float]] = []
    rng = np.random.default_rng([seed, 0])
    for i in range(n_samples):
        task = tasks[i % len(tasks)]
        prompt = task.sample_prompt(rng, prompt_len)
        embedding = embed_prompt(backbone, prompt)
        decision = route_only(backbone, pool, prompt, cfg)
        for sel in decision.selected:
            label = labeled.get(sel.adapter_id)
            if label is None:
                continue
            sim = float(np.mean([cosine_similarity(embedding, r) for r in reference[label]]))
            pairs.append((sel.weight, sim))

    n_buckets = int(round(1.0 / WEIGHT_BUCKET_WIDTH))
    buckets: dict[int, list[float]] = {}
    for weight, sim in pairs:
        idx = min(int(weight / WEIGHT_BUCKET_WIDTH), n_buckets - 1)
        buckets.setdefault(idx, []).append(sim)

    records = []
    for idx in sorted(buckets):
        sims = np.asarray(buckets[idx])
        q0, q1, q2, q3, q4 = np.percentile(sims, [0, 25, 50, 75, 100])
        records.append(
            {
                "bucket_low": round(idx * WEIGHT_BUCKET_WIDTH, 10),
                "bucket_high": round((idx + 1) * WEIGHT_BUCKET_WIDTH, 10),
                "count": int(sims.size),
                "min_similarity": float(q0),
                "q1": float(q1),
                "median": float(q2),
                "q3": float(q3),
                "max_similarity": float(q4),
            }
        )

    spearman = None
    if len(records) >= 2:
        rho = stats.spearmanr(
            [r["bucket_low"] for r in records], [r["median"] for r in records]
        ).statistic
        spearman = float(rho)

    return ExperimentReport(
        kind="alignment",
        records=tuple(records),
        metadata={
            "n_samples": n_samples,
            "n_pairs": len(pairs),
            "n_reference": n_reference,
            "prompt_len": prompt_len,
            "k": cfg.k,
            "scoring": cfg.signal.scoring,
            "seed": seed,
            "skipped_unlabeled": skipped_unlabeled,
            "spearman": spearman,
        },
    )


def _config_with(base: EngineConfig, axis: str, value: object) -> EngineConfig:
    if axis == "token_policy":
        return replace(base, signal=replace(base.signal, token_policy=str(value)))
    if axis == "k":
        return replace(base, k=int(value))
    if axis == "target_block":
        return replace(base, signal=replace(base.signal, target_block=int(value)))
    raise ValidationError(f"axis must be one of {ABLATE_AXES}, got {axis!r}")


def ablate(
    backbone: Backbone,
    pool: AdapterPool,
    tasks: Sequence[SyntheticTask],
    axis: str,
    values: Sequence[object],
    cfg: EngineConfig = EngineConfig(),
    n_samples: int = 25,
    prompt_len: int = DEFAULT_PROMPT_LEN,
    seed: int = 0,
) -> ExperimentReport:
    """Exact-match accuracy per task swept along one routing knob.

    Each row fixes the axis to one value (other knobs come from ``cfg``) and
    measures one-token exact-match accuracy on every task, using the same
    prompts for every value so rows differ only by the knob under study.
    ``metadata["spread"]`` is max minus min of the per-value mean accuracy.
    """
    if axis not in ABLATE_AXES:
        raise ValidationError(f"axis must be one of {ABLATE_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValidationError("need at least one axis value")
    tasks = _require_tasks(tasks, 1)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    configs = [_config_with(cfg, axis, v) for v in values]

    prompts = []
    for ti, task in enumerate(tasks):
        rng = np.random.default_rng([seed, ti])
        prompts.append([task.sample_prompt(rng, prompt_len) for _ in range(n_samples)])

    grid = np.zeros((len(values), len(tasks)))
    for vi, config in enumerate(configs):
        for ti, task in enumerate(tasks):
            hits = 0
            for prompt in prompts[ti]:
                result = route_and_generate(backbone, pool, prompt, config, max_new=1)
                hits += int(result.output_tokens[0] == task.target_next(prompt))
            grid[vi, ti] = hits / n_samples

    means = grid.mean(axis=1)
    return ExperimentReport(
        kind="ablation",
        row_axis=axis,
        col_axis="task",
        row_labels=tuple(str(v) for v in values),
        col_labels=tuple(t.task_id for t in tasks),
        grid=grid,
        metadata={
            "axis": axis,
            "n_samples": n_samples,
            "prompt_len": prompt_len,
            "seed": seed,
            "mean_accuracy": {str(v): float(m) for v, m in zip(values, means)},
            "spread": float(means.max() - means.min()),
        },
    )


def timing_sweep(
    backbone: Backbone,
    pool: AdapterPool,
    task: SyntheticTask,
    lengths: Sequence[int],
    cfg: EngineConfig = EngineConfig(),
    prompt_len: int = DEFAULT_PROMPT_LEN,
    seed: int = 0,
    repeats: int = 3,
) -> ExperimentReport:
    """Amortized per-token latency, routed versus bare backbone, per length.

    The routed figure charges the whole fixed routing cost (probe plus
    select/merge) to the first emitted token, then averages over all emitted
    tokens — so it falls as generation length grows.  The base figure runs
    the same prompt through the unadapted backbone.  The two decodes run in
    lockstep, one routed token then one base token, so a change in machine
    load lands on both sides alike; each figure is the minimum over
    ``repeats`` such runs (timing noise is one-sided).
    """
    lengths = [int(x) for x in lengths]
    if not lengths:
        raise ValidationError("need at least one generation length")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValidationError(f"lengths must be strictly ascending, got {lengths}")
    if lengths[0] < 1:
        raise ValidationError(f"lengths must be >= 1, got {lengths}")
    limit = backbone.config.max_seq_len - prompt_len
    if lengths[-1] > limit:
        raise ValidationError(
            f"length {lengths[-1]} exceeds max_seq_len - prompt_len = {limit}"
        )
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")

    rng = np.random.default_rng([seed])
    prompt = task.sample_prompt(rng, prompt_len)

    # warm both code paths once so first-touch costs don't land in a sample
    warm = min(2, lengths[0])
    route_and_generate(backbone, pool, prompt, cfg, max_new=warm)
    backbone.generate(prompt, (), max_new=warm)

    records = []
    for length in lengths:
        routed_runs, base_runs = [], []
        for _ in range(repeats):
            _, hooks, timings = route_and_merge(backbone, pool, prompt, cfg)
            routed = backbone.decode(prompt, hooks, max_new=length)
            base = backbone.decode(prompt, (), max_new=length)
            ms = np.array([(r, b) for (_, r), (_, b) in zip(routed, base)])
            # The routing overhead is charged to the first token.
            overhead = timings["probe_ms"] + timings["select_merge_ms"]
            routed_runs.append(float((ms[:, 0].sum() + overhead) / len(ms)))
            base_runs.append(float(ms[:, 1].mean()))
        records.append(
            {
                "length": length,
                "routed_ms_per_token": min(routed_runs),
                "base_ms_per_token": min(base_runs),
            }
        )

    metadata: dict[str, object] = {
        "task_id": task.task_id,
        "n_adapters": len(pool),
        "k": cfg.k,
        "prompt_len": prompt_len,
        "repeats": repeats,
        "seed": seed,
    }
    if len(records) >= 2:
        metadata["routed_first_to_last"] = [
            records[0]["routed_ms_per_token"],
            records[-1]["routed_ms_per_token"],
        ]
    return ExperimentReport(kind="timing", records=tuple(records), metadata=metadata)
