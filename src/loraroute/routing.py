"""Turning signal reports into adapter selections and merged models.

Selection is plain top-k over scores with deterministic tie-breaking
(ascending adapter id).  Selected scores are normalized to convex weights
``w_i = s_i / sum(s)``; an all-zero score vector falls back to uniform
weights rather than dividing by zero.

The merge keeps the selected adapters and rescales each one's effective
alpha to ``w_i * alpha_i``; unselected adapters are dropped.  By linearity
that is the dense update ``sum_i w_i * alpha_i * A_i @ B_i`` per (block,
site), so there is one merge and one way to build it, once per request:
:func:`fuse_parameters` takes one product of the selected adapters' stacked
factors (:func:`stack_factors`) per site, :func:`fused_hooks` applies each
as a dense matrix, and :func:`mixture_hooks` (what the engine calls) is the
two composed.  Applying the stacked factors low-rank instead only pays off
for wide models; at the widths of this package's models (``d_model`` 32 and
64) one dense product per token is cheaper than two thin ones.  Tests pin
the merged operator to the sum of the adapters' own :func:`delta_apply`
deltas, and decoding under it to a per-adapter reference.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .adapters import AdapterPool, LoraAdapter, stack_factors
from .backbone import HOOK_SITES, ProjectionHook
from .errors import StaleDecisionError, ValidationError
from .signals import SignalReport

Array = np.ndarray


@dataclass(frozen=True)
class SelectedAdapter:
    """One selected adapter: raw score plus normalized weight."""

    adapter_id: str
    score: float
    weight: float


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of top-k selection over one signal report."""

    k: int
    pool_revision: int
    scoring: str
    selected: tuple[SelectedAdapter, ...]

    def ids(self) -> list[str]:
        return [s.adapter_id for s in self.selected]

    def weights(self) -> dict[str, float]:
        return {s.adapter_id: s.weight for s in self.selected}


@dataclass(frozen=True)
class FusedDelta:
    """Dense merged update, one ``(d_model, d_model)`` matrix per (block, site)."""

    n_blocks: int
    d_model: int
    deltas: Mapping[tuple[int, str], Array]


def normalize_weights(scores: Sequence[float]) -> np.ndarray:
    """Normalize non-negative scores to weights summing to one.

    All-zero input yields uniform weights; anything negative or non-finite is
    rejected.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValidationError(f"expected at least one score, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores contain non-finite entries")
    if np.any(s < 0.0):
        raise ValidationError("scores must be non-negative")
    total = float(np.sum(s))
    if total == 0.0:
        return np.full(s.size, 1.0 / s.size)
    return s / total


def select_topk(report: SignalReport, k: int) -> RoutingDecision:
    """Pick the ``k`` highest-scoring adapters (ties broken by ascending id).

    ``k`` greater than the pool size selects everything.  Weights are the
    selected adapters' scores normalized among themselves.
    """
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if not report.entries:
        raise ValidationError("cannot select from an empty signal report")
    ranked = sorted(report.entries, key=lambda e: (-e.score, e.adapter_id))
    chosen = ranked[: min(k, len(ranked))]
    weights = normalize_weights([e.score for e in chosen])
    selected = tuple(
        SelectedAdapter(e.adapter_id, e.score, float(w)) for e, w in zip(chosen, weights)
    )
    return RoutingDecision(
        k=k, pool_revision=report.pool_revision, scoring=report.scoring, selected=selected
    )


def _resolve(pool: AdapterPool, decision: RoutingDecision) -> list[LoraAdapter]:
    _, adapters = pool.snapshot()
    by_id = {a.id: a for a in adapters}
    missing = [s.adapter_id for s in decision.selected if s.adapter_id not in by_id]
    if missing:
        raise StaleDecisionError(
            f"decision references adapters no longer in the pool: {missing}"
        )
    return [by_id[s.adapter_id] for s in decision.selected]


def mixture_hooks(pool: AdapterPool, decision: RoutingDecision) -> list[ProjectionHook]:
    """Hooks realizing the mixture merge: selected adapters at ``w_i * alpha_i``.

    By linearity that is the fusion's update, so each site's operator is
    built once, here, as the fusion's dense matrix.
    """
    return fused_hooks(fuse_parameters(pool, decision))


def fuse_parameters(pool: AdapterPool, decision: RoutingDecision) -> FusedDelta:
    """Materialize the dense merged update ``sum_i w_i * alpha_i * A_i @ B_i``.

    An empty selection merges to the bare model: no deltas at all.
    """
    adapters = _resolve(pool, decision)
    weights = decision.weights()
    scales = [weights[a.id] * a.alpha for a in adapters]
    deltas: dict[tuple[int, str], Array] = {}
    for j in range(pool.config.n_blocks if adapters else 0):  # none: bare model
        for site in HOOK_SITES:
            a, b = stack_factors(adapters, scales, j, site)
            deltas[(j, site)] = a @ b
    return FusedDelta(n_blocks=pool.config.n_blocks, d_model=pool.config.d_model, deltas=deltas)


def fused_hooks(fused: FusedDelta) -> list[ProjectionHook]:
    """Hooks applying a dense fused update: ``delta = h @ W.T`` per site."""
    hooks = []
    for (block, site), w in sorted(fused.deltas.items()):
        def fn(block_: int, site_: str, h: Array, base: Array, _w: Array = w) -> Array:
            return h @ _w.T

        hooks.append(ProjectionHook(block, site, fn))
    return hooks


# -- decision serialization ------------------------------------------------------


def decision_to_json(decision: RoutingDecision, extra: Mapping[str, object] | None = None) -> str:
    """Render the decision as a JSON record."""
    record: dict[str, object] = {
        "pool_revision": decision.pool_revision,
        "k": decision.k,
        "scoring": decision.scoring,
        "entries": [
            {"id": s.adapter_id, "score": s.score, "weight": s.weight}
            for s in decision.selected
        ],
    }
    if extra:
        record.update(extra)
    return json.dumps(record)


def decision_from_json(text: str) -> RoutingDecision:
    """Parse a record written by :func:`decision_to_json`."""
    try:
        record = json.loads(text)
        selected = tuple(
            SelectedAdapter(str(e["id"]), float(e["score"]), float(e["weight"]))
            for e in record["entries"]
        )
        return RoutingDecision(
            k=int(record["k"]),
            pool_revision=int(record["pool_revision"]),
            scoring=str(record["scoring"]),
            selected=selected,
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed decision record: {exc}") from exc
