"""Turning signal reports into adapter selections and merged models.

Selection ranks the indices of the report's score vector, with
deterministic tie-breaking (ascending adapter id), and keeps the top k.
Selected scores are normalized to convex weights ``w_i = s_i / sum(s)``; an
all-zero score vector falls back to uniform weights rather than dividing by
zero.

The merge keeps the selected adapters and rescales each one's effective
alpha to ``w_i * alpha_i``; unselected adapters are dropped.  By linearity
that is the dense update ``sum_i w_i * alpha_i * A_i @ B_i`` per (block,
site), so there is one merge and one way to build it, once per request:
:func:`fuse_parameters` finds the selected adapters in the pool's chunks
once, gathers their columns straight from the pool's factor slabs (the one
copy of the factors the pool holds) and sums them with the same chunked
builder as the pool's probe operators
(:func:`~loraroute.adapters.merged_operators`, one stack for any k up to
:data:`~loraroute.adapters.STACK_CHUNK`); :func:`fused_hooks` applies each
as a dense matrix, and :func:`mixture_hooks` (what the engine calls) is the
two composed.  Applying the stacked factors low-rank instead only pays off
for wide models; at the widths of this package's models (``d_model`` 32 and
64) one dense product per token is cheaper than two thin ones.  Tests pin
the merged operator to the sum of the adapters' own :func:`delta_apply`
deltas, and decoding under it to a per-adapter reference.

A decision is pinned to the pool revision its report was probed at: merging
it against a pool at any other revision raises :class:`StaleDecisionError`,
since an add or remove in between may have replaced a selected adapter under
the same id.  :func:`decision_record` renders a decision as one JSON-ready
dict, which the CLI's ``route --json`` and the engine's result record embed;
nothing reads decisions back.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import AdapterPool, PoolChunk, PoolView, fused_hooks, merged_operators
from .backbone import ProjectionHook
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
    ids = report.adapter_ids
    if not ids:
        raise ValidationError("cannot select from an empty signal report")
    # Ascending id order first (already the order of a probe's report, which
    # the sort passes through in one pass), then a stable sort on score alone
    # keeps ties in that order.
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__))
    chosen = by_id[np.argsort(-report.score_vector[by_id], kind="stable")[:k]]
    scores = report.score_vector[chosen].tolist()
    weights = normalize_weights(scores)
    selected = tuple(
        SelectedAdapter(ids[i], s, float(w)) for i, s, w in zip(chosen.tolist(), scores, weights)
    )
    return RoutingDecision(
        k=k, pool_revision=report.pool_revision, scoring=report.scoring, selected=selected
    )


def _resolve(pool: AdapterPool, decision: RoutingDecision) -> tuple[PoolView, list[tuple[PoolChunk, int]]]:
    """The pool's view, and where each selected adapter sits in its chunks, in selection order."""
    revision, view = pool.snapshot()
    if revision != decision.pool_revision:
        raise StaleDecisionError(
            f"decision made at pool revision {decision.pool_revision}, pool is now at "
            f"revision {revision}; selected adapters: {decision.ids()}"
        )
    picks = [view.locate(s.adapter_id) for s in decision.selected]
    missing = [s.adapter_id for s, pick in zip(decision.selected, picks) if pick is None]
    if missing:
        raise StaleDecisionError(
            f"decision references adapters no longer in the pool: {missing}"
        )
    return view, picks


def mixture_hooks(pool: AdapterPool, decision: RoutingDecision) -> list[ProjectionHook]:
    """Hooks realizing the mixture merge: selected adapters at ``w_i * alpha_i``.

    By linearity that is the fusion's update, so each site's operator is
    built once, here, as the fusion's dense matrix.
    """
    return fused_hooks(fuse_parameters(pool, decision))


def fuse_parameters(
    pool: AdapterPool, decision: RoutingDecision
) -> dict[tuple[int, str], Array]:
    """Materialize the dense merged update ``sum_i w_i * alpha_i * A_i @ B_i``.

    Returns one ``(d_model, d_model)`` matrix per (block, site).  An empty
    selection merges to the bare model: no deltas at all.
    """
    view, picks = _resolve(pool, decision)
    weights = decision.weights()
    scales = [weights[s.adapter_id] * chunk.alphas[j] for s, (chunk, j) in zip(decision.selected, picks)]
    operators = merged_operators(picks, scales)
    del view  # held until here: a live view keeps its chunks' slabs from being rewritten
    return operators


# -- decision serialization ------------------------------------------------------


def decision_record(decision: RoutingDecision) -> dict[str, object]:
    """The decision as one JSON-ready record."""
    return {
        "pool_revision": decision.pool_revision,
        "k": decision.k,
        "scoring": decision.scoring,
        "entries": [
            {"id": s.adapter_id, "score": s.score, "weight": s.weight}
            for s in decision.selected
        ],
    }
