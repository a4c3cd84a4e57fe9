"""Per-adapter routing signals read from a single probe pass.

The probe attaches every pool adapter to the backbone at its own alpha and
runs exactly one forward pass over the input tokens.  A zero-returning spy
at the Q projection of one chosen block captures that projection's input
``h``, produced with *all* adapters attached at every block before it (no
later block can reach ``h``).  A token policy (first / last / mean)
collapses the per-token rows of ``h`` to one vector, and by linearity each
adapter ``i``'s contribution to the Q projection is ``o_i = alpha_i * A_i @
B_i @ h`` on that vector, split out of one product over the stacked factors
of the whole pool.  A scoring rule turns each ``o_i`` into a scalar, for the
whole pool in one row-wise pass:

* ``norm`` — the Euclidean norm of ``o_i``; bigger response, bigger score.
* ``inverse_entropy`` — softmax ``o_i`` and score ``1 / H``; the more peaked
  the response, the bigger the score.  ``H`` is floored at
  :data:`ENTROPY_FLOOR` so one-hot-like outputs stay finite.

Scores say nothing by themselves; routing compares them across the pool.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import AdapterPool, adapter_hooks, stack_factors
from .backbone import Backbone, ProjectionHook
from .errors import EmptyPoolError, ValidationError
from .numcore import as_vector, l2_norm, shannon_entropy, softmax

Array = np.ndarray

#: Entropies below this floor are clamped before inversion.
ENTROPY_FLOOR = 1e-12

#: Projection site the probe reads; only Q contributions are scored.
PROBE_SITE = "Q"

TOKEN_POLICIES = ("first", "last", "mean")
SCORINGS = ("norm", "inverse_entropy")


@dataclass(frozen=True)
class SignalConfig:
    """Where and how the probe reads its signals.

    ``target_block=None`` means the last block.  ``token_policy`` picks which
    token positions contribute; ``scoring`` picks the scalarization rule.
    """

    target_block: int | None = None
    token_policy: str = "last"
    scoring: str = "norm"

    def __post_init__(self) -> None:
        if self.token_policy not in TOKEN_POLICIES:
            raise ValidationError(
                f"token_policy must be one of {TOKEN_POLICIES}, got {self.token_policy!r}"
            )
        if self.scoring not in SCORINGS:
            raise ValidationError(f"scoring must be one of {SCORINGS}, got {self.scoring!r}")
        if self.target_block is not None and (
            not isinstance(self.target_block, int) or self.target_block < 0
        ):
            raise ValidationError(
                f"target_block must be None or a non-negative integer, got {self.target_block!r}"
            )

    def resolve_block(self, n_blocks: int) -> int:
        block = n_blocks - 1 if self.target_block is None else self.target_block
        if block >= n_blocks:
            raise ValidationError(
                f"target_block {block} out of range for {n_blocks}-block model"
            )
        return block


@dataclass(frozen=True)
class SignalEntry:
    """One adapter's captured projection output and its scalar score."""

    adapter_id: str
    output: Array
    score: float


@dataclass(frozen=True)
class SignalReport:
    """Probe result: one entry per pool adapter, ascending id order."""

    pool_revision: int
    target_block: int
    token_policy: str
    scoring: str
    entries: tuple[SignalEntry, ...]

    def scores(self) -> dict[str, float]:
        return {e.adapter_id: e.score for e in self.entries}


def _score_rows(outputs: Array, scoring: str) -> Array:
    """Score each row of an ``(N, d)`` block of captured projection outputs."""
    if scoring == "norm":
        return l2_norm(outputs)
    return 1.0 / np.maximum(shannon_entropy(softmax(outputs)), ENTROPY_FLOOR)


def score_norm(output: Array) -> float:
    """Euclidean norm of the captured projection output."""
    return float(_score_rows(as_vector(output), "norm"))


def score_inverse_entropy(output: Array) -> float:
    """Reciprocal Shannon entropy of the softmaxed projection output."""
    return float(_score_rows(as_vector(output), "inverse_entropy"))


def mean_pool_token(rows: Array, policy: str) -> Array:
    """Collapse per-token rows ``(T, d)`` to one vector via the token policy."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValidationError(f"expected per-token rows of shape (T, d), got {rows.shape}")
    if policy == "first":
        return rows[0].copy()
    if policy == "last":
        return rows[-1].copy()
    if policy == "mean":
        return rows.mean(axis=0)
    raise ValidationError(f"token_policy must be one of {TOKEN_POLICIES}, got {policy!r}")


def probe(
    backbone: Backbone,
    pool: AdapterPool,
    tokens: Sequence[int],
    config: SignalConfig = SignalConfig(),
) -> SignalReport:
    """Score every pool adapter with a single instrumented forward pass.

    All adapters are attached at their own alpha, at every block before the
    captured one, so the hidden states feeding the captured block reflect the
    fully loaded model.  The pool is snapshotted first: the report is pinned
    to one revision no matter what happens to the pool afterwards.
    """
    revision, adapters = pool.snapshot()
    if not adapters:
        raise EmptyPoolError("probe requires at least one adapter in the pool")
    target = config.resolve_block(backbone.config.n_blocks)

    captured: list[Array] = []

    def spy(block: int, site: str, h: Array, base: Array) -> Array:
        captured.append(h)
        return np.zeros_like(base)

    # The input to (target, Q) depends only on earlier blocks: attach there.
    hooks = [hook for hook in adapter_hooks(adapters) if hook.block < target]
    backbone.forward(tokens, hooks + [ProjectionHook(target, PROBE_SITE, spy)])
    pooled = mean_pool_token(captured[0], config.token_policy)

    a, b = stack_factors(adapters, [ad.alpha for ad in adapters], target, PROBE_SITE)
    starts = np.cumsum([0] + [ad.rank for ad in adapters[:-1]])
    # Column run i of ``a * (b @ pooled)`` summed is alpha_i * A_i @ B_i @ pooled.
    outputs = np.add.reduceat(a * (b @ pooled), starts, axis=1).T
    scores = _score_rows(outputs, config.scoring)
    return SignalReport(
        pool_revision=revision,
        target_block=target,
        token_policy=config.token_policy,
        scoring=config.scoring,
        entries=tuple(
            SignalEntry(adapter_id=ad.id, output=out, score=float(score))
            for ad, out, score in zip(adapters, outputs, scores)
        ),
    )
