"""Per-adapter routing signals read from a single probe pass.

The probe attaches every pool adapter to the backbone at its own alpha and
runs exactly one pass over the input tokens, as far as the input ``h`` to the
Q projection of one chosen block: that input is produced with *all* adapters
attached at every block before it, and nothing later can reach it.  Attached,
the pool is one dense operator per (block, site) before the target
(:meth:`~loraroute.adapters.AdapterPool.operator`), built on the first probe
at a pool revision, so later passes cost the same whatever the pool size.
A token policy (first / last / mean) collapses the per-token rows of ``h``
to one vector, and by linearity each adapter ``i``'s contribution to the Q
projection is ``o_i = alpha_i * A_i @ B_i @ h`` on that vector, split out of
one product per pool chunk over the target's factor slabs, which the pool
already holds stacked (:class:`~loraroute.adapters.PoolChunk`): a warm probe
copies no factors and builds nothing, and nothing it holds grows with the
pool but its ``(N, d)`` result.  :func:`score_rows`, the one scorer, turns
each ``o_i`` into a scalar, for the whole pool in one row-wise pass:

* ``norm`` — the Euclidean norm of ``o_i``; bigger response, bigger score.
* ``inverse_entropy`` — softmax ``o_i`` and score ``1 / H``; the more peaked
  the response, the bigger the score.  ``H`` is floored at
  :data:`ENTROPY_FLOOR` so one-hot-like outputs stay finite.

The :class:`SignalReport` holds what the probe computed as arrays: the
``(N, d)`` block of outputs and the ``(N,)`` score vector, with row ``i``
belonging to ``adapter_ids[i]``.  Scores say nothing by themselves; routing
compares them across the pool.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import STACK_CHUNK, AdapterPool, fused_hooks
from .backbone import HOOK_SITES, Backbone
from .errors import EmptyPoolError, ValidationError
from .numcore import l2_norm, shannon_entropy, softmax

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
class SignalReport:
    """Probe result as arrays, in ascending adapter id order.

    Row ``i`` of ``outputs`` ``(N, d)`` and entry ``i`` of ``score_vector``
    ``(N,)`` belong to ``adapter_ids[i]``.
    """

    pool_revision: int
    target_block: int
    token_policy: str
    scoring: str
    adapter_ids: tuple[str, ...]
    outputs: Array
    score_vector: Array

    def scores(self) -> dict[str, float]:
        return dict(zip(self.adapter_ids, self.score_vector.tolist()))


def score_rows(outputs: Array, scoring: str) -> Array:
    """Score one captured projection output ``(d,)``, or each row of an ``(N, d)`` block."""
    if scoring == "norm":
        return l2_norm(outputs)
    if scoring == "inverse_entropy":
        return 1.0 / np.maximum(shannon_entropy(softmax(outputs)), ENTROPY_FLOOR)
    raise ValidationError(f"scoring must be one of {SCORINGS}, got {scoring!r}")


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
    to one revision, and attaches that revision's operators, no matter what
    happens to the pool afterwards.
    """
    snapshot = pool.snapshot()
    revision, view = snapshot
    if not view:
        raise EmptyPoolError("probe requires at least one adapter in the pool")
    target = config.resolve_block(backbone.config.n_blocks)

    # The input to (target, Q) depends only on earlier blocks: attach there.
    hooks = fused_hooks(
        {(j, site): pool.operator(snapshot, j, site) for j in range(target) for site in HOOK_SITES}
    )
    pooled = mean_pool_token(backbone.block_input(tokens, target, hooks), config.token_policy)

    outputs = np.empty((len(view), backbone.config.d_model))
    for lo, chunk in zip(range(0, len(view), STACK_CHUNK), view.chunks):
        a, b = chunk.stack(target, PROBE_SITE)
        # Column run i of ``a * (b @ pooled)`` summed is alpha_i * A_i @ B_i @ pooled.
        outputs[lo : lo + len(chunk.ids)] = np.add.reduceat(a * (b @ pooled), chunk.starts, axis=1).T
    return SignalReport(
        pool_revision=revision,
        target_block=target,
        token_policy=config.token_policy,
        scoring=config.scoring,
        adapter_ids=view.ids,
        outputs=outputs,
        score_vector=score_rows(outputs, config.scoring),
    )
