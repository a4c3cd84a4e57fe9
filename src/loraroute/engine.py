"""End-to-end pipeline: probe once, pick adapters, merge, generate.

One request costs exactly one extra forward pass over the prompt (the probe)
on top of ordinary greedy decoding.  The pipeline never reuses probe-time
activations for generation: after selection the prompt is re-processed from
scratch under the merged adapter configuration, so generation sees exactly
the model it would have seen had the merged adapters been attached from the
start.

The merge is always :func:`~loraroute.routing.mixture_hooks`, the selected
adapters at ``w_i * alpha_i``; by linearity a fusion is the same map, so
there is no merge construction to choose.

The probe and the merge each take their own snapshot of the pool, and the
decision is pinned to the probe's revision: if the pool is edited between
the two, the merge raises :class:`~loraroute.errors.StaleDecisionError` and
the request fails rather than merging adapters it did not score.

Timings are split into ``probe_ms`` (the instrumented pass), ``select_merge_ms``
(ranking plus building the merged hooks), and ``per_token_ms`` (greedy
decoding, first entry covering the prefill).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Sequence

from .adapters import AdapterPool
from .backbone import Backbone, ProjectionHook
from .errors import ValidationError
from .routing import RoutingDecision, decision_to_json, mixture_hooks, select_topk
from .signals import SignalConfig, probe

#: Default number of adapters kept by selection.
DEFAULT_K = 20


@dataclass(frozen=True)
class EngineConfig:
    """Routing knobs for one request: signal source and k."""

    signal: SignalConfig = field(default_factory=SignalConfig)
    k: int = DEFAULT_K

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValidationError(f"k must be a positive integer, got {self.k!r}")


@dataclass
class RouteResult:
    """Everything one routed generation produced, timings included."""

    decision: RoutingDecision
    output_tokens: list[int]
    timings: dict
    forward_pass_count: int


def route_only(
    backbone: Backbone,
    pool: AdapterPool,
    tokens: Sequence[int],
    config: EngineConfig = EngineConfig(),
) -> RoutingDecision:
    """Probe and select without generating."""
    report = probe(backbone, pool, tokens, config.signal)
    return select_topk(report, config.k)


def route_and_merge(
    backbone: Backbone,
    pool: AdapterPool,
    tokens: Sequence[int],
    config: EngineConfig = EngineConfig(),
) -> tuple[RoutingDecision, list[ProjectionHook], dict[str, float]]:
    """Probe, select and merge: the decision, the merged hooks and the stage timings."""
    t0 = time.perf_counter()
    report = probe(backbone, pool, tokens, config.signal)
    probe_ms = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    decision = select_topk(report, config.k)
    hooks = mixture_hooks(pool, decision)
    select_merge_ms = (time.perf_counter() - t0) * 1e3
    return decision, hooks, {"probe_ms": probe_ms, "select_merge_ms": select_merge_ms}


def route_and_generate(
    backbone: Backbone,
    pool: AdapterPool,
    tokens: Sequence[int],
    config: EngineConfig = EngineConfig(),
    max_new: int = 0,
    eos_token: int | None = None,
) -> RouteResult:
    """Probe, select, merge, then greedily decode ``max_new`` tokens.

    ``forward_pass_count`` on the result counts every backbone pass the
    request issued: one probe plus one per emitted token (the first of which
    is the full prefill under the merged configuration).
    """
    start_count = backbone.forward_count
    decision, hooks, timings = route_and_merge(backbone, pool, tokens, config)
    generated = backbone.generate(tokens, hooks, max_new=max_new, eos_token=eos_token)
    return RouteResult(
        decision=decision,
        output_tokens=generated.tokens,
        timings={**timings, "per_token_ms": generated.per_token_ms},
        forward_pass_count=backbone.forward_count - start_count,
    )


def route_result_to_json(result: RouteResult) -> str:
    """Render the full result (decision, tokens, timings) as one JSON record."""
    record = {
        "decision": json.loads(decision_to_json(result.decision)),
        "output_tokens": list(result.output_tokens),
        "timings": result.timings,
        "forward_pass_count": result.forward_pass_count,
    }
    return json.dumps(record)
