"""Metric tables and the order statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the single source of truth for metric
names, units and direction; ``BENCHMARK.json`` lists the same names, and the
self-test checks that the two agree.  ``PER_LAYER`` also records, for each
layer metric, the end-to-end metric and workload it is predicted to move.
``BENCHMARK.json`` cannot hold that prediction (its entries have a fixed key
set), so it lives here and is printed next to each traced figure.
"""
from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES_BEYOND = 10


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    predicts: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("request_ms_p50", "ms", "lower"),
    Metric("request_ms_tail", "ms", "lower"),
    Metric("requests_per_s", "1/s", "higher"),
    Metric("tokens_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_ROUTING = "request_ms_p50 on pool-churn and wide-pool"
_TRAIN = "tokens_per_s and requests_per_s on train-adapters"

PER_LAYER = (
    Metric("signals.probe_ms", "ms", "lower",
           "request_ms_p50 and requests_per_s on wide-pool; no change on long-decode"),
    Metric("signals.probe_us_per_adapter", "us", "lower", "same as signals.probe_ms, per pool adapter"),
    Metric("signals.forward_passes_per_probe", "count", "lower", "invariant: exactly 1 at every N"),
    Metric("routing.select_ms", "ms", "lower", _ROUTING),
    Metric("routing.mixture_build_ms", "ms", "lower", _ROUTING),
    Metric("routing.fusion_build_ms", "ms", "lower", _ROUTING),
    Metric("backbone.prefill_ms", "ms", "lower", "request_ms_p50 on pool-churn"),
    Metric("backbone.decode_ms_per_token.bare", "ms", "lower",
           "tokens_per_s on long-decode; base of the adapter-overhead ratio"),
    Metric("backbone.decode_ms_per_token.mixture", "ms", "lower", "tokens_per_s on long-decode"),
    Metric("backbone.decode_ms_per_token.fusion", "ms", "lower", "tokens_per_s on long-decode"),
    Metric("backbone.forward_ms.bare", "ms", "lower", "base of the probe-overhead ratio"),
    Metric("backbone.forward_passes_per_request", "count", "lower",
           "invariant: 1 + emitted tokens"),
    Metric("adapters.parse_ms", "ms", "lower", "setup_s on every workload"),
    Metric("adapters.pool_write_ms", "ms", "lower", "requests_per_s on pool-churn"),
    Metric("adapters.snapshot_ms", "ms", "lower", "request_ms_p50 on wide-pool"),
    Metric("engine.request_ms", "ms", "lower", "request_ms_p50 on every serving workload"),
    Metric("engine.self_ms", "ms", "lower", "request_ms_p50 on every serving workload"),
    Metric("engine.probe_share", "ratio", "lower",
           "above 0.5 on wide-pool, below 0.05 on long-decode"),
    Metric("train.step_ms", "ms", "lower", _TRAIN),
    Metric("train.loss_and_grads_ms", "ms", "lower", _TRAIN),
    Metric("train.negative_grams_ms", "ms", "lower", _TRAIN),
    Metric("trace.overhead_ratio", "ratio", "lower", "traced over untraced request_ms_p50"),
)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float]:
    """Highest order statistic with ``TAIL_SAMPLES_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``.  With too few samples to leave that many
    beyond, the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 1 - TAIL_SAMPLES_BEYOND]), 100.0 * (n - TAIL_SAMPLES_BEYOND) / n
