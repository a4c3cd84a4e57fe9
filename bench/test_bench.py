"""Self-test of the benchmark, run from the checkout root:

    python3 -m pytest bench/test_bench.py

Smoke runs of every workload must report the full metric schema with no
failure, a planted wrong merge and a planted trainer whose output depends
on earlier calls must be reported as failed, and the benchmark must refuse
to run without the library's sources.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()

import loraroute.engine as engine_module  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from loraroute import LoraAdapter, LoraFactors  # noqa: E402
from loraroute.routing import RoutingDecision  # noqa: E402


def _quiet(line: str) -> None:
    pass


def test_benchmark_json_lists_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_tail_leaves_ten_samples_beyond():
    assert metrics.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_reports_full_schema(workload, trace):
    result = run.run(workload, seed=3, seconds=1.0, trace=trace, smoke=True, emit=_quiet)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in table]
    for m in table:
        entry = result["metrics"][m.name]
        assert entry["unit"] == m.unit
        assert math.isfinite(entry["value"]) and entry["value"] > 0, m.name


def test_planted_wrong_merge_is_reported(monkeypatch):
    correct_merge = engine_module.mixture_hooks

    def drop_lowest_weight(pool, decision):
        lowest = min(decision.selected, key=lambda s: s.weight)
        kept = tuple(s for s in decision.selected if s is not lowest)
        return correct_merge(
            pool, RoutingDecision(decision.k, decision.pool_revision, decision.scoring, kept)
        )

    monkeypatch.setattr(engine_module, "mixture_hooks", drop_lowest_weight)
    result = run.run("wide-pool", seed=3, seconds=1.0, trace=False, smoke=True, emit=_quiet)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_planted_nondeterministic_trainer_is_reported(monkeypatch):
    correct_train = workloads.train_toy_adapter
    calls = []

    def drifting(backbone, task, **kwargs):
        calls.append(None)
        adapter = correct_train(backbone, task, **kwargs)
        factors = {key: LoraFactors(f.a + 1e-12 * len(calls), f.b) for key, f in adapter.factors.items()}
        return LoraAdapter(adapter.id, adapter.alpha, factors)

    monkeypatch.setattr(workloads, "train_toy_adapter", drifting)
    result = run.run("train-adapters", seed=3, seconds=1.0, trace=False, smoke=True, emit=_quiet)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide-pool", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
