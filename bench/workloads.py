"""The four benchmark workloads: inputs, set-up, the measured loop and its checks.

Each workload is one closed-loop client in one process: the next request is
sent only when the previous one has returned.  Every input (adapters as LGAD
bytes, prompts, tasks) is generated here from the workload seed; the library
only ever sees the generated inputs.

Serving workloads use random rank-4 adapters, because cost does not depend on
factor values and training hundreds of adapters in set-up is not feasible.
Their factors are large enough that dropping any selected adapter changes the
greedy tokens, so a wrong merge cannot hide from the reference check.
"""
from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference
from calibration import HostSpeed
from metrics import median, tail
from tracing import Tracer, duration_ms, instrumented, self_ms

from loraroute import (
    DEFAULT_K,
    AdapterPool,
    EngineConfig,
    LoraAdapter,
    LoraFactors,
    ModelConfig,
    adapter_from_bytes,
    adapter_to_bytes,
    fuse_parameters,
    fused_hooks,
    init_backbone,
    mixture_hooks,
    probe,
    route_and_generate,
)
from loraroute.backbone import HOOK_SITES
from loraroute.harness import make_tasks, negative_grams, train_toy_adapter

#: The CLI's default model, ``--config 64,4,4,128,256,256``.
CONFIG = ModelConfig(64, 4, 4, 128, 256, 256)
RANK = 4
#: Factor entries are uniform in ``±ADAPTER_SCALE / sqrt(d_model)``.
ADAPTER_SCALE = 3.0
SETUP_REPEATS = 9
WARMUP_UNITS = 2

#: The CLI ``train-adapters`` recipe (its defaults), minus the step count.
TRAIN_RECIPE = dict(rank=RANK, lr=0.3, weight_decay=0.01, quiet_weight=0.01, length_jitter=1)
TASK_RECIPE = dict(band_width=2, in_band_prob=1.0, anchor_prob=0.75)
#: ``train_toy_adapter`` defaults the recipe keeps: batch rows, prompt
#: length, and the negative prompts behind the quiet penalty.
TRAIN_BATCH, TRAIN_PROMPT_LEN, NEGATIVE_PROMPTS = 16, 12, 32
#: Steps of the training job a traced serving run adds for the train layers.
LAYER_TRAIN_STEPS = 4
#: Tokens each request emits when a traced train-adapters run serves the
#: adapters it trained.
LAYER_SERVE_MAX_NEW = 16
CHECK_PROMPTS = 8


@dataclass(frozen=True)
class Serving:
    """A serving workload.  ``check_rate`` is the share of requests after the
    first that the reference rechecks, set so checks add a few seconds a run."""

    name: str
    n_adapters: int
    k: int
    prompt_len: int
    max_new: int
    check_rate: float
    why: str
    churn: bool = False


@dataclass(frozen=True)
class Training:
    name: str
    n_tasks: int
    steps: int
    check_rate: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Serving(
            "wide-pool", n_adapters=512, k=3, prompt_len=12, max_new=4, check_rate=0.05,
            why="512 adapters, k=3, 4 new tokens: the one-pass probe over the whole pool is most "
            "of each request, so signals and the pool-wide hook path show here",
        ),
        Serving(
            "long-decode", n_adapters=32, k=20, prompt_len=12, max_new=192, check_rate=0.02,
            why="32 adapters, default mixture k=20, 192 new tokens: decode is nearly all of each "
            "request, so backbone decode and the mixture/fusion cost rule show here",
        ),
        Serving(
            "pool-churn", n_adapters=64, k=8, prompt_len=48, max_new=16, check_rate=0.03, churn=True,
            why="64 adapters, k=8, 48-token prompts; each request follows a remove and an add parsed "
            "from LGAD bytes, so pool writes, prefill and any cache keyed on pool contents show here",
        ),
        Training(
            "train-adapters", n_tasks=4, steps=16, check_rate=0.1,
            why="the CLI train-adapters recipe at 16 steps per adapter over 4 tasks: the manual-backprop "
            "trainer, the heaviest compute in the package, shows here",
        ),
    )
}


def _seconds(work) -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def random_adapter_bytes(rng: np.random.Generator, adapter_id: str) -> bytes:
    bound = ADAPTER_SCALE / np.sqrt(CONFIG.d_model)
    factors = {
        (j, site): LoraFactors(
            rng.uniform(-bound, bound, (CONFIG.d_model, RANK)),
            rng.uniform(-bound, bound, (RANK, CONFIG.d_model)),
        )
        for j in range(CONFIG.n_blocks)
        for site in HOOK_SITES
    }
    return adapter_to_bytes(LoraAdapter(adapter_id, 1.0, factors))


@dataclass
class Unit:
    """What one measured unit of work (a request or a training job) returned."""

    ms: float
    loop_s: float
    tokens: int
    errors: list[str] = field(default_factory=list)


@dataclass
class Tally:
    """Times are in reference-host units (see ``calibration.py``) unless raw."""

    setup_s: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    unit_ms: list[float] = field(default_factory=list)
    raw_unit_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    raw_loop_s: float = 0.0
    tokens: int = 0
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str, errors: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: " + "; ".join(errors[:3]), file=sys.stderr)


class Runner:
    """Shared loop: set up, warm up, then measure units until time runs out.

    Untraced runs measure one unit per cycle.  Traced runs measure an
    untraced and a traced unit per cycle, in alternating order, then call
    :meth:`layer_pass` for the layers the unit itself does not reach.
    Every unit, set-up and layer pass is timed between two runs of the
    ``CALIBRATION`` kernel (see ``calibration.py``).
    """

    CALIBRATION: str

    def __init__(self, spec, seed: int, trace: bool, smoke: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.smoke = smoke
        self.tally = Tally()
        self.backbone = None
        self.tracer: Tracer | None = None
        if trace:
            self.tracer = Tracer(lambda: self.backbone.forward_count if self.backbone else 0)
        self.check_rng = np.random.default_rng([seed, 2])
        self.speed = HostSpeed(self.CALIBRATION)

    # -- hooks for subclasses
    def set_up(self) -> None: ...
    def unit(self, i: int, traced: bool) -> Unit: ...
    def layer_pass(self, i: int) -> None: ...
    def finish(self) -> None: ...

    def measure(self, seconds: float) -> Tally:
        tally = self.tally
        for _ in range(1 if self.smoke else SETUP_REPEATS):
            elapsed, scale = self._bracket(lambda: _seconds(self.set_up))
            tally.raw_setup_s.append(elapsed)
            tally.setup_s.append(elapsed * scale)
        for w in range(WARMUP_UNITS):
            self.unit(-1 - w, traced=False)
        self.speed.invalidate()
        max_units = 3 if self.smoke else None
        # Untraced runs measure ``seconds`` of unit time; traced runs stop
        # after ``seconds`` of wall time, layer passes included.
        start = time.perf_counter()
        i = 0
        while (max_units is None or i < max_units) and (
            (time.perf_counter() - start if self.tracer else tally.raw_loop_s) < seconds
        ):
            if self.tracer is None:
                self._attempt(i, traced=False)
            else:
                self.tracer.request = i
                order = (False, True) if i % 2 == 0 else (True, False)
                for traced in order:
                    self._attempt(i, traced)
                tally.attempted += 1
                try:
                    self._bracket(lambda: self.layer_pass(i))
                except Exception:
                    self.speed.invalidate()
                    tally.fail(f"layer pass {i}", [traceback.format_exc()])
                self.tracer.request = None
            i += 1
        if self.tracer:
            self._check_traced_invariants()
        self.finish()
        return tally

    def _check_traced_invariants(self) -> None:
        for span in self.tracer.named("signals.probe"):
            if span["forward_passes"] != 1:
                self.tally.fail(f"probe in request {span['request']}", [f"{span['forward_passes']} forward passes"])
        for span in self.tracer.named("engine.request"):
            if span["forward_passes"] != 1 + span["tokens"]:
                self.tally.fail(
                    f"request {span['request']}",
                    [f"{span['forward_passes']} forward passes for {span['tokens']} emitted tokens"],
                )

    def _bracket(self, work):
        """Run ``work`` between host-speed timings; scale the spans it recorded."""
        mark = len(self.tracer.spans) if self.tracer else 0
        result, scale = self.speed.bracket(work)
        if self.tracer:
            for span in self.tracer.spans[mark:]:
                span["scale"] = scale
        return result, scale

    def _attempt(self, i: int, traced: bool) -> None:
        tally = self.tally
        tally.attempted += 1
        try:
            unit, scale = self._bracket(lambda: self.unit(i, traced))
        except Exception:
            self.speed.invalidate()
            tally.fail(f"unit {i}", [traceback.format_exc()])
            return
        if traced:
            tally.traced_ms.append(unit.ms * scale)
        else:
            tally.unit_ms.append(unit.ms * scale)
            tally.raw_unit_ms.append(unit.ms)
        tally.loop_s += unit.loop_s * scale
        tally.raw_loop_s += unit.loop_s
        tally.tokens += unit.tokens
        if not traced and (self.smoke or i == 0 or self.check_rng.random() < self.spec.check_rate):
            unit.errors += self.check(i)
            self.speed.invalidate()
        if unit.errors:
            tally.fail(f"unit {i}", unit.errors)

    def check(self, i: int) -> list[str]:
        return []

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.tracer, self.tally)


class ServingRunner(Runner):
    CALIBRATION = "dispatch"

    def __init__(self, spec: Serving, seed: int, trace: bool, smoke: bool) -> None:
        super().__init__(spec, seed, trace, smoke)
        rng = np.random.default_rng([seed, 0])
        self.blobs = [random_adapter_bytes(rng, f"a{i:05d}") for i in range(spec.n_adapters)]
        self.config = EngineConfig(k=spec.k)
        self.fresh = 0
        self.last = None
        self.train_tasks = make_tasks(4, CONFIG.vocab_size, seed=seed, **TASK_RECIPE)

    def set_up(self) -> None:
        self.backbone = init_backbone(CONFIG, self.seed)
        self.pool = AdapterPool(CONFIG)
        parse = adapter_from_bytes
        if self.tracer is not None:
            parse = self.tracer.wrap(adapter_from_bytes, "adapters.parse")
        for blob in self.blobs:
            self.pool.add(parse(blob))

    def prompt(self, i: int) -> list[int]:
        rng = np.random.default_rng([self.seed, 1, i + WARMUP_UNITS])
        return [int(t) for t in rng.integers(0, CONFIG.vocab_size, self.spec.prompt_len)]

    def _churn(self, i: int, traced: bool) -> float:
        """Replace one seeded-random adapter by a fresh one; returns the write time."""
        rng = np.random.default_rng([self.seed, 3, i + WARMUP_UNITS])
        victim = self.pool.ids()[int(rng.integers(len(self.pool)))]
        self.fresh += 1
        blob = random_adapter_bytes(rng, f"fresh{self.fresh:06d}")
        tracer = self.tracer
        t0 = time.perf_counter()
        if not traced:
            adapter = adapter_from_bytes(blob)
            self.pool.remove(victim)
            self.pool.add(adapter)
        else:
            with tracer.span("adapters.parse"):
                adapter = adapter_from_bytes(blob)
            with tracer.span("adapters.pool_write"):
                self.pool.remove(victim)
                self.pool.add(adapter)
        return time.perf_counter() - t0

    def unit(self, i: int, traced: bool) -> Unit:
        spec, backbone = self.spec, self.backbone
        prompt = self.prompt(i)
        write_s = self._churn(i, traced) if spec.churn else 0.0
        before = backbone.forward_count
        if traced:
            with instrumented(self.tracer, backbone, self.pool):
                with self.tracer.span("engine.request", adapters=len(self.pool)) as span:
                    result = route_and_generate(backbone, self.pool, prompt, self.config, max_new=spec.max_new)
                    span["tokens"] = len(result.output_tokens)
            ms = (span["end"] - span["start"]) * 1e3
        else:
            t0 = time.perf_counter()
            result = route_and_generate(backbone, self.pool, prompt, self.config, max_new=spec.max_new)
            ms = (time.perf_counter() - t0) * 1e3
        passes = backbone.forward_count - before
        self.last = (prompt, result)
        unit = Unit(ms, write_s + ms / 1e3, len(result.output_tokens))
        if passes != 1 + len(result.output_tokens):
            unit.errors.append(f"{passes} forward passes for {len(result.output_tokens)} emitted tokens")
        return unit

    def check(self, i: int) -> list[str]:
        prompt, result = self.last
        _, adapters = self.pool.snapshot()
        before = self.backbone.forward_count
        report = probe(self.backbone, self.pool, prompt, self.config.signal)
        errors = []
        if self.backbone.forward_count - before != 1:
            errors.append(f"probe issued {self.backbone.forward_count - before} forward passes")
        scores = reference.probe_scores(self.backbone, adapters, prompt, self.config.signal)
        errors += reference.check_probe(report, scores)
        errors += reference.check_request(
            self.backbone, adapters, prompt, scores, self.spec.k, self.spec.max_new, result
        )
        return errors

    def layer_pass(self, i: int) -> None:
        prompt, result = self.last
        serve_layers(self.tracer, self.backbone, self.pool, prompt, result.decision, self.spec.max_new)
        task = self.train_tasks[i % len(self.train_tasks)]
        train_job(self.tracer, self.backbone, task, LAYER_TRAIN_STEPS, seed=i)

class TrainingRunner(Runner):
    CALIBRATION = "blas"

    def __init__(self, spec: Training, seed: int, trace: bool, smoke: bool) -> None:
        super().__init__(spec, seed, trace, smoke)
        self.negatives = np.random.default_rng([seed, 0]).integers(
            0, CONFIG.vocab_size, (NEGATIVE_PROMPTS, TRAIN_PROMPT_LEN + TRAIN_RECIPE["length_jitter"])
        )
        self.last = None
        self.served: dict[str, bytes] = {}
        #: ``(bare loss, trained loss)`` of every checked job.
        self.losses: list[tuple[float, float]] = []

    def set_up(self) -> None:
        self.backbone = init_backbone(CONFIG, self.seed)
        self.tasks = make_tasks(self.spec.n_tasks, CONFIG.vocab_size, seed=self.seed, **TASK_RECIPE)
        negative_grams(self.backbone, self.negatives)

    def unit(self, i: int, traced: bool) -> Unit:
        task = self.tasks[i % len(self.tasks)]
        seed = self.seed * 100_000 + i + WARMUP_UNITS
        t0 = time.perf_counter()
        if traced:
            adapter, blob = train_job(self.tracer, self.backbone, task, self.spec.steps, seed)
        else:
            adapter = train_toy_adapter(self.backbone, task, steps=self.spec.steps, seed=seed, **TRAIN_RECIPE)
            blob = adapter_to_bytes(adapter)
        elapsed = time.perf_counter() - t0
        self.last = (task, seed, adapter)
        self.served[task.task_id] = blob
        return Unit(elapsed * 1e3, elapsed, self.spec.steps * TRAIN_BATCH * TRAIN_PROMPT_LEN)

    def check(self, i: int) -> list[str]:
        """Exact loss and gradient at the trained factors, and bitwise-identical retraining."""
        task, seed, adapter = self.last
        rng = np.random.default_rng([self.seed, 4, i])
        prompts = [task.sample_prompt(rng, TRAIN_PROMPT_LEN) for _ in range(CHECK_PROMPTS)]
        targets = [task.target_next(p) for p in prompts]
        errors = reference.check_training(self.backbone, adapter, prompts, targets, rng)
        again = train_toy_adapter(self.backbone, task, steps=self.spec.steps, seed=seed, **TRAIN_RECIPE)
        if any(
            not (np.array_equal(f.a, again.factors[key].a) and np.array_equal(f.b, again.factors[key].b))
            for key, f in adapter.factors.items()
        ):
            errors.append("retraining with the same seed gave different factors")
        self.losses.append(
            (
                reference.task_loss(self.backbone, None, prompts, targets),
                reference.task_loss(self.backbone, adapter, prompts, targets),
            )
        )
        return errors

    def finish(self) -> None:
        """Training must lower the task loss on most checked jobs.

        Not on every one: momentum SGD at the recipe's learning rate is not
        monotone, and a 16-step job can end inside a loss spike (one of some
        900 jobs at random seeds did).
        """
        lowered = sum(trained < bare for bare, trained in self.losses)
        summary = f"trained adapters lowered the task loss on {lowered} of {len(self.losses)} checked jobs"
        print(summary, file=sys.stderr)
        if self.losses and 2 * lowered <= len(self.losses):
            self.tally.fail("training", [summary])

    def layer_pass(self, i: int) -> None:
        """Serve one request from the adapters trained so far, parsed from their bytes."""
        tracer, backbone = self.tracer, self.backbone
        pool = AdapterPool(CONFIG)
        for blob in self.served.values():
            with tracer.span("adapters.parse"):
                adapter = adapter_from_bytes(blob)
            pool.add(adapter)
        task = self.tasks[i % len(self.tasks)]
        prompt = task.sample_prompt(np.random.default_rng([self.seed, 5, i]), TRAIN_PROMPT_LEN)
        with instrumented(tracer, backbone, pool):
            with tracer.span("engine.request", adapters=len(pool)) as span:
                result = route_and_generate(
                    backbone, pool, prompt, EngineConfig(k=DEFAULT_K), max_new=LAYER_SERVE_MAX_NEW
                )
                span["tokens"] = len(result.output_tokens)
        serve_layers(tracer, backbone, pool, prompt, result.decision, LAYER_SERVE_MAX_NEW)


def serve_layers(tracer: Tracer, backbone, pool, prompt, decision, max_new: int) -> None:
    """Time the serving layers a routed request does not reach on its own."""
    with tracer.span("routing.mixture_build"):
        mixed = mixture_hooks(pool, decision)
    with tracer.span("routing.fusion_build"):
        fused = fused_hooks(fuse_parameters(pool, decision))
    with tracer.span("backbone.forward.bare"):
        backbone.forward(prompt)
    for mode, hooks in (("bare", ()), ("mixture", mixed), ("fusion", fused)):
        with tracer.span(f"backbone.generate_1.{mode}"):
            backbone.generate(prompt, hooks, max_new=1)
        with tracer.span(f"backbone.generate_n.{mode}", tokens=max_new):
            backbone.generate(prompt, hooks, max_new=max_new)
    victim = decision.selected[0].adapter_id
    adapter = pool.get(victim)
    with tracer.span("adapters.pool_write"):
        pool.remove(victim)
        pool.add(adapter)


def train_job(tracer: Tracer, backbone, task, steps: int, seed: int):
    """One traced ``train-adapters`` job: train, then serialize as the CLI saves it."""
    with instrumented(tracer, backbone, None):
        with tracer.span("train.job", steps=steps):
            adapter = train_toy_adapter(backbone, task, steps=steps, seed=seed, **TRAIN_RECIPE)
            blob = adapter_to_bytes(adapter)
    return adapter, blob


def _median_ms(tracer: Tracer, name: str) -> float:
    return median([duration_ms(s) for s in tracer.named(name)])


def layer_metrics(tracer: Tracer, tally: Tally) -> dict[str, float]:
    requests = tracer.named("engine.request")
    probes = tracer.named("signals.probe")
    probe_in_request = [
        sum(duration_ms(c) for c in tracer.children(r) if c["name"] == "signals.probe") for r in requests
    ]
    adapters = [r["adapters"] for r in requests]
    out = {
        "signals.probe_ms": _median_ms(tracer, "signals.probe"),
        "signals.forward_passes_per_probe": float(np.mean([s["forward_passes"] for s in probes])),
        "routing.select_ms": _median_ms(tracer, "routing.select"),
        "routing.mixture_build_ms": _median_ms(tracer, "routing.mixture_build"),
        "routing.fusion_build_ms": _median_ms(tracer, "routing.fusion_build"),
        "backbone.prefill_ms": _median_ms(tracer, "backbone.generate_1.mixture"),
        "backbone.forward_ms.bare": _median_ms(tracer, "backbone.forward.bare"),
        "backbone.forward_passes_per_request": float(np.mean([r["forward_passes"] for r in requests])),
        "adapters.parse_ms": _median_ms(tracer, "adapters.parse"),
        "adapters.pool_write_ms": _median_ms(tracer, "adapters.pool_write"),
        "adapters.snapshot_ms": _median_ms(tracer, "adapters.snapshot"),
        "engine.request_ms": median([duration_ms(r) for r in requests]),
        "engine.self_ms": median([self_ms(tracer, r) for r in requests]),
        "engine.probe_share": sum(probe_in_request) / sum(duration_ms(r) for r in requests),
        "train.loss_and_grads_ms": _median_ms(tracer, "train.loss_and_grads"),
        "train.negative_grams_ms": _median_ms(tracer, "train.negative_grams"),
        "trace.overhead_ratio": median(tally.traced_ms) / median(tally.unit_ms),
    }
    out["signals.probe_us_per_adapter"] = median([p * 1e3 / n for p, n in zip(probe_in_request, adapters)])
    for mode in ("bare", "mixture", "fusion"):
        ones = tracer.named(f"backbone.generate_1.{mode}")
        many = tracer.named(f"backbone.generate_n.{mode}")
        out[f"backbone.decode_ms_per_token.{mode}"] = median(
            [(duration_ms(n) - duration_ms(one)) / (n["tokens"] - 1) for one, n in zip(ones, many)]
        )
    steps = []
    for job in tracer.named("train.job"):
        grams = sum(duration_ms(c) for c in tracer.children(job) if c["name"] == "train.negative_grams")
        steps.append((duration_ms(job) - grams) / job["steps"])
    out["train.step_ms"] = median(steps)
    return out


def end_to_end(tally: Tally, peak_rss_mb: float) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics, and report lines on the tail and on raw wall times."""
    tail_ms, tail_pct = tail(tally.unit_ms)
    values = {
        "setup_s": median(tally.setup_s),
        "request_ms_p50": median(tally.unit_ms),
        "request_ms_tail": tail_ms,
        "requests_per_s": len(tally.unit_ms) / tally.loop_s,
        "tokens_per_s": tally.tokens / tally.loop_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"request_ms_tail is p{tail_pct:.1f} of {len(tally.unit_ms)} requests",
        f"raw wall time: setup_s {median(tally.raw_setup_s):.6g} s, request_ms_p50 "
        f"{median(tally.raw_unit_ms):.6g} ms, request_ms_tail {tail(tally.raw_unit_ms)[0]:.6g} ms",
    ]
    return values, notes


def make_runner(name: str, seed: int, trace: bool, smoke: bool) -> Runner:
    spec = WORKLOADS[name]
    cls: Callable[..., Runner] = ServingRunner if isinstance(spec, Serving) else TrainingRunner
    return cls(spec, seed, trace, smoke)
