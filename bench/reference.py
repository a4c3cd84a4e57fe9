"""Slow reference checks for the benchmark's outputs, run untimed.

The reference is built only from ``Backbone.forward`` (a full pass with no
KV cache), ``ProjectionHook`` and ``delta_apply``.  It deliberately avoids
``adapter_hooks``, ``mixture_hooks`` and the probe's own hooks, so that a
fast path that replaces them is still checked against independent math.

Every check returns a list of mismatch descriptions; an empty list passes.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from loraroute import (
    Backbone,
    LoraAdapter,
    LoraFactors,
    ProjectionHook,
    RouteResult,
    SignalConfig,
    SignalReport,
    delta_apply,
)
from loraroute.backbone import HOOK_SITES
from loraroute.harness import loss_and_grads

#: Relative tolerance on scores and weights, and the band inside which two
#: adapters count as tied for selection.
SCORE_RTOL = 1e-9
#: Tolerance of the trainer's loss against the reference loss.
LOSS_RTOL = 1e-9
#: Tolerance of the trainer's gradient against a central finite difference,
#: relative to ``max(1, |directional derivative|)``.
GRAD_RTOL = 1e-6
_FD_EPS = 1e-5


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _hooks(n_blocks: int, terms: Sequence[tuple[LoraAdapter, float]], capture=None):
    """Hooks adding ``sum_i delta_apply(adapter_i, scale_i)`` at every (block, site).

    ``capture`` is ``(block, site, dict)``: each adapter's own delta at that
    projection is stored in the dict under its id.
    """

    def make(block: int, site: str):
        store = capture[2] if capture and capture[:2] == (block, site) else None

        def fn(b: int, s: str, h: np.ndarray, base: np.ndarray) -> np.ndarray:
            total = np.zeros_like(base)
            for adapter, scale in terms:
                d = delta_apply(adapter, b, s, h, alpha_override=scale)
                if store is not None:
                    store[adapter.id] = d
                total = total + d
            return total

        return fn

    return [ProjectionHook(j, s, make(j, s)) for j in range(n_blocks) for s in HOOK_SITES]


def probe_scores(
    backbone: Backbone, adapters: Sequence[LoraAdapter], prompt: Sequence[int], signal: SignalConfig
) -> dict[str, float]:
    """Every adapter's score: one full pass with all adapters at their own alpha."""
    if signal.token_policy != "last" or signal.scoring != "norm":
        raise NotImplementedError("the reference covers the default signal config only")
    target = signal.resolve_block(backbone.config.n_blocks)
    captured: dict[str, np.ndarray] = {}
    terms = [(a, a.alpha) for a in adapters]
    backbone.forward(prompt, _hooks(backbone.config.n_blocks, terms, (target, "Q", captured)))
    return {a.id: float(np.sqrt(np.sum(captured[a.id][-1] ** 2))) for a in adapters}


def greedy_tokens(
    backbone: Backbone,
    adapters: Sequence[LoraAdapter],
    weights: Sequence[float],
    prompt: Sequence[int],
    max_new: int,
) -> list[int]:
    """Greedy decode under the mixture merge, one full forward per token."""
    terms = [(a, w * a.alpha) for a, w in zip(adapters, weights)]
    hooks = _hooks(backbone.config.n_blocks, terms)
    seq = list(prompt)
    out: list[int] = []
    for _ in range(max_new):
        tok = int(np.argmax(backbone.forward(seq, hooks).logits[-1]))
        out.append(tok)
        seq.append(tok)
    return out


def check_probe(report: SignalReport, scores: dict[str, float]) -> list[str]:
    """The probe's full score vector against the reference scores."""
    got = report.scores()
    if set(got) != set(scores):
        return [f"probe scored {sorted(set(got) ^ set(scores))} differently from the pool"]
    return [
        f"probe score of {i} is {got[i]!r}, reference {scores[i]!r}"
        for i in sorted(scores)
        if not _close(got[i], scores[i], SCORE_RTOL)
    ]


def check_request(
    backbone: Backbone,
    adapters: Sequence[LoraAdapter],
    prompt: Sequence[int],
    scores: dict[str, float],
    k: int,
    max_new: int,
    result: RouteResult,
) -> list[str]:
    """Selection, weights and greedy tokens of one routed request.

    ``adapters`` is the pool as it stands at the request and ``scores`` its
    :func:`probe_scores`.  The selection may differ from the reference only
    between adapters whose reference scores agree within ``SCORE_RTOL``.
    """
    ranked = sorted(scores, key=lambda i: (-scores[i], i))[:k]
    chosen = result.decision.selected
    errors = []
    if len(chosen) != len(ranked):
        return [f"selected {len(chosen)} adapters, reference selects {len(ranked)}"]
    for pos, (sel, ref_id) in enumerate(zip(chosen, ranked)):
        if sel.adapter_id not in scores:
            return [f"selected {sel.adapter_id!r}, which is not in the pool"]
        if sel.adapter_id != ref_id and not _close(scores[sel.adapter_id], scores[ref_id], SCORE_RTOL):
            errors.append(f"rank {pos}: selected {sel.adapter_id!r}, reference {ref_id!r}")
        if not _close(sel.score, scores[sel.adapter_id], SCORE_RTOL):
            errors.append(f"score of {sel.adapter_id!r} is {sel.score!r}, reference {scores[sel.adapter_id]!r}")
    by_id = {a.id: a for a in adapters}
    picked = [by_id[s.adapter_id] for s in chosen]
    raw = np.array([scores[a.id] for a in picked])
    weights = raw / raw.sum() if raw.sum() > 0 else np.full(raw.size, 1.0 / raw.size)
    for sel, w in zip(chosen, weights):
        if not _close(sel.weight, float(w), SCORE_RTOL):
            errors.append(f"weight of {sel.adapter_id!r} is {sel.weight!r}, reference {float(w)!r}")
    tokens = greedy_tokens(backbone, picked, weights, prompt, max_new)
    if list(result.output_tokens) != tokens:
        errors.append(f"greedy tokens {list(result.output_tokens)}, reference {tokens}")
    return errors


def task_loss(backbone: Backbone, adapter: LoraAdapter | None, prompts, targets) -> float:
    """Mean next-token cross-entropy at the last prompt position."""
    hooks = [] if adapter is None else _hooks(backbone.config.n_blocks, [(adapter, adapter.alpha)])
    total = 0.0
    for prompt, target in zip(prompts, targets):
        logits = backbone.forward(list(prompt), hooks).logits[-1]
        top = float(np.max(logits))
        total += top + float(np.log(np.sum(np.exp(logits - top)))) - float(logits[target])
    return total / len(prompts)


def check_training(
    backbone: Backbone,
    adapter: LoraAdapter,
    prompts: Sequence[Sequence[int]],
    targets: Sequence[int],
    rng: np.random.Generator,
) -> list[str]:
    """A trained adapter against the reference loss.

    Checks that the trainer's ``loss_and_grads`` at the trained factors
    returns the reference loss, and that its gradient matches a central
    finite difference of the reference loss along a random direction.
    Whether training lowered the loss is not checked here: momentum SGD is
    not monotone, and a short job can end inside a loss spike.
    """
    errors = []
    trained = task_loss(backbone, adapter, prompts, targets)
    params = {key: [f.a.copy(), f.b.copy()] for key, f in adapter.factors.items()}
    loss, grads = loss_and_grads(
        backbone, params, adapter.alpha, np.asarray(prompts, dtype=np.int64), np.asarray(targets)
    )
    if not _close(loss, trained, LOSS_RTOL):
        errors.append(f"trainer loss {loss!r}, reference {trained!r}")

    direction = {key: [rng.standard_normal(a.shape), rng.standard_normal(b.shape)] for key, (a, b) in params.items()}
    analytic = sum(float(np.sum(grads[key][s] * direction[key][s])) for key in params for s in (0, 1))

    def shifted(sign: float) -> LoraAdapter:
        factors = {
            key: LoraFactors(a + sign * _FD_EPS * direction[key][0], b + sign * _FD_EPS * direction[key][1])
            for key, (a, b) in params.items()
        }
        return LoraAdapter(adapter.id, adapter.alpha, factors)

    numeric = (
        task_loss(backbone, shifted(1.0), prompts, targets)
        - task_loss(backbone, shifted(-1.0), prompts, targets)
    ) / (2 * _FD_EPS)
    if abs(analytic - numeric) > GRAD_RTOL * max(1.0, abs(analytic)):
        errors.append(f"directional derivative {analytic!r}, finite difference {numeric!r}")
    return errors
