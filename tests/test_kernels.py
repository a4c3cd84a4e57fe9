"""The block loop's and the trainer's kernels are bitwise the textbook ones.

Layer norm and softmax reduce through the ufuncs directly
(``np.add.reduce``, ``np.maximum.reduce``) and centre once.  NumPy's own
``mean``/``var``/``max``/``sum`` do the same arithmetic, so every output
must equal, with ``np.array_equal`` and no tolerance, what the textbook
kernels below give when patched in.
"""
import numpy as np

import loraroute.backbone as backbone_module
import loraroute.harness.train as train_module
import loraroute.numcore as numcore_module
from loraroute import (
    SignalConfig,
    adapter_to_bytes,
    l2_norm,
    mixture_hooks,
    probe,
    select_topk,
    shannon_entropy,
    softmax,
)
from loraroute.backbone import _LN_EPS, _layer_norm
from loraroute.harness import make_tasks, train_toy_adapter
from loraroute.harness.train import _ln_bwd, _ln_fwd
from loraroute.numcore import softmax_last

from conftest import make_mixed_pool


def textbook_layer_norm(x, gamma, beta):
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + _LN_EPS) * gamma + beta


def textbook_softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def textbook_ln_fwd(x, gamma, beta):
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + _LN_EPS)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
    return xhat * gamma + beta, (xhat, inv_std)


def textbook_ln_bwd(dy, cache, gamma):
    xhat, inv_std = cache
    dxhat = dy * gamma
    return inv_std * (
        dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def random_inputs(seed, count):
    """``(x, gamma, beta)`` with 1- to 4-D ``x`` of 1 to 64 rows at scales 0.1 to 100."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 70))
        lead = tuple(int(n) for n in rng.integers(1, 5, size=int(rng.integers(0, 4))))
        scale = 10.0 ** rng.uniform(-1, 2)
        x = rng.normal(size=lead + (d,)) * scale + rng.normal() * scale
        yield x, rng.normal(size=d), rng.normal(size=d)


class TestKernelsAlone:
    def test_layer_norm(self):
        for x, g, b in random_inputs(0, 600):
            assert np.array_equal(_layer_norm(x, g, b), textbook_layer_norm(x, g, b))

    def test_trainer_layer_norm_forward_and_backward(self):
        for x, g, b in random_inputs(1, 600):
            y, cache = _ln_fwd(x, g, b)
            y_ref, cache_ref = textbook_ln_fwd(x, g, b)
            assert np.array_equal(y, y_ref)
            assert all(np.array_equal(c, r) for c, r in zip(cache, cache_ref))
            dy = np.random.default_rng(x.size).normal(size=x.shape)
            assert np.array_equal(_ln_bwd(dy, cache, g), textbook_ln_bwd(dy, cache_ref, g))

    def test_softmax_with_masked_entries(self):
        rng = np.random.default_rng(2)
        for x, _, _ in random_inputs(3, 600):
            # Mask entries at random, as the causal mask does, keeping one per row.
            masked = np.where(rng.random(x.shape) < 0.3, -np.inf, x)
            masked[..., 0] = x[..., 0]
            assert np.array_equal(softmax_last(masked), textbook_softmax(masked))
            assert np.array_equal(softmax_last(x), textbook_softmax(x))

    def test_validated_kernels(self):
        for x, _, _ in random_inputs(4, 300):
            rows = x.reshape(-1, x.shape[-1])
            assert np.array_equal(softmax(rows), textbook_softmax(rows))
            assert np.array_equal(l2_norm(rows), np.sqrt(np.sum(rows * rows, axis=-1)))
            p = textbook_softmax(rows)
            textbook_entropy = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)
            assert np.array_equal(shannon_entropy(p), textbook_entropy)


def run_everything(backbone, config):
    """Every array the block loop and the trainer produce on a fixed input set."""
    out = []
    rng = np.random.default_rng(5)
    prompt = [int(t) for t in rng.integers(0, config.vocab_size, size=9)]
    pool = make_mixed_pool(config)
    for scoring in ("norm", "inverse_entropy"):
        for block in range(config.n_blocks):
            report = probe(backbone, pool, prompt, SignalConfig(block, "mean", scoring))
            out += [report.outputs, report.score_vector]
    hooks = mixture_hooks(pool, select_topk(probe(backbone, pool, prompt), 2))
    trace = backbone.forward(prompt, hooks)
    out += [trace.final_hidden, trace.logits]
    out += [backbone.block_input(prompt, j, hooks) for j in range(config.n_blocks)]

    # Each pass of a decode: the masked 9-token prefill, then one token at a time.
    run = backbone._run

    def spy(*args, **kwargs):
        result = run(*args, **kwargs)
        out.append(result.logits)
        return result

    backbone._run = spy
    try:
        tokens = backbone.generate(prompt, hooks, max_new=6).tokens
    finally:
        del backbone._run
    out.append(np.array(tokens))

    (task,) = make_tasks(1, config.vocab_size, band_width=2, seed=11)
    adapter = train_toy_adapter(
        backbone, task, rank=2, steps=3, seed=1, quiet_weight=0.01, length_jitter=1
    )
    out.append(np.frombuffer(adapter_to_bytes(adapter), dtype=np.uint8))
    return out


def test_end_to_end_bitwise_textbook(tiny_backbone, tiny_config, monkeypatch):
    fast = run_everything(tiny_backbone, tiny_config)
    for module, name, kernel in [
        (backbone_module, "_layer_norm", textbook_layer_norm),
        (backbone_module, "softmax_last", textbook_softmax),
        (numcore_module, "softmax_last", textbook_softmax),
        (train_module, "_ln_fwd", textbook_ln_fwd),
        (train_module, "_ln_bwd", textbook_ln_bwd),
        (train_module, "softmax_last", textbook_softmax),
    ]:
        monkeypatch.setattr(module, name, kernel)
    slow = run_everything(tiny_backbone, tiny_config)
    assert len(fast) == len(slow)
    for i, (a, b) in enumerate(zip(fast, slow)):
        assert a.shape == b.shape and np.array_equal(a, b), f"array {i} differs"

