import numpy as np
import pytest

from loraroute import (
    AdapterPool,
    LoraAdapter,
    LoraFactors,
    ModelConfig,
    ProjectionHook,
    delta_apply,
    init_backbone,
)


@pytest.fixture
def tiny_config():
    return ModelConfig(d_model=32, n_blocks=2, n_heads=4, d_ff=64, vocab_size=64, max_seq_len=48)


@pytest.fixture
def tiny_backbone(tiny_config):
    return init_backbone(tiny_config, seed=7)


def make_adapter(config, adapter_id, seed=0, rank=4, alpha=1.0, scale=0.1, metadata=""):
    """Random dense-factor adapter covering every (block, site) of `config`."""
    rng = np.random.default_rng(seed)
    factors = {}
    for j in range(config.n_blocks):
        for site in ("Q", "V"):
            factors[(j, site)] = LoraFactors(
                rng.normal(size=(config.d_model, rank)) * scale,
                rng.normal(size=(rank, config.d_model)) * scale,
            )
    return LoraAdapter(id=adapter_id, alpha=alpha, factors=factors, metadata=metadata)


def make_pool(config, n, seed=0, rank=4, alpha=1.0):
    pool = AdapterPool(config)
    for i in range(n):
        pool.add(make_adapter(config, f"ad{i:02d}", seed=seed + i, rank=rank, alpha=alpha))
    return pool


@pytest.fixture
def small_pool(tiny_config):
    return make_pool(tiny_config, 5)


def make_mixed_pool(config):
    """Pool of adapters with ranks 1, 3 and 8 at alphas other than one."""
    pool = AdapterPool(config)
    for rank, alpha in ((1, 0.7), (3, 1.9), (8, 3.25)):
        pool.add(make_adapter(config, f"r{rank}", seed=rank, rank=rank, alpha=alpha))
    return pool


def per_adapter_reference_decode(backbone, pool, decision, prompt, max_new):
    """Greedy full recompute under one hook per (block, site) that sums each
    selected adapter's own ``delta_apply`` at ``w_i * alpha_i``: the slow
    reference a merged operator must decode like."""
    by_id = {a.id: a for a in pool.snapshot()[1]}
    scaled = [(by_id[i], w * by_id[i].alpha) for i, w in decision.weights().items()]

    def fn(block, site, h, base):
        return sum(delta_apply(a, block, site, h, alpha_override=s) for a, s in scaled)

    hooks = [
        ProjectionHook(j, site, fn) for j in range(backbone.config.n_blocks) for site in ("Q", "V")
    ]
    seq = list(prompt)
    for _ in range(max_new):
        seq.append(int(np.argmax(backbone.forward(seq, hooks).logits[-1])))
    return seq[len(prompt):]


def byte_mutations(blob, seed, count):
    """Seeded corruptions of ``blob``: overwritten bytes (half of them in the
    first 64, where the headers live), truncations and insertions."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(blob)
        kind = rng.integers(3)
        if kind == 0:
            for _ in range(int(rng.integers(1, 5))):
                span = min(64, len(data)) if rng.random() < 0.5 else len(data)
                data[int(rng.integers(span))] = int(rng.integers(256))
        elif kind == 1:
            del data[int(rng.integers(len(data))) :]
        else:
            at = int(rng.integers(len(data) + 1))
            data[at:at] = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        yield bytes(data)
