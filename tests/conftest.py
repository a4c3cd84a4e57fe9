import csv
import json

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
from loraroute.adapters import STACK_CHUNK


@pytest.fixture
def tiny_config():
    return ModelConfig(d_model=32, n_blocks=2, n_heads=4, d_ff=64, vocab_size=64, max_seq_len=48)


@pytest.fixture
def tiny_backbone(tiny_config):
    return init_backbone(tiny_config, seed=7)


def make_adapter(config, adapter_id, seed=0, rank=4, alpha=1.0, scale=0.1):
    """Random dense-factor adapter covering every (block, site) of `config`."""
    rng = np.random.default_rng(seed)
    factors = {}
    for j in range(config.n_blocks):
        for site in ("Q", "V"):
            factors[(j, site)] = LoraFactors(
                rng.normal(size=(config.d_model, rank)) * scale,
                rng.normal(size=(rank, config.d_model)) * scale,
            )
    return LoraAdapter(id=adapter_id, alpha=alpha, factors=factors)


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


def chunked_adapters(config):
    """``2 * STACK_CHUNK + 5`` adapters (a count no chunk divides) of ranks 1
    to 8 at alphas other than one, in ascending id order."""
    return [
        make_adapter(config, f"c{i:03d}", seed=100 + i, rank=1 + i % 8, alpha=0.6 + 0.35 * (i % 5), scale=0.03)
        for i in range(2 * STACK_CHUNK + 5)
    ]


def make_chunked_pool(config):
    """Pool spanning several chunks: the :func:`chunked_adapters`."""
    pool = AdapterPool(config)
    for adapter in chunked_adapters(config):
        pool.add(adapter)
    return pool


def delta_apply_hooks(n_blocks, terms):
    """One hook per (block, site) that sums each ``(adapter, scale)`` term's own
    ``delta_apply`` at that scale: the slow reference way to attach adapters."""

    def fn(block, site, h, base):
        return sum(delta_apply(a, block, site, h, alpha_override=s) for a, s in terms)

    return [ProjectionHook(j, site, fn) for j in range(n_blocks) for site in ("Q", "V")]


def per_adapter_reference_decode(backbone, pool, decision, prompt, max_new):
    """Greedy full recompute with each selected adapter attached through its
    own ``delta_apply`` at ``w_i * alpha_i``: the slow reference a merged
    operator must decode like."""
    by_id = {a.id: a for a in pool.snapshot()[1]}
    scaled = [(by_id[i], w * by_id[i].alpha) for i, w in decision.weights().items()]
    hooks = delta_apply_hooks(backbone.config.n_blocks, scaled)
    seq = list(prompt)
    for _ in range(max_new):
        seq.append(int(np.argmax(backbone.forward(seq, hooks).logits[-1])))
    return seq[len(prompt):]


def read_report(path):
    """A report file the CLI wrote, read with the standard library.

    JSON reports come back as the parsed object.  CSV grids come back as a
    dict of ``axes`` (the top-left cell), ``row_labels``, ``col_labels`` and
    the float ``grid``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        if fh.read(1) == "{":
            fh.seek(0)
            return json.load(fh)
        fh.seek(0)
        header, *rows = csv.reader(fh)
    return {
        "axes": header[0],
        "row_labels": [row[0] for row in rows],
        "col_labels": header[1:],
        "grid": np.array([[float(cell) for cell in row[1:]] for row in rows]),
    }


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
