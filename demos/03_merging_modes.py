"""Show that the merged operator is the weighted mixture of the adapters.

Keeping the selected adapters and rescaling each one's contribution by its
routing weight ("mixture") and collapsing them into a single dense weight
update ("fusion") apply the same linear map, so the library builds the merge
once per request as that dense update: at this model width one dense
product per token is cheaper than the adapters' thin factors.  The demo
checks the update against the sum of the rescaled adapters' own deltas at
every projection site, then decodes through the engine and through a slow
per-adapter reference (a full recompute per token, one hook per site summing
each adapter's own delta) and gets identical tokens.
"""

import numpy as np

from loraroute import (
    EngineConfig,
    ModelConfig,
    ProjectionHook,
    SignalConfig,
    delta_apply,
    fuse_parameters,
    fused_hooks,
    init_backbone,
    probe,
    route_and_generate,
    select_topk,
)
from loraroute.adapters import AdapterPool, LoraAdapter, LoraFactors

CONFIG = ModelConfig(
    d_model=32, n_blocks=2, n_heads=2, d_ff=64, vocab_size=64, max_seq_len=96
)
SIGNAL = SignalConfig(target_block=0, token_policy="first")


def random_pool(n: int, rank: int, rng: np.random.Generator) -> AdapterPool:
    pool = AdapterPool(CONFIG)
    for i in range(n):
        factors = {}
        for j in range(CONFIG.n_blocks):
            for site in ("Q", "V"):
                factors[(j, site)] = LoraFactors(
                    rng.normal(size=(CONFIG.d_model, rank)) * 0.1,
                    rng.normal(size=(rank, CONFIG.d_model)) * 0.1,
                )
        pool.add(LoraAdapter(id=f"adapter{i}", alpha=1.0, factors=factors))
    return pool


def reference_decode(backbone, pool, decision, prompt, max_new: int) -> list[int]:
    """Greedy decoding by full recompute, each site summing every selected
    adapter's own delta at ``w_i * alpha_i``."""
    scaled = [(pool.get(i), w * pool.get(i).alpha) for i, w in decision.weights().items()]

    def fn(block, site, h, base):
        return sum(delta_apply(a, block, site, h, alpha_override=s) for a, s in scaled)

    hooks = [ProjectionHook(j, site, fn) for j in range(CONFIG.n_blocks) for site in ("Q", "V")]
    seq = list(prompt)
    for _ in range(max_new):
        seq.append(int(np.argmax(backbone.forward(seq, hooks).logits[-1])))
    return seq[len(prompt):]


def main() -> None:
    rng = np.random.default_rng(0)
    backbone = init_backbone(CONFIG, seed=7)
    pool = random_pool(5, rank=3, rng=rng)
    prompt = list(rng.integers(0, CONFIG.vocab_size, size=10))

    decision = select_topk(probe(backbone, pool, prompt, SIGNAL), 3)
    print(f"selected {decision.ids()} with weights "
          + ", ".join(f"{w:.3f}" for w in decision.weights().values()))

    print("\n== the merged update is the sum of the rescaled adapters at every site ==")
    h = rng.normal(size=(6, CONFIG.d_model))
    worst = 0.0
    for hook in fused_hooks(fuse_parameters(pool, decision)):
        mixture_out = sum(
            delta_apply(pool.get(i), hook.block, hook.site, h, alpha_override=w * pool.get(i).alpha)
            for i, w in decision.weights().items()
        )
        fused_out = hook.fn(hook.block, hook.site, h, np.zeros_like(h))
        diff = float(np.max(np.abs(mixture_out - fused_out)))
        worst = max(worst, diff)
        print(f"  block {hook.block} site {hook.site}: max |difference| = {diff:.2e}")
    print(f"worst disagreement on a random hidden state: {worst:.2e}")

    print("\n== and decoding is token-for-token identical ==")
    result = route_and_generate(backbone, pool, prompt, EngineConfig(signal=SIGNAL, k=3), max_new=10)
    print(f"  engine   : {result.output_tokens}")
    print(f"  reference: {reference_decode(backbone, pool, result.decision, prompt, 10)}")


if __name__ == "__main__":
    main()
