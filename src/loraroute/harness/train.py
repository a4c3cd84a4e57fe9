"""Toy LoRA training against a frozen backbone, gradients done by hand.

There is no autodiff here: the forward pass is re-implemented in batched
numpy with every intermediate cached, and the backward pass propagates
analytic gradients through the unembedding, final layer norm, each block's
feed-forward, attention, layer norms, and the adapted Q/V projections — but
only the adapter factors ``A`` and ``B`` receive gradients; backbone weights
stay frozen.  The objective is next-token cross-entropy at the final prompt
position, which is exactly the synthetic tasks' evaluation rule.

The duplicated forward math is pinned to the backbone by tests (trainer
logits must equal ``backbone.forward`` with the adapter attached) and the
gradients are checked against central finite differences.

The recipe's fixed settings are module constants: :data:`BATCH_SIZE` prompts
per step of ``DEFAULT_PROMPT_LEN`` tokens before jitter, the adapter scale
:data:`ALPHA`, the SGD momentum :data:`MOMENTUM`, and :data:`QUIET_SAMPLES`
random prompts for the quiet penalty.  The adapter id is ``{task_id}-r{rank}``.
"""
from __future__ import annotations

import numpy as np

from ..adapters import LoraAdapter, LoraFactors
from ..backbone import HOOK_SITES, Backbone, _centre, _gelu, _LN_EPS
from ..errors import TrainingDivergedError, ValidationError
from ..numcore import softmax_last
from .tasks import DEFAULT_PROMPT_LEN, SyntheticTask

Array = np.ndarray

BATCH_SIZE = 16
ALPHA = 1.0
MOMENTUM = 0.9
QUIET_SAMPLES = 32


def train_toy_adapter(
    backbone: Backbone,
    task: SyntheticTask,
    rank: int = 8,
    steps: int = 200,
    lr: float = 0.5,
    seed: int = 0,
    *,
    weight_decay: float = 0.0,
    length_jitter: int = 0,
    quiet_weight: float = 0.0,
) -> LoraAdapter:
    """Fit one adapter to one task by SGD (with classical momentum).

    Factors start with the write matrix ``A`` random and the read matrix
    ``B`` zero, so the adapter's delta is exactly zero before the first step
    and every row of the trained ``B`` is a sum of gradient outer products
    with task inputs — the reads end up aligned with the task's own token
    subspace instead of keeping a task-agnostic random component.  Same
    ``(backbone, task, hyperparameters, seed)`` always yields bitwise
    identical factors.  A non-finite loss aborts with
    :class:`TrainingDivergedError` naming the step.

    ``weight_decay`` adds the usual L2 pull toward zero on both factors.
    Besides regularizing, it drives adapters trained with the same recipe
    toward similar overall magnitudes, which keeps raw signal scores
    comparable across a pool.

    ``quiet_weight`` adds an off-task silence penalty: the mean squared
    response ``‖α·A·B·u‖²`` over hidden states ``u`` captured from the *base*
    model on uniformly random token prompts.  Reads that fire on generic
    content (position features, arbitrary tokens) are suppressed, while reads
    reinforced by the task's own gradient survive — so a quiet-trained
    adapter responds strongly on its own task and stays near-silent
    elsewhere, which is what makes response-magnitude routing signals sharp.
    The penalty is exactly quadratic in the factors (the negative hidden
    states are constants), so its gradients are exact.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")

    cfg = backbone.config
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(cfg.d_model)
    params: dict[tuple[int, str], list[Array]] = {}
    velocity: dict[tuple[int, str], list[Array]] = {}
    for j in range(cfg.n_blocks):
        for site in HOOK_SITES:
            a = rng.uniform(-bound, bound, size=(cfg.d_model, rank))
            b = np.zeros((rank, cfg.d_model))
            params[(j, site)] = [a, b]
            velocity[(j, site)] = [np.zeros_like(a), np.zeros_like(b)]

    grams = None
    if quiet_weight > 0.0:
        neg_len = min(DEFAULT_PROMPT_LEN + length_jitter, cfg.max_seq_len)
        neg = rng.integers(0, cfg.vocab_size, size=(QUIET_SAMPLES, neg_len))
        grams = negative_grams(backbone, neg)

    for step in range(steps):
        # Optional per-step prompt length jitter keeps the supervised position
        # moving, so the factors learn token-content reads rather than
        # memorizing one absolute position.
        step_len = DEFAULT_PROMPT_LEN
        if length_jitter > 0:
            lo = max(2, DEFAULT_PROMPT_LEN - length_jitter)
            step_len = int(rng.integers(lo, DEFAULT_PROMPT_LEN + length_jitter + 1))
        prompts = [task.sample_prompt(rng, step_len) for _ in range(BATCH_SIZE)]
        ids = np.asarray(prompts, dtype=np.int64)
        targets = np.asarray([task.target_next(p) for p in prompts], dtype=np.int64)
        loss, grads = loss_and_grads(backbone, params, ALPHA, ids, targets)
        if grams is not None:
            penalty, pgrads = quiet_penalty_and_grads(params, ALPHA, grams)
            loss += quiet_weight * penalty
            for key in params:
                for slot in (0, 1):
                    grads[key][slot] = grads[key][slot] + quiet_weight * pgrads[key][slot]
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at step {step}")
        for key in params:
            for slot in (0, 1):
                update = grads[key][slot] + weight_decay * params[key][slot]
                velocity[key][slot] = MOMENTUM * velocity[key][slot] + update
                params[key][slot] = params[key][slot] - lr * velocity[key][slot]

    factors = {
        key: LoraFactors(pair[0].copy(), pair[1].copy()) for key, pair in params.items()
    }
    return LoraAdapter(id=f"{task.task_id}-r{rank}", alpha=ALPHA, factors=factors)


def negative_grams(backbone: Backbone, neg_ids: Array) -> list[Array]:
    """Per-block Gram matrices of base-model hidden states on negative prompts.

    For each block ``j``, returns ``G_j = mean(u uᵀ)`` over every position of
    every prompt in ``neg_ids``, where ``u`` is the hidden state entering the
    block's attention projections in the *base* (adapter-free) model.  Both
    the Q and V projections of a block read the same ``u``, so one Gram per
    block serves both sites.
    """
    from ..backbone import ProjectionHook

    cfg = backbone.config
    total = [np.zeros((cfg.d_model, cfg.d_model)) for _ in range(cfg.n_blocks)]
    count = 0

    captured: dict[int, Array] = {}

    def make_spy(j: int):
        def spy(block: int, site: str, h: Array, base: Array) -> Array:
            captured[j] = np.asarray(h, dtype=np.float64)
            return np.zeros_like(base)

        return spy

    spies = [ProjectionHook(j, "Q", make_spy(j)) for j in range(cfg.n_blocks)]
    for row in np.asarray(neg_ids, dtype=np.int64):
        captured.clear()
        backbone.forward([int(x) for x in row], spies)
        for j in range(cfg.n_blocks):
            u = np.atleast_2d(captured[j])
            total[j] += u.T @ u
            if j == 0:
                count += u.shape[0]
    return [g / max(count, 1) for g in total]


def quiet_penalty_and_grads(
    params: dict[tuple[int, str], list[Array]],
    alpha: float,
    grams: list[Array],
) -> tuple[float, dict[tuple[int, str], list[Array]]]:
    """Mean squared off-task response and its exact factor gradients.

    The penalty is ``mean over sites of α²·tr(Bᵀ Aᵀ A B G)``, i.e. the mean
    squared delta the adapter would emit on the negative hidden states whose
    Gram matrices ``G`` were captured by :func:`negative_grams`.  Being
    quadratic in ``A`` and ``B``, the gradients are closed-form.
    """
    penalty = 0.0
    pgrads: dict[tuple[int, str], list[Array]] = {}
    n_sites = len(params)
    a2 = alpha * alpha
    for (j, site), (a, b) in params.items():
        g = grams[j]
        bg = b @ g                      # (r, d)
        bgbt = bg @ b.T                 # (r, r)
        ata = a.T @ a                   # (r, r)
        penalty += a2 * float(np.trace(ata @ bgbt)) / n_sites
        pgrads[(j, site)] = [
            2.0 * a2 * (a @ bgbt) / n_sites,
            2.0 * a2 * (ata @ bg) / n_sites,
        ]
    return penalty, pgrads


def loss_and_grads(
    backbone: Backbone,
    params: dict[tuple[int, str], list[Array]],
    alpha: float,
    ids: Array,
    targets: Array,
) -> tuple[float, dict[tuple[int, str], list[Array]]]:
    """Batched loss and analytic factor gradients for one SGD step.

    ``ids`` is ``(batch, T)`` token ids, ``targets`` the label per row.
    Returns mean cross-entropy at the final position and, per (block, site),
    gradients ``[dA, dB]``.
    """
    cfg = backbone.config
    bsz, t = ids.shape
    n_heads = cfg.n_heads
    dh = cfg.d_model // n_heads
    scale = 1.0 / np.sqrt(dh)
    mask = np.triu(np.full((t, t), -np.inf), k=1)

    def split(x: Array) -> Array:  # (B,T,d) -> (B,H,T,dh)
        return x.reshape(bsz, t, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x: Array) -> Array:  # (B,H,T,dh) -> (B,T,d)
        return x.transpose(0, 2, 1, 3).reshape(bsz, t, cfg.d_model)

    # ---- forward with caches
    x = backbone.embed[ids] + backbone.pos[:t]
    caches = []
    for j, blk in enumerate(backbone.blocks):
        aq, bq = params[(j, "Q")]
        av, bv = params[(j, "V")]
        u, ln1c = _ln_fwd(x, blk.ln1_g, blk.ln1_b)
        u_bq = u @ bq.T
        u_bv = u @ bv.T
        q = u @ blk.wq.T + alpha * (u_bq @ aq.T)
        k = u @ blk.wk.T
        v = u @ blk.wv.T + alpha * (u_bv @ av.T)
        qh, kh, vh = split(q), split(k), split(v)
        s = qh @ kh.swapaxes(-1, -2) * scale + mask
        attn = softmax_last(s)
        o = merge(attn @ vh) @ blk.wo.T
        x1 = x + o
        w_in, ln2c = _ln_fwd(x1, blk.ln2_g, blk.ln2_b)
        f1 = w_in @ blk.w1.T
        g = _gelu(f1)
        x_next = x1 + g @ blk.w2.T
        caches.append((u, ln1c, u_bq, u_bv, qh, kh, vh, attn, ln2c, f1, g))
        x = x_next

    h_fin, lnfc = _ln_fwd(x, backbone.ln_f_g, backbone.ln_f_b)
    last_logits = h_fin[:, -1] @ backbone.unembed.T  # (B, V)

    shifted = last_logits - last_logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(bsz), targets]))

    # ---- backward
    p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    p[np.arange(bsz), targets] -= 1.0
    d_last = p / bsz  # (B, V)
    dh_fin = np.zeros_like(h_fin)
    dh_fin[:, -1] = d_last @ backbone.unembed
    dx = _ln_bwd(dh_fin, lnfc, backbone.ln_f_g)

    grads: dict[tuple[int, str], list[Array]] = {}
    for j in reversed(range(cfg.n_blocks)):
        blk = backbone.blocks[j]
        aq, bq = params[(j, "Q")]
        av, bv = params[(j, "V")]
        u, ln1c, u_bq, u_bv, qh, kh, vh, attn, ln2c, f1, g = caches[j]

        # x_next = x1 + gelu(w_in W1^T) W2^T
        dx1 = dx.copy()
        dg = dx @ blk.w2
        df1 = dg * _gelu_grad(f1)
        dw_in = df1 @ blk.w1
        dx1 += _ln_bwd(dw_in, ln2c, blk.ln2_g)

        # x1 = x0 + merge(attn @ v) Wo^T
        dx0 = dx1.copy()
        dc = split(dx1 @ blk.wo)
        da = dc @ vh.swapaxes(-1, -2)
        dvh = attn.swapaxes(-1, -2) @ dc
        tmp = attn * da
        ds = (tmp - attn * tmp.sum(axis=-1, keepdims=True)) * scale
        dqh = ds @ kh
        dkh = ds.swapaxes(-1, -2) @ qh
        dq, dk, dv = merge(dqh), merge(dkh), merge(dvh)

        # q = u (Wq + alpha Aq Bq)^T ; v likewise ; k unadapted
        w_eff_q = blk.wq + alpha * (aq @ bq)
        w_eff_v = blk.wv + alpha * (av @ bv)
        du = dq @ w_eff_q + dk @ blk.wk + dv @ w_eff_v
        d_aq = alpha * np.einsum("btm,btr->mr", dq, u_bq)
        d_bq = alpha * np.einsum("btr,btn->rn", dq @ aq, u)
        d_av = alpha * np.einsum("btm,btr->mr", dv, u_bv)
        d_bv = alpha * np.einsum("btr,btn->rn", dv @ av, u)
        grads[(j, "Q")] = [d_aq, d_bq]
        grads[(j, "V")] = [d_av, d_bv]

        dx0 += _ln_bwd(du, ln1c, blk.ln1_g)
        dx = dx0

    return loss, grads


def _ln_fwd(x: Array, gamma: Array, beta: Array) -> tuple[Array, tuple[Array, Array]]:
    # Multiplies by the reciprocal where the backbone divides: an ulp apart,
    # and the trained factors follow these exact bits, so only the centring
    # and variance are shared.
    xc, var = _centre(x)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv_std
    return xhat * gamma + beta, (xhat, inv_std)


def _ln_bwd(dy: Array, cache: tuple[Array, Array], gamma: Array) -> Array:
    xhat, inv_std = cache
    d = dy.shape[-1]
    dxhat = dy * gamma
    return inv_std * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
    )


def _gelu_grad(x: Array) -> Array:
    from scipy.special import erf

    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi
