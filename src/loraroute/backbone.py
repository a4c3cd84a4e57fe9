"""Minimal decoder-only transformer with hookable Q/V projections.

The model is deliberately small and boring: pre-norm blocks, causal
multi-head attention, a GELU feed-forward, learned absolute position
embeddings, and greedy decoding.  Weights are frozen after initialization
(arrays are marked read-only); the only way to change behaviour at inference
time is through :class:`ProjectionHook` objects, which add a delta to the
output of the Q or V projection of a chosen block.

Every pass runs one block loop over a run of positions: a full forward
runs the whole sequence with no cache; greedy decoding runs the prompt (the
prefill) and then each emitted token against a key/value cache; and
:meth:`Backbone.block_input` runs the sequence only as far as one block's
first layernorm, returning the input that block's Q/K/V projections see (the
probe reads nothing later).

On a one-token pass the loop's cost is mostly NumPy's Python-level
wrappers, not arithmetic, so its layer norm and softmax call the ufunc
reductions (``np.add.reduce``, ``np.maximum.reduce``) directly and centre
once.  They are bitwise what NumPy's ``mean``/``var``/``max``/``sum`` give,
which compute the same sums and divides; tests pin the two to each other.

A backbone serializes to a single binary file (magic ``LGBK``) that
round-trips bitwise, and exposes ``forward_count`` so callers can assert how
many passes an operation really issued.
"""
from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.special import erf

from .errors import (
    ContextOverflowError,
    FormatError,
    ShapeMismatchError,
    TokenRangeError,
    ValidationError,
)
from .numcore import softmax_last

Array = np.ndarray

BACKBONE_MAGIC = b"LGBK"
BACKBONE_VERSION = 1

#: Projection sites that accept hooks.
HOOK_SITES = ("Q", "V")

_LN_EPS = 1e-5
_SQRT2 = np.sqrt(2.0)

#: Hook callback: ``fn(block, site, h, base) -> delta`` where ``h`` is the
#: per-token input to the projection (rows of shape ``(T, d_model)``) and
#: ``base`` is the base projection output; the returned delta is added to
#: ``base`` and must match its shape.
HookFn = Callable[[int, str, Array, Array], Array]


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of a backbone; immutable once constructed."""

    d_model: int
    n_blocks: int
    n_heads: int
    d_ff: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self) -> None:
        for name in ("d_model", "n_blocks", "n_heads", "d_ff", "vocab_size", "max_seq_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValidationError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )


@dataclass(frozen=True)
class ProjectionHook:
    """Additive hook attached to one (block, site) projection."""

    block: int
    site: str
    fn: HookFn

    def __post_init__(self) -> None:
        if self.site not in HOOK_SITES:
            raise ValidationError(f"hook site must be one of {HOOK_SITES}, got {self.site!r}")
        if not isinstance(self.block, int) or self.block < 0:
            raise ValidationError(f"hook block must be a non-negative integer, got {self.block!r}")


@dataclass
class HiddenTrace:
    """Per-position outputs of a forward pass.

    ``final_hidden`` is the post-final-layernorm hidden state feeding the
    unembedding (shape ``(T, d_model)``); ``logits`` has shape
    ``(T, vocab_size)``.  No per-block activation is kept; a caller that
    needs one attaches a :class:`ProjectionHook` at that block.
    """

    final_hidden: Array
    logits: Array


@dataclass
class GenerationResult:
    """Greedy decoding output plus per-token wall-clock timings."""

    tokens: list[int]
    per_token_ms: list[float]


@dataclass
class _BlockWeights:
    ln1_g: Array
    ln1_b: Array
    wq: Array
    wk: Array
    wv: Array
    wo: Array
    ln2_g: Array
    ln2_b: Array
    w1: Array
    w2: Array

    def arrays(self) -> list[Array]:
        return [
            self.ln1_g, self.ln1_b, self.wq, self.wk, self.wv, self.wo,
            self.ln2_g, self.ln2_b, self.w1, self.w2,
        ]


class _KVCache:
    """Preallocated per-block key/value stores for incremental decoding."""

    def __init__(self, config: ModelConfig) -> None:
        dh = config.d_model // config.n_heads
        shape = (config.n_blocks, config.n_heads, config.max_seq_len, dh)
        self.k = np.empty(shape, dtype=np.float64)
        self.v = np.empty(shape, dtype=np.float64)


class Backbone:
    """Frozen decoder-only transformer.

    Construct via :func:`init_backbone` or :func:`load_backbone`; the class
    itself only runs the math.  ``forward_count`` increments once per forward
    pass (full or incremental) and is instrumentation only — it is not part
    of the serialized state or the content hash.
    """

    def __init__(
        self,
        config: ModelConfig,
        embed: Array,
        pos: Array,
        blocks: list[_BlockWeights],
        ln_f_g: Array,
        ln_f_b: Array,
        unembed: Array,
    ) -> None:
        self.config = config
        self.embed = embed
        self.pos = pos
        self.blocks = blocks
        self.ln_f_g = ln_f_g
        self.ln_f_b = ln_f_b
        self.unembed = unembed
        self.forward_count = 0
        self._score_divisor = np.sqrt(config.d_model // config.n_heads)
        self._freeze()

    # -- construction helpers -------------------------------------------------

    def _freeze(self) -> None:
        for arr in self._weight_arrays():
            arr.flags.writeable = False

    def _weight_arrays(self) -> list[Array]:
        arrs = [self.embed, self.pos]
        for blk in self.blocks:
            arrs.extend(blk.arrays())
        arrs.extend([self.ln_f_g, self.ln_f_b, self.unembed])
        return arrs

    # -- forward math ----------------------------------------------------------

    def _validate_tokens(self, tokens: Sequence[int]) -> np.ndarray:
        tokens = list(tokens)
        if not tokens:
            raise ValidationError("token sequence must contain at least one id")
        if len(tokens) > self.config.max_seq_len:
            raise ContextOverflowError(
                f"sequence of {len(tokens)} tokens exceeds max_seq_len {self.config.max_seq_len}"
            )
        for tok in tokens:
            if isinstance(tok, bool) or not isinstance(tok, (int, np.integer)):
                raise ValidationError(f"token ids must be integers, got {tok!r}")
            if not 0 <= tok < self.config.vocab_size:
                raise TokenRangeError(f"token id {tok} outside [0, {self.config.vocab_size})")
        return np.asarray(tokens, dtype=np.int64)

    def _group_hooks(self, hooks: Iterable[ProjectionHook]) -> dict[tuple[int, str], list[HookFn]]:
        grouped: dict[tuple[int, str], list[HookFn]] = {}
        for hook in hooks:
            if not isinstance(hook, ProjectionHook):
                raise ValidationError(f"expected ProjectionHook, got {type(hook).__name__}")
            if hook.block >= self.config.n_blocks:
                raise ValidationError(
                    f"hook block {hook.block} out of range for {self.config.n_blocks}-block model"
                )
            grouped.setdefault((hook.block, hook.site), []).append(hook.fn)
        return grouped

    def _apply_hooks(
        self,
        grouped: dict[tuple[int, str], list[HookFn]],
        block: int,
        site: str,
        h: Array,
        base: Array,
    ) -> Array:
        fns = grouped.get((block, site))
        if not fns:
            return base
        out = base
        for fn in fns:
            delta = np.asarray(fn(block, site, h, base), dtype=np.float64)
            if delta.shape != base.shape:
                raise ShapeMismatchError(
                    f"hook at (block={block}, site={site}) returned delta of shape "
                    f"{delta.shape}, expected {base.shape}"
                )
            out = out + delta
        return out

    def _split_heads(self, x: Array) -> Array:
        t = x.shape[0]
        h = self.config.n_heads
        return x.reshape(t, h, -1).transpose(1, 0, 2)  # (H, T, dh)

    def _merge_heads(self, x: Array) -> Array:
        return x.transpose(1, 0, 2).reshape(x.shape[1], self.config.d_model)

    def forward(self, tokens: Sequence[int], hooks: Iterable[ProjectionHook] = ()) -> HiddenTrace:
        """Run a full causal forward pass; returns the final hidden state and logits."""
        ids = self._validate_tokens(tokens)
        grouped = self._group_hooks(hooks)
        self.forward_count += 1
        return self._run(ids, 0, grouped, cache=None)

    def block_input(
        self, tokens: Sequence[int], block: int, hooks: Iterable[ProjectionHook] = ()
    ) -> Array:
        """The ``(T, d_model)`` input to ``block``'s projections in a full pass.

        Runs the forward pass only up to that block's first layernorm, so a
        hook at ``block`` or later is never called.  It counts as one pass.
        """
        ids = self._validate_tokens(tokens)
        if not isinstance(block, int) or not 0 <= block < self.config.n_blocks:
            raise ValidationError(
                f"block must be in [0, {self.config.n_blocks}), got {block!r}"
            )
        grouped = self._group_hooks(hooks)
        self.forward_count += 1
        return self._run(ids, 0, grouped, cache=None, stop=block)

    def _run(
        self,
        ids: np.ndarray,
        start: int,
        grouped: dict[tuple[int, str], list[HookFn]],
        cache: _KVCache | None,
        stop: int | None = None,
    ) -> HiddenTrace | Array:
        """Run ``ids`` at positions ``start .. start+T`` through every block.

        With a cache, each block writes its keys and values there and attends
        over every position cached so far; without one (``start`` must be 0)
        it attends over ``ids`` alone.  A single token sees every earlier
        position, so the causal mask is only built when more run.  With
        ``stop``, the loop returns block ``stop``'s first layernorm output.
        """
        t = ids.size
        end = start + t
        x = self.embed[ids] + self.pos[start:end]
        mask = np.triu(np.full((t, end), -np.inf), k=start + 1) if t > 1 else None

        for j, blk in enumerate(self.blocks):
            u = _layer_norm(x, blk.ln1_g, blk.ln1_b)
            if j == stop:
                return u
            q = self._apply_hooks(grouped, j, "Q", u, u @ blk.wq.T)
            k = u @ blk.wk.T
            v = self._apply_hooks(grouped, j, "V", u, u @ blk.wv.T)
            qh, kh, vh = self._split_heads(q), self._split_heads(k), self._split_heads(v)
            if cache is not None:
                cache.k[j, :, start:end] = kh
                cache.v[j, :, start:end] = vh
                kh, vh = cache.k[j, :, :end], cache.v[j, :, :end]
            scores = qh @ kh.transpose(0, 2, 1) / self._score_divisor
            if mask is not None:
                scores += mask
            attn = softmax_last(scores)
            x = x + self._merge_heads(attn @ vh) @ blk.wo.T
            w = _layer_norm(x, blk.ln2_g, blk.ln2_b)
            x = x + _gelu(w @ blk.w1.T) @ blk.w2.T
        final_hidden = _layer_norm(x, self.ln_f_g, self.ln_f_b)
        return HiddenTrace(final_hidden, final_hidden @ self.unembed.T)

    def generate(
        self,
        prompt: Sequence[int],
        hooks: Iterable[ProjectionHook] = (),
        max_new: int = 0,
        eos_token: int | None = None,
    ) -> GenerationResult:
        """Greedy decoding with per-token wall-clock timings.

        Decoding is incremental: the prompt is processed by one pass (whose
        time is charged to the first emitted token) and each later token by
        a one-token pass over the cached keys/values.  Every pass bumps
        ``forward_count`` by one.
        """
        steps = list(self.decode(prompt, hooks, max_new, eos_token))
        return GenerationResult([tok for tok, _ in steps], [ms for _, ms in steps])

    def decode(
        self,
        prompt: Sequence[int],
        hooks: Iterable[ProjectionHook] = (),
        max_new: int = 0,
        eos_token: int | None = None,
    ) -> Iterator[tuple[int, float]]:
        """:meth:`generate` one token at a time: yields each ``(token, ms)``.

        The arguments are checked on the call, before any token is decoded;
        a caller can interleave two decodes step by step.
        """
        ids = self._validate_tokens(prompt)
        if not isinstance(max_new, int) or max_new < 0:
            raise ValidationError(f"max_new must be a non-negative integer, got {max_new!r}")
        if ids.size + max_new > self.config.max_seq_len:
            raise ContextOverflowError(
                f"prompt of {ids.size} tokens + {max_new} new tokens exceeds "
                f"max_seq_len {self.config.max_seq_len}"
            )
        return self._decode(ids, self._group_hooks(hooks), max_new, eos_token)

    def _decode(
        self,
        ids: Array,
        grouped: dict[tuple[int, str], list[HookFn]],
        max_new: int,
        eos_token: int | None,
    ) -> Iterator[tuple[int, float]]:
        cache = _KVCache(self.config)
        start = 0
        for _ in range(max_new):
            t0 = time.perf_counter()
            self.forward_count += 1
            tok = int(np.argmax(self._run(ids, start, grouped, cache).logits[-1]))
            yield tok, (time.perf_counter() - t0) * 1e3
            if tok == eos_token:
                return
            start += ids.size
            ids = np.array([tok])

    # -- serialization ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the ``LGBK`` binary format (bitwise round-trip)."""
        cfg = self.config
        header = BACKBONE_MAGIC + struct.pack(
            "<BIIIIII",
            BACKBONE_VERSION,
            cfg.d_model,
            cfg.n_blocks,
            cfg.n_heads,
            cfg.d_ff,
            cfg.vocab_size,
            cfg.max_seq_len,
        )
        payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in self._weight_arrays())
        return header + payload

    def content_hash(self) -> str:
        """SHA-256 hex digest of the serialized model."""
        return hashlib.sha256(self.to_bytes()).hexdigest()


def _centre(x: Array) -> tuple[Array, Array]:
    """``x`` minus its last-axis mean, and that axis's variance: bitwise
    ``x.mean``/``x.var`` (keepdims), with the mean summed once, not twice."""
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    return xc, np.add.reduce(xc * xc, axis=-1, keepdims=True) / d


def _layer_norm(x: Array, gamma: Array, beta: Array) -> Array:
    xc, var = _centre(x)
    return xc / np.sqrt(var + _LN_EPS) * gamma + beta


def _gelu(x: Array) -> Array:
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def init_backbone(config: ModelConfig, seed: int) -> Backbone:
    """Deterministically initialize a backbone from ``(config, seed)``.

    Every weight matrix is drawn from ``U(-1/sqrt(fan_in), 1/sqrt(fan_in))``
    in a fixed order, so the same config and seed always produce the same
    bytes.  Layer-norm scales start at one, offsets at zero.
    """
    if not isinstance(seed, int):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    d, dff, v, s = config.d_model, config.d_ff, config.vocab_size, config.max_seq_len

    def u(fan_in: int, shape: tuple[int, ...]) -> Array:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    embed = u(d, (v, d))
    pos = u(d, (s, d))
    blocks = []
    for _ in range(config.n_blocks):
        blocks.append(
            _BlockWeights(
                ln1_g=np.ones(d), ln1_b=np.zeros(d),
                wq=u(d, (d, d)), wk=u(d, (d, d)), wv=u(d, (d, d)), wo=u(d, (d, d)),
                ln2_g=np.ones(d), ln2_b=np.zeros(d),
                w1=u(d, (dff, d)), w2=u(dff, (d, dff)),
            )
        )
    return Backbone(config, embed, pos, blocks, np.ones(d), np.zeros(d), u(d, (v, d)))


def backbone_from_bytes(data: bytes) -> Backbone:
    """Parse the ``LGBK`` binary format; raises :class:`FormatError` on damage."""
    if len(data) < 4 or data[:4] != BACKBONE_MAGIC:
        raise FormatError(f"bad magic: expected {BACKBONE_MAGIC!r}")
    header_len = 4 + struct.calcsize("<BIIIIII")
    if len(data) < header_len:
        raise FormatError("truncated header")
    version, d, n_blocks, n_heads, d_ff, vocab, max_seq = struct.unpack(
        "<BIIIIII", data[4:header_len]
    )
    if version != BACKBONE_VERSION:
        raise FormatError(f"unsupported version {version}")
    try:
        config = ModelConfig(d, n_blocks, n_heads, d_ff, vocab, max_seq)
    except ValidationError as exc:
        raise FormatError(f"invalid header: {exc}") from exc

    offset = header_len
    raw = data

    def take(shape: tuple[int, ...]) -> Array:
        nonlocal offset
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise FormatError("truncated payload")
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
        return arr

    embed = take((vocab, d))
    pos = take((max_seq, d))
    blocks = []
    for _ in range(n_blocks):
        blocks.append(
            _BlockWeights(
                ln1_g=take((d,)), ln1_b=take((d,)),
                wq=take((d, d)), wk=take((d, d)), wv=take((d, d)), wo=take((d, d)),
                ln2_g=take((d,)), ln2_b=take((d,)),
                w1=take((d_ff, d)), w2=take((d, d_ff)),
            )
        )
    ln_f_g = take((d,))
    ln_f_b = take((d,))
    unembed = take((vocab, d))
    if offset != len(raw):
        raise FormatError(f"trailing data: {len(raw) - offset} unexpected bytes")
    return Backbone(config, embed, pos, blocks, ln_f_g, ln_f_b, unembed)


def save_backbone(backbone: Backbone, path: str) -> None:
    """Write the model to ``path`` in the ``LGBK`` format."""
    with open(path, "wb") as fh:
        fh.write(backbone.to_bytes())


def load_backbone(path: str) -> Backbone:
    """Read a model written by :func:`save_backbone`."""
    with open(path, "rb") as fh:
        return backbone_from_bytes(fh.read())
