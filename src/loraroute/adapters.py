"""Low-rank adapters and the pool they are served from.

An adapter stores factor pairs ``(A, B)`` for the Q and V projection of every
block, with a shared scalar ``alpha``; its effective weight update for one
projection is ``alpha * A @ B`` (``A`` is ``d_model x rank``, ``B`` is
``rank x d_model``).  An adapter is exactly its id, ``alpha`` and factors,
which is also all the ``LGAD`` file format holds; which task it serves is
recorded by the harness's tasks file, not here.

Inference attaches several adapters at once through one representation:
:func:`stack_factors` concatenates their factors at one (block, site) along
the rank, with each adapter's scale folded into its columns of ``A``, so the
summed delta is one right-to-left product ``A @ (B @ h)`` whose cost stays
linear in the total rank.  The probe applies it so, through
:func:`adapter_hooks`, stacking at call time; the merge stacks once per
request and multiplies the factors out.  :func:`delta_apply`
is the one-adapter reference that tests compare the stacked path against.

The pool is a mutable registry keyed by adapter id.  Every successful add or
remove bumps an integer ``revision``; readers take an atomic snapshot so a
probe sees one consistent pool state even while another thread edits it.
"""
from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .backbone import HOOK_SITES, ModelConfig, ProjectionHook
from .errors import (
    DuplicateAdapterError,
    FormatError,
    ShapeMismatchError,
    UnknownAdapterError,
    ValidationError,
)

Array = np.ndarray

ADAPTER_MAGIC = b"LGAD"
ADAPTER_VERSION = 1
#: Factor-order flag written to adapter files: 0 means the input is hit by
#: ``B`` first and leaves through ``A`` (delta = alpha * A @ B @ h).
FACTOR_ORDER_AB = 0


@dataclass(frozen=True)
class LoraFactors:
    """One projection's factor pair: ``a`` is ``(d_model, rank)``, ``b`` is ``(rank, d_model)``."""

    a: Array
    b: Array


@dataclass(frozen=True)
class LoraAdapter:
    """Immutable low-rank adapter covering every (block, site) of a model.

    ``factors`` maps ``(block_index, site)`` — site one of ``"Q"``/``"V"`` —
    to a :class:`LoraFactors` pair.
    """

    id: str
    alpha: float
    factors: Mapping[tuple[int, str], LoraFactors]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id or any(c.isspace() for c in self.id):
            raise ValidationError(f"adapter id must be a non-empty string without whitespace, got {self.id!r}")
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValidationError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not self.factors:
            raise ValidationError("adapter has no factors")
        blocks = sorted({key[0] for key in self.factors})
        expected = {(j, site) for j in range(len(blocks)) for site in HOOK_SITES}
        if blocks != list(range(len(blocks))) or set(self.factors) != expected:
            raise ValidationError(
                "adapter factors must cover (block, site) for every block 0..n_blocks-1 "
                f"and sites {HOOK_SITES}, got keys {sorted(self.factors)}"
            )
        ref = self.factors[(0, "Q")]
        d_model, rank = ref.a.shape
        for key, fac in self.factors.items():
            a = np.asarray(fac.a, dtype=np.float64)
            b = np.asarray(fac.b, dtype=np.float64)
            if a.shape != (d_model, rank) or b.shape != (rank, d_model):
                raise ShapeMismatchError(
                    f"factors at {key} have shapes {a.shape}/{b.shape}, "
                    f"expected {(d_model, rank)}/{(rank, d_model)}"
                )
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise ValidationError(f"factors at {key} contain non-finite entries")
        if rank < 1:
            raise ValidationError("rank must be >= 1")
        frozen: dict[tuple[int, str], LoraFactors] = {}
        for key, fac in self.factors.items():
            a = np.ascontiguousarray(fac.a, dtype=np.float64)
            b = np.ascontiguousarray(fac.b, dtype=np.float64)
            a.flags.writeable = False
            b.flags.writeable = False
            frozen[key] = LoraFactors(a, b)
        object.__setattr__(self, "factors", frozen)

    @property
    def d_model(self) -> int:
        return self.factors[(0, "Q")].a.shape[0]

    @property
    def rank(self) -> int:
        return self.factors[(0, "Q")].a.shape[1]

    @property
    def n_blocks(self) -> int:
        return 1 + max(key[0] for key in self.factors)


def delta_apply(
    adapter: LoraAdapter,
    block: int,
    site: str,
    h: Array,
    alpha_override: float | None = None,
) -> Array:
    """Adapter delta ``alpha * A @ (B @ h)`` for one projection.

    ``h`` may be a single vector ``(d_model,)`` or token rows
    ``(T, d_model)``; the delta matches its shape.  ``alpha_override``
    substitutes the adapter's own scale (used for weighted merging).
    """
    key = (block, site)
    if key not in adapter.factors:
        raise ValidationError(f"adapter {adapter.id!r} has no factors at {key}")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (1, 2) or h.shape[-1] != adapter.d_model:
        raise ShapeMismatchError(
            f"hidden input of shape {h.shape} incompatible with d_model {adapter.d_model}"
        )
    fac = adapter.factors[key]
    alpha = adapter.alpha if alpha_override is None else float(alpha_override)
    return alpha * ((h @ fac.b.T) @ fac.a.T)


class AdapterPool:
    """Registry of adapters compatible with one :class:`ModelConfig`.

    Mutations are serialized by a lock and bump ``revision``; readers call
    :meth:`snapshot` to get a ``(revision, adapters)`` pair that stays
    consistent regardless of concurrent edits.  Snapshots list adapters in
    ascending id order.
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self._entries: dict[str, LoraAdapter] = {}
        self._revision = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, adapter_id: str) -> bool:
        with self._lock:
            return adapter_id in self._entries

    @property
    def revision(self) -> int:
        with self._lock:
            return self._revision

    def add(self, adapter: LoraAdapter) -> int:
        """Add an adapter; returns the new revision."""
        if adapter.d_model != self.config.d_model or adapter.n_blocks != self.config.n_blocks:
            raise ShapeMismatchError(
                f"adapter {adapter.id!r} built for d_model={adapter.d_model}, "
                f"n_blocks={adapter.n_blocks}; pool expects d_model={self.config.d_model}, "
                f"n_blocks={self.config.n_blocks}"
            )
        with self._lock:
            if adapter.id in self._entries:
                raise DuplicateAdapterError(f"adapter id {adapter.id!r} already in pool")
            self._entries[adapter.id] = adapter
            self._revision += 1
            return self._revision

    def remove(self, adapter_id: str) -> int:
        """Remove an adapter by id; returns the new revision."""
        with self._lock:
            if adapter_id not in self._entries:
                raise UnknownAdapterError(f"adapter id {adapter_id!r} not in pool")
            del self._entries[adapter_id]
            self._revision += 1
            return self._revision

    def get(self, adapter_id: str) -> LoraAdapter:
        with self._lock:
            if adapter_id not in self._entries:
                raise UnknownAdapterError(f"adapter id {adapter_id!r} not in pool")
            return self._entries[adapter_id]

    def snapshot(self) -> tuple[int, tuple[LoraAdapter, ...]]:
        """Atomic view: ``(revision, adapters sorted by id)``."""
        with self._lock:
            adapters = tuple(self._entries[k] for k in sorted(self._entries))
            return self._revision, adapters

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)


def stack_factors(
    adapters: Sequence[LoraAdapter],
    scales: Sequence[float],
    block: int,
    site: str,
) -> tuple[Array, Array]:
    """Factors of ``adapters`` at one (block, site), concatenated along the rank.

    Returns ``A`` of shape ``(d_model, R)`` with adapter ``i``'s columns
    multiplied by ``scales[i]``, and ``B`` of shape ``(R, d_model)``, where
    ``R`` is the sum of the adapters' ranks (which may differ).  Adapter
    ``i`` owns the ``i``-th run of ``rank_i`` columns of ``A`` and rows of
    ``B``, so ``A @ (B @ h) == sum_i scales[i] * A_i @ B_i @ h``.
    """
    facs = [adapter.factors[(block, site)] for adapter in adapters]
    col_scales = np.repeat(np.asarray(scales, dtype=np.float64), [f.a.shape[1] for f in facs])
    a = np.concatenate([f.a for f in facs], axis=1) * col_scales
    b = np.concatenate([f.b for f in facs], axis=0)
    return a, b


def adapter_hooks(adapters: Sequence[LoraAdapter]) -> list[ProjectionHook]:
    """Hooks attaching ``adapters``, each at its own ``alpha``, to every (block, site).

    Each hook stacks its own site's factors when called, so a pool-wide
    stack exists for one site at a time, never for every site at once.  It
    serves the probe, which attaches the whole pool, and single-adapter
    callers; the merges stack once per request in :mod:`loraroute.routing`.
    """
    adapters = tuple(adapters)
    if not adapters:
        return []
    n_blocks = adapters[0].n_blocks
    if any(a.n_blocks != n_blocks for a in adapters):
        raise ShapeMismatchError("adapters span different block counts")
    scales = [a.alpha for a in adapters]

    def fn(block: int, site: str, h: Array, base: Array) -> Array:
        a, b = stack_factors(adapters, scales, block, site)
        return (h @ b.T) @ a.T

    return [ProjectionHook(j, site, fn) for j in range(n_blocks) for site in HOOK_SITES]


# -- serialization ---------------------------------------------------------------


def adapter_to_bytes(adapter: LoraAdapter) -> bytes:
    """Serialize to the ``LGAD`` binary format (bitwise round-trip)."""
    ident = adapter.id.encode("utf-8")
    if len(ident) > 0xFFFF:
        raise ValidationError("adapter id too long to serialize")
    head = ADAPTER_MAGIC + struct.pack("<BH", ADAPTER_VERSION, len(ident)) + ident
    head += struct.pack(
        "<IIIBd",
        adapter.d_model,
        adapter.n_blocks,
        adapter.rank,
        FACTOR_ORDER_AB,
        adapter.alpha,
    )
    parts = [head]
    for j in range(adapter.n_blocks):
        for site in HOOK_SITES:
            fac = adapter.factors[(j, site)]
            parts.append(np.ascontiguousarray(fac.a, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(fac.b, dtype="<f8").tobytes())
    return b"".join(parts)


def adapter_from_bytes(data: bytes) -> LoraAdapter:
    """Parse the ``LGAD`` binary format; raises :class:`FormatError` on damage."""
    if len(data) < 4 or data[:4] != ADAPTER_MAGIC:
        raise FormatError(f"bad magic: expected {ADAPTER_MAGIC!r}")
    offset = 4
    fixed = struct.calcsize("<BH")
    if len(data) < offset + fixed:
        raise FormatError("truncated header")
    version, id_len = struct.unpack_from("<BH", data, offset)
    offset += fixed
    if version != ADAPTER_VERSION:
        raise FormatError(f"unsupported version {version}")
    if len(data) < offset + id_len:
        raise FormatError("truncated adapter id")
    try:
        ident = data[offset : offset + id_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"adapter id is not valid UTF-8: {exc}") from None
    offset += id_len
    fixed = struct.calcsize("<IIIBd")
    if len(data) < offset + fixed:
        raise FormatError("truncated header")
    d_model, n_blocks, rank, factor_order, alpha = struct.unpack_from("<IIIBd", data, offset)
    offset += fixed
    if factor_order != FACTOR_ORDER_AB:
        raise FormatError(f"unsupported factor order {factor_order}")
    if min(d_model, n_blocks, rank) < 1:
        raise FormatError(
            f"degenerate header: d_model={d_model}, n_blocks={n_blocks}, rank={rank}"
        )

    factors: dict[tuple[int, str], LoraFactors] = {}

    def take(shape: tuple[int, int]) -> Array:
        nonlocal offset
        nbytes = shape[0] * shape[1] * 8
        if offset + nbytes > len(data):
            raise FormatError("truncated payload")
        arr = np.frombuffer(data[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
        return arr

    for j in range(n_blocks):
        for site in HOOK_SITES:
            a = take((d_model, rank))
            b = take((rank, d_model))
            factors[(j, site)] = LoraFactors(a, b)
    if offset != len(data):
        raise FormatError(f"trailing data: {len(data) - offset} unexpected bytes")
    try:
        return LoraAdapter(id=ident, alpha=alpha, factors=factors)
    except ValidationError as exc:
        raise FormatError(f"invalid adapter: {exc}") from exc


def save_adapter(adapter: LoraAdapter, path: str) -> None:
    """Write the adapter to ``path`` in the ``LGAD`` format."""
    with open(path, "wb") as fh:
        fh.write(adapter_to_bytes(adapter))


def load_adapter(path: str) -> LoraAdapter:
    """Read an adapter written by :func:`save_adapter`."""
    with open(path, "rb") as fh:
        return adapter_from_bytes(fh.read())


def load_manifest(path: str, config: ModelConfig) -> AdapterPool:
    """Build a pool from a manifest: one adapter path per line, ``#`` comments.

    Relative paths are resolved against the manifest's own directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    pool = AdapterPool(config)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            entry = line.strip()
            if not entry or entry.startswith("#"):
                continue
            target = entry if os.path.isabs(entry) else os.path.join(base, entry)
            pool.add(load_adapter(target))
    return pool


def write_manifest(path: str, adapter_paths: Iterable[str], header: str = "") -> None:
    """Write a manifest file accepted by :func:`load_manifest`."""
    lines = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    lines.extend(adapter_paths)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
