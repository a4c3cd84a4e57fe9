"""Low-rank adapters and the pool they are served from.

An adapter stores factor pairs ``(A, B)`` for the Q and V projection of every
block, with a shared scalar ``alpha``; its effective weight update for one
projection is ``alpha * A @ B`` (``A`` is ``d_model x rank``, ``B`` is
``rank x d_model``).  An adapter is exactly its id, ``alpha`` and factors,
which is also all the ``LGAD`` file format holds; which task it serves is
recorded by the harness's tasks file, not here.  Factors are read-only: a
float64 array that is already read-only is kept as it is, a view included,
and anything else is made read-only (copied if not contiguous float64).

The pool holds every adapter's factors once, in chunk records
(:class:`PoolChunk`): ascending id order, at most :data:`STACK_CHUNK`
adapters a chunk, and per (block, site) one ``A`` slab ``(d_model, R)`` and
one ``B`` slab ``(R, d_model)`` with the chunk's factors side by side along
the rank ``R``, next to each adapter's id, alpha and first column.  Edits
never write into memory that a reader can reach: an add whose id sorts last
writes into spare columns past the last chunk's used ones, which no record
covers, and any other edit queues its chunk and every later one (whose
members it shifts) for a rebuild, made once at the next read however many
edits came before it.  A rebuilt chunk goes into new slabs (copy-on-write),
except that an old chunk no live view and no view adapter reaches, whose
columns only move left, is rewritten in place.  The read also trims spare
columns, so after it the pool holds little more than the factors themselves.

A read returns a :class:`PoolView`: one revision's chunks, which every reader
uses in place.  The probe splits its responses chunk by chunk;
:meth:`AdapterPool.operator` sums each chunk's product into one dense
``(d_model, d_model)`` operator per (block, site), kept for the current
revision; the merge gathers its selected adapters' columns
(:func:`merged_operators`).  Both sums go through :func:`dense_operator` over
stacks of at most ``STACK_CHUNK`` adapters, and every reader folds each
adapter's scale into its columns of ``A`` when it uses a stack;
:func:`fused_hooks` applies the operators as ``h @ W.T``.  The adapters a view yields are read-only views
into its slabs, made per chunk on first use.  :func:`delta_apply` is the
one-adapter reference the stacked and dense paths are tested against.

Every successful add or remove bumps an integer ``revision`` and drops the
pool's operators; a view stays valid, and unchanged, whatever happens to the
pool afterwards.
"""
from __future__ import annotations

import bisect
import os
import struct
import threading
import weakref
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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

#: Most adapters in one pool chunk, and in one stack a merge multiplies.
#: Chunks bound every stack by this count instead of the pool size, and
#: stacks this small are also faster to multiply than one pool-wide stack.
STACK_CHUNK = 64


@dataclass(frozen=True)
class LoraFactors:
    """One projection's factor pair: ``a`` is ``(d_model, rank)``, ``b`` is ``(rank, d_model)``."""

    a: Array
    b: Array


def _read_only(x: object) -> Array:
    """``x`` as a read-only float64 array, without a copy when it is one already."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and not x.flags.writeable):
        x = np.ascontiguousarray(x, dtype=np.float64)
        x.flags.writeable = False
    return x


def _frozen(fac: LoraFactors) -> LoraFactors:
    a, b = _read_only(fac.a), _read_only(fac.b)
    return fac if isinstance(fac, LoraFactors) and a is fac.a and b is fac.b else LoraFactors(a, b)


def _check_finite(factors: Mapping[tuple[int, str], LoraFactors]) -> None:
    """Raise for the first (block, site) whose factors hold a non-finite entry.

    Factors that are all views of one array (a parsed payload) are cleared by
    one sum over it, since a float sum is finite only if every term is; the
    per-site search runs only when that fails.
    """
    arrays = [x for fac in factors.values() for x in (fac.a, fac.b)]
    owner = arrays[0].base
    if (
        isinstance(owner, np.ndarray)
        and owner.dtype == np.float64
        and all(x.base is owner for x in arrays)
        and np.isfinite(np.add.reduce(owner, axis=None))
    ):
        return
    for key, fac in factors.items():
        if not (np.isfinite(fac.a).all() and np.isfinite(fac.b).all()):
            raise ValidationError(f"factors at {key} contain non-finite entries")


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
        frozen = {key: _frozen(fac) for key, fac in self.factors.items()}
        d_model, rank = frozen[(0, "Q")].a.shape
        for key, fac in frozen.items():
            if fac.a.shape != (d_model, rank) or fac.b.shape != (rank, d_model):
                raise ShapeMismatchError(
                    f"factors at {key} have shapes {fac.a.shape}/{fac.b.shape}, "
                    f"expected {(d_model, rank)}/{(rank, d_model)}"
                )
        _check_finite(frozen)
        if rank < 1:
            raise ValidationError("rank must be >= 1")
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


def _view(x: Array) -> Array:
    x.flags.writeable = False
    return x


class PoolChunk:
    """Immutable record of at most :data:`STACK_CHUNK` adapters, ascending by id.

    ``a[(block, site)]`` is the ``A`` slab ``(d_model, capacity)`` and
    ``b[(block, site)]`` the ``B`` slab ``(capacity, d_model)``.  Adapter
    ``i`` owns columns of ``A`` and rows of ``B`` ``bounds[i]:bounds[i + 1]``;
    the first ``cols`` are used, and nothing ever writes into them.
    ``starts`` (each adapter's first column, for ``reduceat``) and
    ``col_scales`` (each column's alpha) are derived once per record.
    """

    def __init__(
        self,
        ids: tuple[str, ...],
        alphas: tuple[float, ...],
        bounds: tuple[int, ...],
        a: dict[tuple[int, str], Array],
        b: dict[tuple[int, str], Array],
    ) -> None:
        self.ids, self.alphas, self.bounds, self.a, self.b = ids, alphas, bounds, a, b
        self.cols = bounds[-1]
        self.capacity = next(iter(b.values())).shape[0]
        self.starts = np.array(bounds[:-1])
        self.col_scales = np.repeat(np.array(alphas, dtype=np.float64), np.diff(bounds))
        self._adapters: tuple[LoraAdapter, ...] | None = None

    @classmethod
    def of(cls, adapter: LoraAdapter) -> PoolChunk:
        """One adapter as a chunk over its own factor arrays (no copy)."""
        keys = sorted(adapter.factors)
        return cls(
            (adapter.id,),
            (adapter.alpha,),
            (0, adapter.rank),
            {key: adapter.factors[key].a for key in keys},
            {key: adapter.factors[key].b for key in keys},
        )

    def stack(self, block: int, site: str) -> tuple[Array, Array]:
        """``(A, B)`` at (block, site) with each adapter's alpha folded into its columns of ``A``.

        ``A @ (B @ h) == sum_i alpha_i * A_i @ B_i @ h`` over the chunk.
        """
        key = (block, site)
        return self.a[key][:, : self.cols] * self.col_scales, self.b[key][: self.cols]

    def adapters(self) -> tuple[LoraAdapter, ...]:
        """The chunk's adapters, their factors read-only views into the slabs."""
        if self._adapters is None:
            self._adapters = tuple(
                LoraAdapter(
                    ident,
                    alpha,
                    {key: LoraFactors(_view(a[:, c0:c1]), _view(self.b[key][c0:c1])) for key, a in self.a.items()},
                )
                for ident, alpha, c0, c1 in zip(self.ids, self.alphas, self.bounds, self.bounds[1:])
            )
        return self._adapters


def _assemble(
    runs: Sequence[tuple[PoolChunk, int, int]], capacity: int = 0, into: PoolChunk | None = None
) -> PoolChunk:
    """A chunk holding adapters ``j0:j1`` of each run's chunk, in order.

    It gets new slabs of ``capacity`` columns, or just the used ones if that
    is more; or, with ``into`` (see :func:`_rewritable`), that record's slabs.
    """
    ids: tuple[str, ...] = ()
    alphas: tuple[float, ...] = ()
    bounds = [0]
    for chunk, j0, j1 in runs:
        ids += chunk.ids[j0:j1]
        alphas += chunk.alphas[j0:j1]
        shift = bounds[-1] - chunk.bounds[j0]
        bounds += [shift + c for c in chunk.bounds[j0 + 1 : j1 + 1]]
    capacity = max(capacity, bounds[-1])
    keys = list(runs[0][0].b)
    d_model = runs[0][0].b[keys[0]].shape[1]
    if into is not None:
        a, b = into.a, into.b
    else:
        # One allocation for every slab: cheaper than one per slab, which at
        # chunk size each cost a fresh mapping of their own.
        slabs = np.empty((len(keys), 2, d_model * capacity))
        a = {key: flat_a.reshape(d_model, capacity) for key, (flat_a, _) in zip(keys, slabs)}
        b = {key: flat_b.reshape(capacity, d_model) for key, (_, flat_b) in zip(keys, slabs)}
    for key in keys:
        at = 0
        for chunk, j0, j1 in runs:
            c0, c1 = chunk.bounds[j0], chunk.bounds[j1]
            a[key][:, at : at + c1 - c0] = chunk.a[key][:, c0:c1]
            b[key][at : at + c1 - c0] = chunk.b[key][c0:c1]
            at += c1 - c0
    return PoolChunk(ids, alphas, tuple(bounds), a, b)


def _rewritable(runs: Sequence[tuple[PoolChunk, int, int]], live: set[int], sources: Counter) -> PoolChunk | None:
    """The old record a rebuild from ``runs`` may rewrite in place, if any.

    That is the first run's record when every run reads it or one pending
    adapter, no other rebuild reads it (``sources`` counts each record's
    queued members), no live view holds it (``live``: ids of their records),
    no view adapter was made from it, each of its runs moves left or stays
    (so no write lands on columns still to be read), and the result fills it
    exactly (so the read does not trim it into a copy anyway).
    """
    old = runs[0][0]
    if (
        len(old.ids) < 2
        or id(old) in live
        or old._adapters is not None
        or any(chunk is not old and len(chunk.ids) > 1 for chunk, _, _ in runs)
        or sources[id(old)] != sum(j1 - j0 for chunk, j0, j1 in runs if chunk is old)
    ):
        return None
    at = 0
    for chunk, j0, j1 in runs:
        if chunk is old and chunk.bounds[j0] < at:
            return None
        at += chunk.bounds[j1] - chunk.bounds[j0]
    return old if at == old.capacity else None


def _runs(sources: Sequence[tuple[PoolChunk, int]]) -> list[list]:
    """Consecutive ``(chunk, j)`` sources merged into ``[chunk, j0, j1]`` runs."""
    runs: list[list] = []
    for chunk, j in sources:
        if runs and runs[-1][0] is chunk and runs[-1][2] == j:
            runs[-1][2] += 1
        else:
            runs.append([chunk, j, j + 1])
    return runs


class PoolView(Sequence):
    """One pool revision: its chunks, and its adapters in ascending id order.

    Indexing and iteration yield :class:`LoraAdapter` objects whose factors
    are read-only views into the chunks' slabs.  A view, and every chunk of
    it, stays unchanged while the view is alive: whoever reads a chunk holds
    its view.
    """

    def __init__(self, chunks: tuple[PoolChunk, ...]) -> None:
        self.chunks = chunks
        self.ids = tuple(ident for chunk in chunks for ident in chunk.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> LoraAdapter:
        i = range(len(self.ids))[i]
        return self.chunks[i // STACK_CHUNK].adapters()[i % STACK_CHUNK]

    def __iter__(self) -> Iterator[LoraAdapter]:
        for chunk in self.chunks:
            yield from chunk.adapters()

    def locate(self, adapter_id: str) -> tuple[PoolChunk, int] | None:
        """``(chunk, index in it)`` of ``adapter_id``, or ``None`` if absent."""
        i = bisect.bisect_left(self.ids, adapter_id)
        if self.ids[i : i + 1] != (adapter_id,):
            return None
        return self.chunks[i // STACK_CHUNK], i % STACK_CHUNK


class AdapterPool:
    """Registry of adapters compatible with one :class:`ModelConfig`.

    Mutations are serialized by a lock and bump ``revision``; readers call
    :meth:`snapshot` to get a ``(revision, view)`` pair that stays
    consistent regardless of concurrent edits.  Views list adapters in
    ascending id order, and :meth:`get` returns the same read-only view
    adapters, equal to the ones added but not the same objects.

    The pool also keeps the dense operators :meth:`operator` built at the
    current revision, at most one ``(d_model, d_model)`` matrix per (block,
    site); every edit drops them.
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self._ids: list[str] = []
        #: Built chunks, holding the first ``STACK_CHUNK * len(_chunks)`` ids;
        #: ``_pending`` holds the rest as ``(chunk, j)`` sources until a read.
        self._chunks: list[PoolChunk] = []
        self._pending: list[tuple[PoolChunk, int]] = []
        self._view: PoolView | None = PoolView(())
        #: Every view handed out and still alive: what a rebuild must not touch.
        self._views: weakref.WeakSet[PoolView] = weakref.WeakSet()
        self._revision = 0
        self._operators: dict[tuple[int, str], Array] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    def __contains__(self, adapter_id: str) -> bool:
        with self._lock:
            return self._find(adapter_id) is not None

    @property
    def revision(self) -> int:
        with self._lock:
            return self._revision

    def _find(self, adapter_id: str) -> int | None:
        at = bisect.bisect_left(self._ids, adapter_id)
        return at if self._ids[at : at + 1] == [adapter_id] else None

    def add(self, adapter: LoraAdapter) -> int:
        """Add an adapter; returns the new revision."""
        if adapter.d_model != self.config.d_model or adapter.n_blocks != self.config.n_blocks:
            raise ShapeMismatchError(
                f"adapter {adapter.id!r} built for d_model={adapter.d_model}, "
                f"n_blocks={adapter.n_blocks}; pool expects d_model={self.config.d_model}, "
                f"n_blocks={self.config.n_blocks}"
            )
        with self._lock:
            at = bisect.bisect_left(self._ids, adapter.id)
            if self._ids[at : at + 1] == [adapter.id]:
                raise DuplicateAdapterError(f"adapter id {adapter.id!r} already in pool")
            if at == len(self._ids) and not self._pending:
                self._append(adapter)
            else:
                self._unbuild(at // STACK_CHUNK)
                self._pending.insert(at - STACK_CHUNK * len(self._chunks), (PoolChunk.of(adapter), 0))
            self._ids.insert(at, adapter.id)
            return self._edited()

    def remove(self, adapter_id: str) -> int:
        """Remove an adapter by id; returns the new revision."""
        with self._lock:
            at = self._find(adapter_id)
            if at is None:
                raise UnknownAdapterError(f"adapter id {adapter_id!r} not in pool")
            self._unbuild(at // STACK_CHUNK)
            del self._pending[at - STACK_CHUNK * len(self._chunks)]
            del self._ids[at]
            return self._edited()

    def _edited(self) -> int:
        self._revision += 1
        self._operators.clear()
        self._view = None
        return self._revision

    def _unbuild(self, first: int) -> None:
        """Queue chunks ``first`` onward for a rebuild: an edit there shifts their members."""
        if first < len(self._chunks):
            self._pending[:0] = [(chunk, j) for chunk in self._chunks[first:] for j in range(len(chunk.ids))]
            del self._chunks[first:]

    def _append(self, adapter: LoraAdapter) -> None:
        """Put an adapter whose id sorts last into the last chunk's spare columns.

        No record covers them, so they are written in place.  A new chunk
        gets room for a full chunk at this adapter's rank; without room, the
        chunk moves to slabs of twice the capacity.
        """
        one = PoolChunk.of(adapter)
        last = self._chunks[-1] if self._chunks else None
        if last is None or len(last.ids) == STACK_CHUNK:
            self._chunks.append(_assemble([(one, 0, 1)], STACK_CHUNK * adapter.rank))
            return
        cols, rank = last.cols, adapter.rank
        if last.capacity < cols + rank:
            self._chunks[-1] = _assemble([(last, 0, len(last.ids)), (one, 0, 1)], 2 * last.capacity)
            return
        for key, fac in one.a.items():
            last.a[key][:, cols : cols + rank] = fac
            last.b[key][cols : cols + rank] = one.b[key]
        self._chunks[-1] = PoolChunk(
            last.ids + one.ids, last.alphas + one.alphas, last.bounds + (cols + rank,), last.a, last.b
        )

    def _settle(self) -> PoolView:
        """The current revision's view: queued chunks rebuilt and spare columns trimmed first."""
        if self._view is None:
            pending, self._pending = self._pending, []
            live = {id(chunk) for view in self._views for chunk in view.chunks}
            sources = Counter(id(chunk) for chunk, _ in pending)
            for lo in range(0, len(pending), STACK_CHUNK):
                runs = _runs(pending[lo : lo + STACK_CHUNK])
                (old, j0, j1), *rest = runs
                if not rest and (j0, j1) == (0, len(old.ids)):
                    self._chunks.append(old)  # unchanged members: reuse the record
                else:
                    self._chunks.append(_assemble(runs, into=_rewritable(runs, live, sources)))
            self._chunks = [
                chunk if chunk.capacity == chunk.cols else _assemble([(chunk, 0, len(chunk.ids))])
                for chunk in self._chunks
            ]
            self._view = PoolView(tuple(self._chunks))
            self._views.add(self._view)
        return self._view

    def get(self, adapter_id: str) -> LoraAdapter:
        with self._lock:
            view = self._settle()
        found = view.locate(adapter_id)
        if found is None:
            raise UnknownAdapterError(f"adapter id {adapter_id!r} not in pool")
        chunk, j = found
        return chunk.adapters()[j]

    def snapshot(self) -> tuple[int, PoolView]:
        """Atomic ``(revision, view)``; the view lists the adapters sorted by id."""
        with self._lock:
            return self._revision, self._settle()

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._ids)

    def operator(self, snapshot: tuple[int, PoolView], block: int, site: str) -> Array:
        """The read-only pool operator ``sum_i alpha_i * A_i @ B_i`` at (block, site).

        ``snapshot`` is a ``(revision, view)`` pair from :meth:`snapshot`,
        and the operator is that view's, one product per chunk.  It is built
        on first use and kept while the pool stays at that revision; a build
        for a revision the pool has since left is returned to the caller but
        not kept.
        """
        revision, view = snapshot
        key = (block, site)
        with self._lock:
            if revision == self._revision and key in self._operators:
                return self._operators[key]
        w = dense_operator(chunk.stack(block, site) for chunk in view.chunks)
        w.flags.writeable = False
        with self._lock:
            if revision == self._revision:
                self._operators[key] = w
        return w


def dense_operator(stacks: Iterable[tuple[Array, Array]]) -> Array:
    """``sum A @ B`` over ``(A, B)`` stacks, ``(d_model, d_model)``.

    The first product is assigned, so with one stack the result is that
    stack's product exactly.  ``stacks`` must not be empty.
    """
    w = None
    for a, b in stacks:
        if w is None:
            w = a @ b
        else:
            w += a @ b
    return w


def merged_operators(
    picks: Sequence[tuple[PoolChunk, int]], scales: Sequence[float]
) -> dict[tuple[int, str], Array]:
    """``sum_i scales[i] * A_i @ B_i`` at every (block, site) for the picked adapters.

    ``picks`` are ``(chunk, j)`` places from :meth:`PoolView.locate`.  Their
    columns are gathered from the slabs in the given order, at most
    :data:`STACK_CHUNK` adapters a stack, with each scale folded into its
    adapter's columns of ``A``.  No picks: no operators.
    """
    groups = []
    for lo in range(0, len(picks), STACK_CHUNK):
        spans = [(chunk, chunk.bounds[j], chunk.bounds[j + 1]) for chunk, j in picks[lo : lo + STACK_CHUNK]]
        col_scales = np.repeat(
            np.asarray(scales[lo : lo + STACK_CHUNK], dtype=np.float64), [c1 - c0 for _, c0, c1 in spans]
        )
        groups.append((spans, col_scales))
    keys = picks[0][0].a if picks else ()
    return {
        key: dense_operator(
            (
                np.concatenate([chunk.a[key][:, c0:c1] for chunk, c0, c1 in spans], axis=1) * col_scales,
                np.concatenate([chunk.b[key][c0:c1] for chunk, c0, c1 in spans], axis=0),
            )
            for spans, col_scales in groups
        )
        for key in keys
    }


def fused_hooks(deltas: Mapping[tuple[int, str], Array]) -> list[ProjectionHook]:
    """Hooks applying a dense fused update: ``delta = h @ W.T`` per site."""
    hooks = []
    for (block, site), w in sorted(deltas.items()):
        def fn(block_: int, site_: str, h: Array, base: Array, _w: Array = w) -> Array:
            return h @ _w.T

        hooks.append(ProjectionHook(block, site, fn))
    return hooks


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

    # One read-only payload array; every factor is a view of it, so the
    # adapter checks its finiteness in one pass.
    end = offset + 8 * 2 * len(HOOK_SITES) * n_blocks * d_model * rank
    if end > len(data):
        raise FormatError("truncated payload")
    if end != len(data):
        raise FormatError(f"trailing data: {len(data) - end} unexpected bytes")
    payload = np.frombuffer(data, dtype="<f8", count=(end - offset) // 8, offset=offset).astype(np.float64)
    payload.flags.writeable = False
    as_a = payload.reshape(n_blocks, len(HOOK_SITES), 2, d_model, rank)
    as_b = payload.reshape(n_blocks, len(HOOK_SITES), 2, rank, d_model)
    factors = {
        (j, site): LoraFactors(as_a[j, s, 0], as_b[j, s, 1])
        for j in range(n_blocks)
        for s, site in enumerate(HOOK_SITES)
    }
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

    Relative paths are resolved against the manifest's own directory.  A
    manifest that is not UTF-8 text is a :class:`FormatError`.
    """
    base = os.path.dirname(os.path.abspath(path))
    pool = AdapterPool(config)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest {path} is not valid UTF-8: {exc}") from None
    for line in lines:
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
