"""Dense float64 kernels used throughout the package.

Inputs are validated once at the boundary: each kernel but
:func:`softmax_last` takes one vector ``(d,)`` or a block of rows
``(N, d)``, made C-contiguous and checked finite and non-empty.  The kernels
reduce along the last axis, so a block is one pass and a row gives bitwise
the same result alone as inside a block.  They call the ufunc reductions
(``np.add.reduce``, ``np.maximum.reduce``) directly: bitwise ``np.sum`` and
``np.max``, without their Python-level wrappers.  :func:`softmax_last` is
the unvalidated softmax behind :func:`softmax`, shared with the backbone's
attention and the trainer.  Everything is plain numpy — no exotic
numerics, just the few conventions that matter spelled out: softmax
subtracts the max before exponentiating, and entropy treats ``0 * ln 0`` as
zero.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .errors import ValidationError

Array = np.ndarray

#: Probability vectors passed to :func:`shannon_entropy` must sum to one
#: within this tolerance.
DISTRIBUTION_ATOL = 1e-9


def _as_rows(data: Any) -> Array:
    """Coerce ``data`` to a finite C-contiguous float64 vector ``(d,)`` or rows ``(N, d)``."""
    v = np.ascontiguousarray(data, dtype=np.float64)
    if v.ndim not in (1, 2) or v.size < 1:
        raise ValidationError(f"expected a vector or rows of length >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector contains non-finite entries")
    return v


def l2_norm(v: Array) -> Array:
    """Euclidean norm of ``v``, or of each of its rows."""
    v = _as_rows(v)
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def softmax_last(x: Array) -> Array:
    """Softmax along the last axis of any array, unvalidated: a ``-inf``
    entry (a masked attention position) is allowed."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax(v: Array) -> Array:
    """Numerically stable softmax of ``v`` or of each row: ``exp(v - max(v))``, normalized."""
    return softmax_last(_as_rows(v))


def shannon_entropy(p: Array) -> Array:
    """Shannon entropy ``-sum(p * ln p)`` in nats of ``p`` or of each row, ``0 * ln 0 == 0``.

    Each row must be a probability vector: non-negative entries summing to
    one within :data:`DISTRIBUTION_ATOL`.
    """
    p = _as_rows(p)
    if np.any(p < 0.0):
        raise ValidationError("entropy input has negative components")
    totals = np.add.reduce(p, axis=-1)
    bad = np.abs(totals - 1.0) > DISTRIBUTION_ATOL
    if np.any(bad):
        total = float(np.ravel(totals)[np.argmax(bad)])
        raise ValidationError(f"entropy input sums to {total!r}, not 1")
    return -np.add.reduce(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)
