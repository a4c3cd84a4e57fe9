"""Dense float64 kernels used throughout the package.

Inputs are validated once at the boundary (:func:`as_vector`); the kernels
themselves assume clean data.  Everything is
plain numpy — no exotic numerics, just the few conventions that matter
spelled out: softmax subtracts the max before exponentiating, and entropy
treats ``0 * ln 0`` as zero.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .errors import ValidationError

Array = np.ndarray

#: Probability vectors passed to :func:`shannon_entropy` must sum to one
#: within this tolerance.
DISTRIBUTION_ATOL = 1e-9


def as_vector(data: Any) -> Array:
    """Coerce ``data`` to a finite 1-D float64 array of length >= 1."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError(f"expected a 1-D vector of length >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("vector contains non-finite entries")
    return v


def l2_norm(v: Array) -> float:
    """Euclidean norm of ``v``."""
    return float(np.linalg.norm(as_vector(v)))


def softmax(v: Array) -> Array:
    """Numerically stable softmax: exponentials of ``v - max(v)``, normalized."""
    v = as_vector(v)
    e = np.exp(v - np.max(v))
    return e / np.sum(e)


def shannon_entropy(p: Array) -> float:
    """Shannon entropy ``-sum(p * ln p)`` in nats, with ``0 * ln 0 == 0``.

    ``p`` must be a probability vector: non-negative entries summing to one
    within :data:`DISTRIBUTION_ATOL`.
    """
    p = as_vector(p)
    if np.any(p < 0.0):
        raise ValidationError("entropy input has negative components")
    total = float(np.sum(p))
    if abs(total - 1.0) > DISTRIBUTION_ATOL:
        raise ValidationError(f"entropy input sums to {total!r}, not 1")
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))
