"""Exception types shared across the package."""
from __future__ import annotations


class LoraRouteError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LoraRouteError, ValueError):
    """Input violated a documented precondition."""


class ShapeMismatchError(ValidationError):
    """Operands have incompatible shapes; the message names both."""


class TokenRangeError(ValidationError):
    """A token id falls outside ``[0, vocab_size)``."""


class ContextOverflowError(ValidationError):
    """Prompt length plus requested tokens exceeds the model context."""


class FormatError(LoraRouteError):
    """A serialized artifact is malformed: bad magic, version, header, id or payload."""


class DuplicateAdapterError(LoraRouteError):
    """An adapter with the same id is already present in the pool."""


class UnknownAdapterError(LoraRouteError):
    """An adapter id was not found in the pool."""


class EmptyPoolError(LoraRouteError):
    """The operation requires at least one adapter in the pool."""


class StaleDecisionError(LoraRouteError):
    """A routing decision no longer matches the pool it is merged against.

    Raised when the pool is at another revision than the one the decision
    was probed at (even if every selected id is still present, since an edit
    may have replaced an adapter under the same id), and when the decision
    references adapters not in the pool.
    """


class TrainingDivergedError(LoraRouteError):
    """Toy adapter training produced a non-finite loss."""
