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
    """A routing decision references adapters no longer present."""


class TrainingDivergedError(LoraRouteError):
    """Toy adapter training produced a non-finite loss."""
