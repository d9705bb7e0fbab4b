"""Exception types shared across the library."""


class ImmaculateError(Exception):
    """Base class for all library errors."""


class PreconditionError(ImmaculateError, ValueError):
    """An argument violates a documented precondition."""


class InvalidVectorError(PreconditionError):
    """An integer vector has entries outside the allowed range."""


class ResourceLimitError(ImmaculateError):
    """A computation would visit more items than ENUMERATION_LIMIT allows."""
