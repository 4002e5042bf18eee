"""Exception types shared across the package."""

__all__ = [
    "DatasetError",
    "PentafuzzError",
    "UndefinedValueError",
    "UniverseMismatchError",
    "ValidationError",
]


class PentafuzzError(Exception):
    """Base class for all package errors."""


class ValidationError(PentafuzzError, ValueError):
    """Input violates a domain contract (range, partition, class mismatch)."""


class UniverseMismatchError(PentafuzzError):
    """Binary set operation applied to sets with different universes."""

    def __init__(self, only_left, only_right):
        self.only_left = tuple(only_left)
        self.only_right = tuple(only_right)
        super().__init__(
            "universe mismatch: only in left operand "
            f"{list(self.only_left)}, only in right operand {list(self.only_right)}"
        )


class DatasetError(PentafuzzError):
    """Malformed dataset input (parse failure, duplicate id, bad degree)."""


class UndefinedValueError(PentafuzzError):
    """A measure is undefined at the requested point."""
