"""Exception types shared across the package, and the one size guard."""


class InvalidInputError(ValueError):
    """Raised when an argument fails a precondition (bad permutation, bad RGF, ...)."""


class MalformedInputError(ValueError):
    """Raised when structured input (a path, a trace, a text encoding) cannot be decoded."""


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed the configured size cap."""


def check_size(n: int, cap: int, refusing: str, what: str = "length") -> None:
    """The one size guard: a negative size is refused first, then one over the cap."""
    if n < 0:
        raise InvalidInputError(f"{what} must be nonnegative")
    if n > cap:
        raise ResourceLimitError(f"refusing {refusing} (cap {cap})")


class InsertRejected(Exception):
    """An insertion into the generating tree was refused.

    ``reason`` is one of ``"inactive"``, ``"illegal-op"``, ``"empty-cell"``.
    ``GrowthState.insert`` and ``GrowthState._step`` raise it on an
    inactive cell or an illegal request; ``GrowthState.children`` neither
    raises nor catches it, since it grows only legal children.
    """

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(message or reason)
