"""Exception types shared across the package, the one size guard and the one walk."""

from typing import Any, Callable, Iterable, Iterator


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


def walk(root: Any, children: Callable[[Any], Iterable], depth: int) -> Iterator:
    """The nodes depth levels below root, depth first, in the order
    ``children(node)`` lists them.

    The stack holds one iterator per level, so a deep walk never meets the
    recursion limit, and only the current path and its waiting siblings
    are alive: no whole level is held, or scanned by the garbage collector.
    """
    stack = [iter((root,))]
    while stack:
        for node in stack[-1]:
            if len(stack) > depth:
                yield node
            else:
                stack.append(iter(children(node)))
                break
        else:
            stack.pop()


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
