"""Exception types shared across the package, the one size guard and the walks."""

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


def grow(root: Any, letters: Callable, step: Callable, n: int, leaves: Any = None) -> Iterator:
    """The words of length n of a generating tree, by ``walk``.  A node is a word
    and its state; its children append each c of ``letters(state)``, with state
    ``step(state, c)``.  The last level builds no state: its words, or the
    items ``leaves(state)`` lists, are read off the parents."""
    if not n:
        return iter(((),))

    def children(node: tuple) -> Iterator[tuple]:
        word, s = node
        return ((word + (c,), step(s, c)) for c in letters(s))

    nodes = walk(((), root), children, n - 1)
    if leaves is None:
        return (word + (c,) for word, s in nodes for c in letters(s))
    return (item for _, s in nodes for item in leaves(s))


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
