"""Dyck paths, Motzkin paths, and labeled Motzkin paths.

A Dyck path is a word over {U, D} whose prefixes never dip below height
zero and which returns to zero; it is stored as a plain string like
"UUDD".  Motzkin paths add a horizontal step H.  Labeled Motzkin paths
carry a label on every horizontal step: H0, H1 anywhere, H2 only at
height one or more.  A labeled path is stored as a tuple of step tokens
("U", "D", "H0", "H1", "H2").

Each family is one table of (step, needs height >= 1) pairs, listed in
the order its paths are enumerated: U rises, D falls and every other
step is level.  The enumerators walk the table, and the validators look
each step of a path up in a dict read off it once.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

from .errors import InvalidInputError, MalformedInputError, check_size, walk

DEFAULT_PATH_CAP = 12
DEFAULT_LABELED_CAP = 10

DYCK = (("D", True), ("U", False))
MOTZKIN = (("D", True), ("H", False), ("U", False))
LABELED = (("U", False), ("D", True), ("H0", False), ("H1", False), ("H2", True))

LABELED_STEPS = tuple(t for t, _ in LABELED)
# each family's steps to their move in height and, if they need height >= 1, their token
_DYCK_MOVES, _LABELED_MOVES = (
    {t: ((t == "U") - (t == "D"), t if lifted else "") for t, lifted in family}
    for family in (DYCK, LABELED)
)
# every step of either table, longest first so the compact form reads H0 before H
_TOKENS = dict.fromkeys(sorted({t for t, _ in MOTZKIN + LABELED}, key=lambda t: (-len(t), t)))
_COMPACT = re.compile("|".join(_TOKENS) + "|.")  # "." takes an unknown character


def _fault(steps: Sequence[str], moves: dict[str, tuple[int, str]]) -> str | None:
    """The first way the steps break the family's moves, or None.

    The fault is worded as validate_labeled_motzkin reports it.  Steps
    are looked up by hash, so an unhashable token is merely unknown.
    """
    h = 0
    for i, step in enumerate(steps, start=1):
        try:
            move, needs = moves[step]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            return f"unknown labeled step {step!r} at position {i}"
        if needs and not h:
            if move:
                return f"path dips below the axis at position {i}"
            return f"{needs} at height zero at position {i}; {needs} needs height >= 1"
        h += move
    return None if h == 0 else f"path ends at height {h}, not 0"


def is_dyck(path: str) -> bool:
    return isinstance(path, str) and _fault(path, _DYCK_MOVES) is None


def validate_dyck(path: str) -> str:
    if not is_dyck(path):
        raise InvalidInputError(f"not a Dyck path: {path!r}")
    return path


def parse_steps(text: str) -> tuple[str, ...]:
    """Tokenize "UUDD", "UHD", "H0 H1 U U D" or compact "H0H1UUD" forms."""
    words = text.split()
    spaced = len(words) > 1  # whitespace inside the text, not only around it
    toks = tuple(words if spaced else _COMPACT.findall(text.strip()))
    for t in toks:
        if t not in _TOKENS:
            what = "step" if spaced else "step character"
            raise MalformedInputError(f"unknown {what} {t!r} in {text!r}")
    return toks


def format_steps(steps: Sequence[str]) -> str:
    if any(len(t) > 1 for t in steps):
        return " ".join(steps)
    return "".join(steps)


def validate_labeled_motzkin(steps: Sequence[str]) -> tuple[str, ...]:
    """Check step tokens, nonnegative heights, zero end, and H2 only above ground."""
    t = tuple(steps)
    fault = _fault(t, _LABELED_MOVES)
    if fault is not None:
        raise InvalidInputError(fault)
    return t


def _walk(length: int, family: Sequence[tuple[str, bool]]) -> Iterator[tuple[str, ...]]:
    """Paths of the given length over the family's table, in its order."""

    def children(node: tuple[tuple[str, ...], int]) -> Iterator[tuple[tuple[str, ...], int]]:
        steps, h = node
        rest = length - len(steps) - 1  # steps left after the next one
        for t, lifted in family:
            g = h + (t == "U") - (t == "D")
            if (h or not lifted) and g <= rest:  # g can still return to zero
                yield steps + (t,), g

    for steps, _ in walk(((), 0), children, length):
        yield steps


def enumerate_dyck(semilength: int, cap: int = DEFAULT_PATH_CAP) -> Iterator[str]:
    """All Dyck paths of the given semilength, lexicographic in D < U."""
    check_size(semilength, cap, f"Dyck enumeration at semilength {semilength}", "semilength")
    for steps in _walk(2 * semilength, DYCK):
        yield "".join(steps)


def enumerate_motzkin(length: int, cap: int = DEFAULT_PATH_CAP) -> Iterator[tuple[str, ...]]:
    check_size(length, cap, f"Motzkin enumeration at length {length}")
    yield from _walk(length, MOTZKIN)


def enumerate_labeled_motzkin(
    length: int, cap: int = DEFAULT_LABELED_CAP
) -> Iterator[tuple[str, ...]]:
    check_size(length, cap, f"labeled Motzkin enumeration at length {length}")
    yield from _walk(length, LABELED)


def double_rises(path: str) -> int:
    """Number of adjacent UU pairs."""
    validate_dyck(path)
    return sum(1 for a, b in zip(path, path[1:]) if a == b == "U")


def final_descent_length(path: str) -> int:
    """Length of the maximal run of D steps at the end of the path."""
    return len(path) - len(path.rstrip("D"))


def dyck_children(path: str) -> list[str]:
    """Peak insertions: UD before each D of the final descent, then after it.

    A path whose final descent has length r yields r + 1 children; every
    nonempty Dyck path arises this way from exactly one parent.
    """
    validate_dyck(path)
    i = len(path) - final_descent_length(path)
    return [path[:j] + "UD" + path[j:] for j in range(i, len(path) + 1)]


def dyck_parent(path: str) -> str:
    """Remove the peak whose U sits just before the first D of the final descent."""
    validate_dyck(path)
    if not path:
        raise InvalidInputError("the empty path has no parent")
    idx = len(path) - final_descent_length(path)  # path[idx-1] is its U
    return path[: idx - 1] + path[idx + 1 :]
