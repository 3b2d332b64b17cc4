"""Dyck paths, Motzkin paths, and labeled Motzkin paths.

A Dyck path is a word over {U, D} whose prefixes never dip below height
zero and which returns to zero; it is stored as a plain string like
"UUDD".  Motzkin paths add a horizontal step H.  Labeled Motzkin paths
carry a label on every horizontal step: H0, H1 anywhere, H2 only at
height one or more.  A labeled path is stored as a tuple of step tokens
("U", "D", "H0", "H1", "H2").
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import InvalidInputError, MalformedInputError, check_size

DEFAULT_PATH_CAP = 12
DEFAULT_LABELED_CAP = 10

LABELED_STEPS = ("U", "D", "H0", "H1", "H2")


def is_dyck(path: str) -> bool:
    h = 0
    for c in path:
        if c == "U":
            h += 1
        elif c == "D":
            h -= 1
        else:
            return False
        if h < 0:
            return False
    return h == 0


def validate_dyck(path: str) -> str:
    if not is_dyck(path):
        raise InvalidInputError(f"not a Dyck path: {path!r}")
    return path


def parse_steps(text: str) -> tuple[str, ...]:
    """Tokenize "UUDD", "UHD", "H0 H1 U U D" or compact "H0H1UUD" forms."""
    s = text.strip()
    if any(c.isspace() for c in s):
        toks = tuple(s.split())
        for t in toks:
            if t not in ("U", "D", "H") and t not in LABELED_STEPS:
                raise MalformedInputError(f"unknown step {t!r} in {text!r}")
        return toks
    toks = []
    i = 0
    while i < len(s):
        c = s[i]
        if c in ("U", "D"):
            toks.append(c)
            i += 1
        elif c == "H":
            if i + 1 < len(s) and s[i + 1] in "012":
                toks.append("H" + s[i + 1])
                i += 2
            else:
                toks.append("H")
                i += 1
        else:
            raise MalformedInputError(f"unknown step character {c!r} in {text!r}")
    return tuple(toks)


def format_steps(steps: Sequence[str]) -> str:
    if any(len(t) > 1 for t in steps):
        return " ".join(steps)
    return "".join(steps)


def is_motzkin(steps: Sequence[str]) -> bool:
    h = 0
    for t in steps:
        if t == "U":
            h += 1
        elif t == "D":
            h -= 1
        elif t != "H":
            return False
        if h < 0:
            return False
    return h == 0


def validate_labeled_motzkin(steps: Sequence[str]) -> tuple[str, ...]:
    """Check step tokens, nonnegative heights, zero end, and H2 only above ground."""
    t = tuple(steps)
    h = 0
    for i, step in enumerate(t, start=1):
        if step not in LABELED_STEPS:
            raise InvalidInputError(f"unknown labeled step {step!r} at position {i}")
        if step == "U":
            h += 1
        elif step == "D":
            h -= 1
            if h < 0:
                raise InvalidInputError(f"path dips below the axis at position {i}")
        elif step == "H2" and h == 0:
            raise InvalidInputError(
                f"H2 at height zero at position {i}; H2 needs height >= 1"
            )
    if h != 0:
        raise InvalidInputError(f"path ends at height {h}, not 0")
    return t


def enumerate_dyck(semilength: int, cap: int = DEFAULT_PATH_CAP) -> Iterator[str]:
    """All Dyck paths of the given semilength, lexicographic in D < U."""
    check_size(semilength, cap, f"Dyck enumeration at semilength {semilength}", "semilength")
    for steps in _walk(2 * semilength, 2 * cap, "Dyck", (("D", True), ("U", False))):
        yield "".join(steps)


def _walk(
    length: int, cap: int, what: str, alphabet: Sequence[tuple[str, bool]]
) -> Iterator[tuple[str, ...]]:
    """Paths of the given length over (step, needs height >= 1) pairs.

    U rises, D falls and every other step is horizontal; paths come out
    in the lexicographic order of the alphabet as given.
    """
    check_size(length, cap, f"{what} enumeration at length {length}")

    steps: list[str] = []

    def extend(h: int) -> Iterator[tuple[str, ...]]:
        rest = length - len(steps)
        if rest == 0:
            if h == 0:
                yield tuple(steps)
            return
        if h > rest:  # can no longer return to zero
            return
        for t, lifted in alphabet:
            if lifted and h == 0:
                continue
            steps.append(t)
            yield from extend(h + (t == "U") - (t == "D"))
            steps.pop()

    yield from extend(0)


def enumerate_motzkin(length: int, cap: int = DEFAULT_PATH_CAP) -> Iterator[tuple[str, ...]]:
    yield from _walk(length, cap, "Motzkin", (("D", True), ("H", False), ("U", False)))


def enumerate_labeled_motzkin(
    length: int, cap: int = DEFAULT_LABELED_CAP
) -> Iterator[tuple[str, ...]]:
    yield from _walk(
        length,
        cap,
        "labeled Motzkin",
        (("U", False), ("D", True), ("H0", False), ("H1", False), ("H2", True)),
    )


def double_rises(path: str) -> int:
    """Number of adjacent UU pairs."""
    validate_dyck(path)
    return sum(1 for a, b in zip(path, path[1:]) if a == b == "U")


def final_descent_length(path: str) -> int:
    """Length of the maximal run of D steps at the end of the path."""
    r = 0
    for c in reversed(path):
        if c != "D":
            break
        r += 1
    return r


def dyck_children(path: str) -> list[str]:
    """Peak insertions: UD before each D of the final descent, then after it.

    A path whose final descent has length r yields r + 1 children; every
    nonempty Dyck path arises this way from exactly one parent.
    """
    validate_dyck(path)
    r = final_descent_length(path)
    return [_insert_peak(path, r, q) for q in range(r + 1)]


def _insert_peak(path: str, r: int, q: int) -> str:
    """Child q of a path whose final descent has length r; its run is r + 1 - q."""
    i = len(path) - r + q
    return path[:i] + "UD" + path[i:]


def dyck_parent(path: str) -> str:
    """Remove the peak whose U sits just before the first D of the final descent."""
    validate_dyck(path)
    if not path:
        raise InvalidInputError("the empty path has no parent")
    idx = len(path) - final_descent_length(path)  # path[idx-1] is its U
    return path[: idx - 1] + path[idx + 1 :]
