"""Permutations, classical and mesh pattern containment, and small structural helpers.

Permutations are tuples of the integers 1..n in one-line notation.  Pattern
containment is classical: an occurrence of a pattern p in w is a set of
positions of w whose entries are ordered the same way as p.  Mesh patterns
refine this by forbidding host entries inside shaded boxes of the pattern's
plot; see :class:`MeshPattern`.  Every generic containment test in the
package, including the tie-aware one on words in :mod:`patternsort.rgf`,
goes through the one backtracking search :func:`first_occurrence`; the
pattern-specific scans at the end of this module are checked against it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import inf
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidInputError

Perm = tuple[int, ...]


def is_perm(w: Iterable[int]) -> bool:
    """True if w is a permutation of 1..n in one-line notation."""
    t = tuple(w)
    # as in rgf.validate: plain ints skip the isinstance calls; bools are
    # rejected, int subclasses kept
    if list(map(type, t)).count(int) != len(t) and not all(
        isinstance(v, int) and not isinstance(v, bool) for v in t
    ):
        return False
    return sorted(t) == list(range(1, len(t) + 1))


def as_perm(w: Iterable[int]) -> Perm:
    """Validate and return w as a permutation tuple. Raises InvalidInputError."""
    t = tuple(w)
    if not is_perm(t):
        raise InvalidInputError(f"not a permutation of 1..n: {t!r}")
    return t


def parse_word(text: str) -> tuple[int, ...]:
    """Read a word of positive integers from text.

    Whitespace (spaces, tabs) and commas separate letters ("3 1 2",
    "3,1,2"); text with neither is read as compact digits ("312").  Text
    with no letter, a letter that is not an integer, or a letter below 1
    raises InvalidInputError.
    """
    s = text.strip()
    if "," in s or any(c.isspace() for c in s):
        parts = s.replace(",", " ").split()
    else:
        parts = list(s)
    if not parts:
        raise InvalidInputError(f"no letter in {text!r}")
    try:
        word = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse word {text!r}") from exc
    if min(word) < 1:
        raise InvalidInputError(f"word letters must be positive: {text!r}")
    return word


def parse_perm(text: str) -> Perm:
    """Parse a permutation written as a word (see :func:`parse_word`)."""
    return as_perm(parse_word(text))


def format_perm(p: Perm) -> str:
    return " ".join(str(v) for v in p)


def standardize(vals: Iterable[int]) -> Perm:
    """Relabel distinct values order-isomorphically to 1..n."""
    t = tuple(vals)
    if len(set(t)) != len(t):
        raise InvalidInputError(f"values are not distinct: {t!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(t))}
    return tuple(rank[v] for v in t)


@lru_cache(maxsize=256)
def _relations(pattern: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per pattern index d, the (earlier index, sign) pairs that pin letter d.

    The sign is that of pattern[d] - pattern[e].  An equal earlier letter
    pins letter d on its own; otherwise the nearest earlier letters below
    and above do, since every other earlier letter is ordered the same way
    against one of those two.
    """
    table = []
    for d, x in enumerate(pattern):
        earlier = pattern[:d]
        if x in earlier:
            table.append(((earlier.index(x), 0),))
            continue
        below = [e for e in range(d) if earlier[e] < x]
        above = [e for e in range(d) if earlier[e] > x]
        rel = []
        if below:
            rel.append((max(below, key=earlier.__getitem__), 1))
        if above:
            rel.append((min(above, key=earlier.__getitem__), -1))
        table.append(tuple(rel))
    return tuple(table)


def first_occurrence(
    word: Sequence[int],
    pattern: Sequence[int],
    head: bool = False,
    tail: bool = False,
    accept: Callable[[tuple[int, ...]], bool] | None = None,
) -> tuple[int, ...] | None:
    """Lex-least 0-based positions of an occurrence of pattern in word, or None.

    Matching is tie-aware: equal pattern letters map to equal letters of
    word and strict order is kept, so one search serves permutations and
    integer words alike.  ``head`` pins the first pattern letter to
    word[0], ``tail`` pins the last one to word[-1], and ``accept`` may
    veto a complete occurrence, in which case the search goes on.
    """
    rel = _relations(tuple(pattern))
    k, n = len(rel), len(word)
    if k > n:
        return None
    chosen: list[int] = []

    def extend(start: int) -> bool:
        depth = len(chosen)
        if depth == k:
            return accept is None or accept(tuple(chosen))
        # letters are integers, so each relation tightens a closed interval
        lo, hi = -inf, inf
        for e, s in rel[depth]:
            v = word[chosen[e]]
            if s >= 0:
                lo = v + s
            if s <= 0:
                hi = v + s
        if tail and depth == k - 1:
            start = n - 1
        stop = 1 if head and depth == 0 else n - k + depth + 1
        for pos in range(start, stop):
            if lo <= word[pos] <= hi:
                chosen.append(pos)
                if extend(pos + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if extend(0) else None


def contains_classical(w: Perm, pattern: Perm) -> bool:
    return first_occurrence(w, pattern) is not None


def avoids(w: Perm, *patterns: Perm) -> bool:
    return all(not contains_classical(w, p) for p in patterns)


class MeshPattern(NamedTuple):
    """A classical pattern together with a set of shaded boxes.

    Boxes are pairs (a, b) with 0 <= a, b <= len(tau).  Box (a, b) sits
    between positions a and a+1 and between values b and b+1 of the
    pattern's plot (0 meaning "before the first" / "below the lowest").
    An occurrence of the underlying pattern counts only if, for every
    shaded box, no entry of the host lies strictly inside the region the
    box maps to.
    """

    tau: Perm
    shaded: frozenset[tuple[int, int]]


#: Mesh pattern whose avoidance, together with classical 2314, characterizes
#: the permutations our machine sorts: 132 with boxes (0,2), (2,0), (2,1).
MU = MeshPattern((1, 3, 2), frozenset({(0, 2), (2, 0), (2, 1)}))


def contains_mesh(w: Perm, mp: MeshPattern) -> bool:
    """Mesh containment: some classical occurrence has all shaded boxes empty."""
    n = len(w)

    def boxes_empty(occ: tuple[int, ...]) -> bool:
        # 1-based positions with sentinels 0 and n+1 at the ends
        pos = (0,) + tuple(p + 1 for p in occ) + (n + 1,)
        vals = (0,) + tuple(sorted(w[p] for p in occ)) + (n + 1,)
        for a, b in mp.shaded:
            lo_v, hi_v = vals[b], vals[b + 1]
            for q in range(pos[a], pos[a + 1] - 1):  # 0-based positions strictly between
                if lo_v < w[q] < hi_v:
                    return False
        return True

    return first_occurrence(w, mp.tau, accept=boxes_empty) is not None


def mu_predicate(w: Perm) -> bool:
    """Direct test for containment of :data:`MU`, bypassing the generic mesh scan.

    Looks for values a < b < c appearing in the order a, c, b such that
    every entry left of a is below b or above c, and every entry strictly
    between c and b (by position) is above b.
    """
    n = len(w)
    for i in range(n):
        a = w[i]
        for j in range(i + 1, n):
            c = w[j]
            if c <= a:
                continue
            for k in range(j + 1, n):
                b = w[k]
                if not (a < b < c):
                    continue
                for q in range(i):  # box (0,2): left of a, between b and c
                    if b < w[q] < c:
                        break
                else:
                    for q in range(j + 1, k):  # boxes (2,0),(2,1): below b
                        if w[q] < b:
                            break
                    else:
                        return True
    return False


def ltr_minima(w: Perm) -> list[tuple[int, int]]:
    """Left-to-right minima as (position, value), 1-based positions."""
    out: list[tuple[int, int]] = []
    cur = None
    for i, v in enumerate(w, start=1):
        if cur is None or v < cur:
            out.append((i, v))
            cur = v
    return out


def complement(w: Perm) -> Perm:
    n = len(w)
    return tuple(n + 1 - v for v in w)


def reverse(w: Perm) -> Perm:
    return tuple(reversed(w))


def is_layered(w: Perm) -> bool:
    """True if w is a sequence of decreasing runs on consecutive value intervals.

    Layered means w = I1 (+) I2 (+) ... with each Ij decreasing, i.e. the
    direct sum of decreasing permutations.  Equivalent to avoiding both
    231 and 312.
    """
    base = 0
    i = 0
    n = len(w)
    while i < n:
        top = w[i]
        if top <= base:
            return False
        # the layer must be top, top-1, ..., base+1 in that order
        width = top - base
        if w[i : i + width] != tuple(range(top, base, -1)):
            return False
        base = top
        i += width
    return True


def _is_layered_by_avoidance(w: Perm) -> bool:
    # cross-check route kept private; tests compare against is_layered
    return avoids(w, (2, 3, 1), (3, 1, 2))


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of 1..n in lex order."""
    if n < 0:
        raise InvalidInputError("length must be nonnegative")
    yield from itertools.permutations(range(1, n + 1))


# fast containment tests for fixed patterns on hot paths; each is
# cross-tested against contains_classical


def _contains_321(w: Perm) -> bool:
    """The entries that are not left-to-right maxima fail to increase."""
    mx = low = 0  # running maximum; last entry below it
    for v in w:
        if v > mx:
            mx = v
        elif v < low:
            return True
        else:
            low = v
    return False


def _contains_231(w: Perm) -> bool:
    # Stacksort with a bound, the largest value popped so far: a value
    # arriving below the bound completes a 231 with the popped value and
    # the larger one that popped it.
    stack: list[int] = []
    bound = 0
    for v in w:
        if v < bound:
            return True
        while stack and stack[-1] < v:
            bound = stack.pop()
        stack.append(v)
    return False


def _contains_2314(w: Perm) -> bool:
    n = len(w)
    if n < 4:
        return False
    sufmax = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        sufmax[j] = max(sufmax[j + 1], w[j])
    # roles: w[i]=2, w[j]=3, w[k]=1, suffix max past k plays 4
    for k in range(2, n - 1):
        for i in range(k):
            if w[i] <= w[k]:
                continue
            for j in range(i + 1, k):
                if w[j] > w[i] and sufmax[k + 1] > w[j]:
                    return True
    return False
