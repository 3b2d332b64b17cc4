"""Permutations, classical and mesh pattern containment, and small structural helpers.

Permutations are tuples of the integers 1..n in one-line notation.  Pattern
containment is classical: an occurrence of a pattern p in w is a set of
positions of w whose entries are ordered the same way as p.  Mesh patterns
refine this by forbidding host entries inside shaded boxes of the pattern's
plot; see :class:`MeshPattern`.  Every generic containment test in the
package, including the tie-aware one on words in :mod:`patternsort.rgf`
and mesh containment, goes through one matcher kernel per
(pattern, head, tail, shaded boxes), except the paper's basis:
:func:`contains_classical` (and so :func:`avoids`) answers 2314 with
``_contains_2314`` and :func:`contains_mesh` answers :data:`MU` with
``_contains_mu``, which hands words other than distinct positive letters
back to the kernel.  Both give the kernel's answer on every word of
ints.  The kernel is Python source with one
nested ``for`` loop per pattern letter: each level tests its letter's
order relations as plain comparisons, and each shaded box at the first
level that fixes its four sides.  The source is built only from indices
the generator computed, never from pattern or host letters; it is
compiled with ``exec`` on first use and cached.  :func:`first_occurrence`
returns the kernel's lex-least occurrence, and the pattern-specific scans
at the end of this module are checked against the kernel.

Integer words are read and printed through one letter table: the text of
every plain int 0..255 and, for 1..255, its inverse.  :func:`parse_word`
looks each token up in the inverse, and :func:`spell` (behind
``format_perm``, ``rgf.format_rgf`` and ``GridDecomposition.describe``)
and :func:`letter_texts` (behind the first-stack text trace) spell
letters through the table.  Every other letter takes ``int()`` or
``str()`` as before: letters past 255, other spellings (``05``, ``+5``,
``1_0``, non-ASCII digits), bools, negative ints, floats and int
subclasses.  So the table changes no output and no error, only the time
they take.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


# the letter table: str(v) for every plain int v below _TABLE_SIZE, and its
# inverse on the positive ones, so that a token the inverse knows is a
# letter >= 1
_TABLE_SIZE = 256
_TEXT = {v: str(v) for v in range(_TABLE_SIZE)}
_VALUE = {t: v for v, t in _TEXT.items() if v}


def letter_texts(top: int) -> Mapping[int, str]:
    """A map from v to str(v) for every v in 0..top: the letter table when it reaches top."""
    return _TEXT if top < _TABLE_SIZE else {v: str(v) for v in range(top + 1)}


def spell(word: Iterable[int]) -> list[str]:
    """``list(map(str, word))``, through the letter table when every letter is in it."""
    t = tuple(word)
    # plain ints only: a bool, a float or an int subclass would find the
    # text of the int it equals
    if list(map(type, t)).count(int) == len(t):
        try:
            return [_TEXT[v] for v in t]
        except KeyError:  # a letter past the table, or a negative one
            pass
    return list(map(str, t))


def parse_word(text: str) -> tuple[int, ...]:
    """Read a word of positive integers from text.

    Whitespace (spaces, tabs) and commas separate letters ("3 1 2",
    "3,1,2"); text with neither is read as compact digits ("312").  Text
    with no letter, a letter that is not an integer, or a letter below 1
    raises InvalidInputError.
    """
    s = text.strip()
    parts = s.replace(",", " ").split()
    # s is stripped, so whitespace in it splits it in two or more parts
    if len(parts) == 1 and "," not in s:
        parts = s
    if not parts:
        raise InvalidInputError(f"no letter in {text!r}")
    try:
        return tuple([_VALUE[t] for t in parts])
    except KeyError:  # some token is spelled otherwise: int() reads the word
        pass
    try:
        word = tuple(map(int, parts))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse word {text!r}") from exc
    if min(word) < 1:
        raise InvalidInputError(f"word letters must be positive: {text!r}")
    return word


def parse_perm(text: str) -> Perm:
    """Parse a permutation written as a word (see :func:`parse_word`)."""
    return as_perm(parse_word(text))


def format_perm(p: Perm) -> str:
    return " ".join(spell(p))


def standardize(vals: Iterable[int]) -> Perm:
    """Relabel distinct values order-isomorphically to 1..n."""
    t = tuple(vals)
    if len(set(t)) != len(t):
        raise InvalidInputError(f"values are not distinct: {t!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(t))}
    return tuple(rank[v] for v in t)


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


def _occupied(w: Sequence[int], first: int, last: int, lo: int, hi: int) -> bool:
    """Some letter at a position in first..last-1 lies strictly between lo and hi."""
    for x in w[first:last]:
        if lo < x < hi:
            return True
    return False


# CPython refuses more than 20 statically nested blocks in one function, so
# a kernel nests at most this many position loops and hands the deeper
# letters to a further generated function.
_LOOPS_PER_PART = 16


def _kernel_source(
    pattern: tuple[int, ...], head: bool, tail: bool, shaded: frozenset
) -> str:
    """Python source of the matcher for one pattern; see :func:`_kernel`.

    Position i<d> and value v<d> belong to pattern letter d.  The text is
    built from depths, relation and box indices only: no letter of the
    pattern or of a host word appears in it.
    """
    rel = _relations(pattern)
    k = len(pattern)
    by_value = sorted(range(k), key=pattern.__getitem__)
    # each box as the letters at its left, right, low and high side, None
    # for a sentinel; tested at the first depth that fixes all four sides,
    # or before any loop when the pattern is empty
    boxes: dict[int, list[tuple[int | None, ...]]] = {}
    for a, b in sorted(shaded):
        sides = (
            a - 1 if a > 0 else None,
            a if a < k else None,
            by_value[b - 1] if b > 0 else None,
            by_value[b] if b < k else None,
        )
        depth = max((d for d in sides if d is not None), default=-1)
        boxes.setdefault(depth, []).append(sides)
    pinned = {0: "0"} if head else {}
    if tail and k:
        pinned[k - 1] = "n - 1"

    def box_tests(depth: int, indent: str, fail: str) -> list[str]:
        out = []
        for left, right, low, high in boxes.get(depth, ()):
            first = "0" if left is None else f"i{left} + 1"
            last = "n" if right is None else f"i{right}"
            lo = "0" if low is None else f"v{low}"
            hi = "n + 1" if high is None else f"v{high}"
            out += [f"{indent}if _occupied(w, {first}, {last}, {lo}, {hi}):", f"{indent}    {fail}"]
        return out

    lines: list[str] = []
    starts = range(0, max(k, 1), _LOOPS_PER_PART)
    for j, start in enumerate(starts):
        depths = range(start, min(start + _LOOPS_PER_PART, k))
        indent, fail = "    ", "return None"
        if j == 0:
            size = "n != 1" if head and tail and k == 1 else f"n < {k}"
            lines += ["def _part0(w):", "    n = len(w)", f"    if {size}:", "        return None"]
            lines += box_tests(-1, indent, fail)
        else:
            # an earlier part fixed letters 0..start-1
            lines.append(f"def _part{j}(w, n{''.join(f', i{e}' for e in range(start))}):")
            lines += [f"    v{e} = w[i{e}]" for e in range(start)]
        for d in depths:
            if d in pinned:
                lines.append(f"{indent}i{d} = {pinned[d]}")
            else:
                first = f"i{d - 1} + 1" if d else "0"
                stop = f"n - {k - 1 - d}" if d < k - 1 else "n"
                lines.append(f"{indent}for i{d} in range({first}, {stop}):")
                indent, fail = indent + "    ", "continue"
            lines.append(f"{indent}v{d} = w[i{d}]")
            bound = {s: f"v{e}" for e, s in rel[d]}
            if 0 in bound:
                lines.append(f"{indent}if v{d} != {bound[0]}:")
            elif bound:
                chain = (bound.get(1), f"v{d}", bound.get(-1))
                lines.append(f"{indent}if not {' < '.join(x for x in chain if x)}:")
            if bound:
                lines.append(f"{indent}    {fail}")
            lines += box_tests(d, indent, fail)
        if j + 1 < len(starts):
            lines += [
                f"{indent}found = _part{j + 1}(w, n{''.join(f', i{e}' for e in range(depths.stop))})",
                f"{indent}if found is not None:",
                f"{indent}    return found",
            ]
        else:
            lines.append(f"{indent}return ({''.join(f'i{d}, ' for d in range(k))})")
    return "\n".join(lines) + "\n"


# verify --nmax 10 builds 164 kernels, so the cache never evicts there
@lru_cache(maxsize=1024)
def _kernel(
    pattern: tuple[int, ...], head: bool, tail: bool, shaded: frozenset
) -> Callable[[Sequence[int]], tuple[int, ...] | None]:
    """The compiled matcher of one pattern, built on first use.

    One nested loop per pattern letter, innermost last, walks the
    positions in lexicographic order; each level tests its letter's
    relations as plain comparisons and every shaded box the level
    completes, so the first tuple to reach the innermost level is the
    lex-least occurrence.
    """
    namespace: dict = {"_occupied": _occupied}
    exec(_kernel_source(pattern, head, tail, shaded), namespace)
    return namespace["_part0"]


def first_occurrence(
    word: Sequence[int], pattern: Sequence[int], head: bool = False, tail: bool = False
) -> tuple[int, ...] | None:
    """Lex-least 0-based positions of an occurrence of pattern in word, or None.

    Matching is tie-aware: equal pattern letters map to equal letters of
    word and strict order is kept, so one matcher serves permutations and
    integer words alike.  ``head`` pins the first pattern letter to
    word[0] and ``tail`` pins the last one to word[-1].
    """
    return _kernel(tuple(pattern), head, tail, frozenset())(word)


def contains_classical(w: Perm, pattern: Perm) -> bool:
    if tuple(pattern) == (2, 3, 1, 4):
        return _contains_2314(w)
    return first_occurrence(w, pattern) is not None


def avoids(w: Perm, *patterns: Perm) -> bool:
    for p in patterns:
        if contains_classical(w, p):
            return False
    return True


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
    """Mesh containment: some classical occurrence has all shaded boxes empty.

    The host w must be a permutation of 1..n: the boxes along the plot's
    edges reach up to the sentinels 0 and n+1, so mesh matching, unlike
    classical matching, depends on the letters and not only on their
    order.  A shaded box that is not a pair of ints in 0..len(mp.tau) raises
    InvalidInputError.
    """
    if mp is MU:  # immutable and valid by construction
        return _contains_mu(w)
    tau = tuple(mp.tau)
    k = len(tau)
    try:
        shaded = frozenset(mp.shaded)
    except TypeError as exc:  # an unhashable box is no pair of ints
        raise InvalidInputError(f"shaded boxes must be pairs of ints: {mp.shaded!r}") from exc
    # checked on every call, not once per kernel: the kernel cache's keys
    # compare (0, True) and (0, 1.0) equal to (0, 1)
    for box in shaded:
        if type(box) is not tuple or len(box) != 2 or not (
            type(box[0]) is int and type(box[1]) is int
            and 0 <= box[0] <= k and 0 <= box[1] <= k
        ):
            raise InvalidInputError(
                f"shaded box must be a pair of ints in 0..{k}: {box!r}"
            )
    if tau == MU.tau and shaded == MU.shaded:
        return _contains_mu(w)
    return _kernel(tau, False, False, shaded)(w) is not None


def ltr_minima(w: Perm) -> list[tuple[int, int]]:
    """Left-to-right minima as (position, value), 1-based positions."""
    out: list[tuple[int, int]] = []
    cur = None
    for i, v in enumerate(w, start=1):
        if cur is None or v < cur:
            out.append((i, v))
            cur = v
    return out


def reverse(w: Perm) -> Perm:
    return tuple(reversed(w))


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of 1..n in lex order."""
    if n < 0:
        raise InvalidInputError("length must be nonnegative")
    yield from itertools.permutations(range(1, n + 1))


# fast containment tests for fixed patterns on hot paths; a scan stays only
# while it beats the compiled kernel for its pattern, and each is
# cross-tested against the kernel


def _contains_321(w: Sequence[int]) -> bool:
    """The letters below an earlier one fail to weakly increase: a strictly
    decreasing triple, on any word of positive integers."""
    mx = low = 0  # running maximum; last letter below it
    for v in w:
        if v >= mx:
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


def _contains_2314(w: Sequence[int]) -> bool:
    """Classical 2314 on any word of ints, in O(n^2).

    One pass per candidate 2 at a: mb is the least letter above w[a] seen
    so far (a 3), and g is mb as it stood at the last letter below w[a]
    (a 1 after that 3), so a later letter above g is a 4.
    """
    for a in range(len(w) - 3):
        va = w[a]
        mb = g = None
        for v in w[a + 1:]:
            if g is not None and v > g:
                return True
            if v > va:
                if mb is None or v < mb:
                    mb = v
            elif v < va and mb is not None:
                g = mb
    return False


def _contains_mu(w: Sequence[int]) -> bool:
    """Mesh containment of MU, in O(n log n) on distinct positive letters.

    On such a word an occurrence ends at x exactly when x has an earlier
    smaller letter, x pops some letter off an increasing stack, and v1,
    the last letter popped (the least letter between x and its nearest
    earlier smaller one), is below the least left-to-right minimum above
    x, if there is one: that minimum is the least letter before the first
    letter below x, which plays the 1.  A word with a repeated letter or
    a letter at most 0 goes to the kernel.
    """
    if len(w) < 3:
        return False
    if len(set(w)) != len(w) or min(w) < 1:
        return _kernel(MU.tau, False, False, MU.shaded)(w) is not None
    stack = [0]  # 0 lies below every letter
    neg: list[int] = []  # left-to-right minima, negated, so ascending
    for x in w:
        v1 = 0
        while stack[-1] > x:
            v1 = stack.pop()
        if not stack[-1]:
            neg.append(-x)
        elif v1:
            i = bisect_left(neg, -x)  # the minima above x are neg[:i]
            if not i or -neg[i - 1] > v1:
                return True
        stack.append(x)
    return False

