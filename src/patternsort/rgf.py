"""Restricted growth functions and their set-partition view.

An RGF is a word r_1 ... r_n of positive integers with r_1 = 1 and
r_i <= 1 + max(r_1, ..., r_{i-1}).  Reading r_i as "the block containing i"
makes RGFs of length n the standard encoding of set partitions of {1..n}.

Pattern containment on words is tie-aware: a subsequence matches a pattern
when equal letters map to equal letters and the strict order is preserved.
Matching compares letters only by their order, so neither the word nor the
pattern needs standardizing first: 3341 and 2231 are the same pattern, and
2231 and 12231 may be written interchangeably wherever deleting a forced
prefix does not matter.

The avoiders of 1221 and of 12231 grow by their generating trees, with an
O(1) step and no matcher; those of any other pattern by the pruned walk.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInputError, check_size, grow, walk
from .grid import _grow
from .perms import _kernel, first_occurrence, spell

Rgf = tuple[int, ...]

DEFAULT_RGF_CAP = 12


def is_rgf(seq: Iterable[int]) -> bool:
    try:
        validate(seq)
    except InvalidInputError:
        return False
    return True


def validate(seq: Iterable[int]) -> Rgf:
    """Return seq as an RGF tuple, or raise with the first offending index (1-based)."""
    t = tuple(seq)
    mx = 0
    for i, v in enumerate(t, start=1):
        # plain ints skip the isinstance calls; bools are rejected, int subclasses kept
        if (
            type(v) is not int and (isinstance(v, bool) or not isinstance(v, int))
        ) or not 0 < v <= mx + 1:
            raise InvalidInputError(
                f"not a restricted growth function: letter {v!r} at position {i} "
                f"exceeds 1 + running maximum {mx}"
            )
        if v > mx:
            mx = v
    return t


def format_rgf(word: Sequence[int]) -> str:
    return (" " if word and max(word) > 9 else "").join(spell(word))


def rgf_contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of word standardizes to std(pattern)."""
    if not pattern:
        raise InvalidInputError("empty pattern")
    return first_occurrence(word, pattern) is not None


def rgf_avoids(word: Sequence[int], *patterns: Sequence[int]) -> bool:
    return all(not rgf_contains(word, p) for p in patterns)


# fast containment tests for the fixed patterns the map gates reject; each
# holds on validated RGFs only, where a letter is a repeat exactly when it
# does not exceed the running maximum, and each is cross-checked against
# rgf_contains


def _repeat_then_smaller(r: Rgf, floor: int) -> bool:
    """Some letter b recurs and a letter in [floor, b) follows that repeat."""
    mx = top = 0  # running maximum; largest repeated letter so far
    for v in r:
        if floor <= v < top:
            return True
        if v <= mx:
            top = max(top, v)
        else:
            mx = v
    return False


def _contains_1221(r: Rgf) -> bool:
    return _repeat_then_smaller(r, 1)


def _contains_12332(r: Rgf) -> bool:
    return _repeat_then_smaller(r, 2)


def _contains_12231(r: Rgf) -> bool:
    """Some repeated letter b is followed by a larger letter, then by a
    letter below b.  On an RGF that is an occurrence of 12231, since the
    first occurrence of every letter below b precedes b.

    A repeat that a larger letter has followed is armed, and only the
    largest armed letter matters.  The repeats still waiting for a larger
    letter form a stack that decreases towards its top: a letter arms the
    waiting repeats below it, and a new repeat is then the smallest.
    """
    mx = armed = 0
    waiting: list[int] = []
    for v in r:
        if v < armed:
            return True
        while waiting and waiting[-1] < v:
            armed = waiting.pop()
        if v > mx:
            mx = v
        elif v > armed and (not waiting or waiting[-1] > v):
            waiting.append(v)
    return False


def _contains_12323(r: Rgf) -> bool:
    """Some two blocks other than the block of 1 cross.

    A block that started and has not ended yet is open; the blocks do not
    cross exactly when every repeat belongs to the most recently opened
    block that is still open.
    """
    last = {v: i for i, v in enumerate(r)}
    opened: list[int] = []
    mx = 0
    for i, v in enumerate(r):
        if v == 1:
            continue
        if v > mx:
            mx = v
            opened.append(v)
        elif opened[-1] != v:
            return True
        if last[v] == i:
            opened.pop()
    return False


def _walk(n: int, cap: int, pattern: Sequence[int] | None = None) -> Iterator[Rgf]:
    """Length-n RGFs in lexicographic order, depth first.

    With a pattern, a branch is cut the moment an appended letter
    completes an occurrence: the word avoided the pattern before, so a
    new occurrence must end at that letter, where ``ends`` pins it.
    """
    check_size(n, cap, f"RGF enumeration at n={n}")
    ends = None if pattern is None else _kernel(tuple(pattern), False, True, frozenset())

    def children(node: tuple[Rgf, int]) -> Iterator[tuple[Rgf, int]]:
        word, top = node  # top: the running maximum
        for letter in range(1, top + 2):
            w = word + (letter,)
            if ends is None or ends(w) is None:
                yield w, max(top, letter)

    for word, _ in walk(((), 0), children, n):
        yield word


def enumerate_rgfs(n: int, cap: int = DEFAULT_RGF_CAP) -> Iterator[Rgf]:
    """All RGFs of length n in lexicographic order (Bell-number many)."""
    return _walk(n, cap)


def _step_1221(sites: range, c: int) -> range:
    """The active sites t..max+1 after c: c is the new t if c <= max, else the new max."""
    return range(c, sites.stop) if c + 2 <= sites.stop else range(sites.start, c + 2)


# patterns, by tie-aware standardization, listed by generating trees with O(1) steps
_TREES = {(1, 2, 2, 1): lambda n: grow(range(1, 2), iter, _step_1221, n), (1, 2, 2, 3, 1): _grow}


def enumerate_avoiders(
    n: int, pattern: Sequence[int], cap: int = DEFAULT_RGF_CAP
) -> list[Rgf]:
    """All length-n RGFs avoiding the (standardized) pattern, lex order.

    A pattern in `_TREES` grows by its tree, any other by the pruned walk;
    the naive filter over all RGFs is their oracle (rgf-pruned-vs-naive).
    """
    if not pattern:
        raise InvalidInputError("empty pattern")
    check_size(n, cap, f"RGF enumeration at n={n}")
    rank = {v: r for r, v in enumerate(sorted(set(pattern)), start=1)}
    tree = _TREES.get(tuple(rank[v] for v in pattern))
    return list(_walk(n, cap, pattern) if tree is None else tree(n))


def rgf_to_partition(word: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Blocks of the encoded set partition, ordered by least element."""
    w = validate(word)
    blocks: dict[int, list[int]] = {}
    for i, v in enumerate(w, start=1):
        blocks.setdefault(v, []).append(i)
    # letter j is the j-th block; least elements are automatically increasing
    return tuple(tuple(blocks[j]) for j in sorted(blocks))


def partition_to_rgf(blocks: Iterable[Iterable[int]]) -> Rgf:
    bs = [sorted(b) for b in blocks]
    if any(not b for b in bs):
        raise InvalidInputError("empty block in partition")
    bs.sort(key=lambda b: b[0])
    n = sum(len(b) for b in bs)
    letter_of: dict[int, int] = {}
    for j, b in enumerate(bs, start=1):
        for x in b:
            if x in letter_of:
                raise InvalidInputError(f"element {x} appears in two blocks")
            letter_of[x] = j
    if sorted(letter_of) != list(range(1, n + 1)):
        raise InvalidInputError("blocks do not cover 1..n")
    return validate(letter_of[i] for i in range(1, n + 1))


def strip_ltr_maxima(word: Sequence[int]) -> tuple[int, ...]:
    """Delete the strict left-to-right maxima.

    On an RGF these are the first occurrences, so what is left is the
    paper's w-subword.
    """
    out = []
    mx = 0
    for v in word:
        if v > mx:
            mx = v
        else:
            out.append(v)
    return tuple(out)


def repeated_ltr_maxima(word: Sequence[int]) -> tuple[int, ...]:
    """1-based positions i >= 2 where the letter equals the maximum of its strict prefix."""
    out = []
    mx = 0
    for i, v in enumerate(word, start=1):
        if i > 1 and v == mx:
            out.append(i)
        mx = max(mx, v)
    return tuple(out)


def alpha(word: Iterable[int]) -> Rgf:
    """Remove the repeated left-to-right maxima; the result is again an RGF."""
    w = validate(word)
    drop = set(repeated_ltr_maxima(w))
    return validate(v for i, v in enumerate(w, start=1) if i not in drop)


def is_weakly_increasing(seq: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def active_sites_1221(word: Iterable[int]) -> range:
    """Letters whose appending keeps the word 1221-avoiding: t..max+1, where t is
    the largest repeated letter, or 1 if none.  Input must itself avoid 1221."""
    w = validate(word)
    if _contains_1221(w):
        raise InvalidInputError("word contains 1221; active sites are undefined")
    return reduce(_step_1221, w, range(1, 2))


def max_distribution(
    n: int, pattern: Sequence[int], cap: int = DEFAULT_RGF_CAP
) -> dict[int, int]:
    """Counts of length-n avoiders of pattern grouped by their maximum letter."""
    dist: dict[int, int] = {}
    for w in enumerate_avoiders(n, pattern, cap=cap):
        m = max(w, default=0)
        dist[m] = dist.get(m, 0) + 1
    return dist


def all_words_standardized(length: int) -> Iterator[tuple[int, ...]]:
    """All standardized words of the given length (surjections onto 1..m)."""
    for m in range(1, length + 1):
        for w in itertools.product(range(1, m + 1), repeat=length):
            if len(set(w)) == m:
                yield w
