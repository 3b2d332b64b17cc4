"""Constructive correspondences between sortable permutations, restricted
growth functions, Dyck paths, and labeled Motzkin paths.

Each map comes with its inverse.  Input outside a map's domain raises
InvalidInputError; φ⁻¹, ψ and β⁻¹ find that out in their own construction
and only then scan for the pattern to name it.  Defensive replay
mismatches (which no input can trigger) raise MalformedInputError.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from math import inf
from typing import Iterable, Iterator, NamedTuple

from .errors import InsertRejected, InvalidInputError, MalformedInputError
from .grid import GrowthState, _sortable, strip_word
from .paths import validate_dyck, validate_labeled_motzkin
from .perms import Perm, _contains_321, as_perm
from .rgf import (
    Rgf,
    _contains_1221,
    _contains_12231,
    _contains_12323,
    _contains_12332,
    validate,
)


# -- sortable permutations <-> words avoiding 12231 -----------------------

def sortable_to_rgf(pi: Iterable[int], relaxed: bool = False) -> Rgf:
    """Record, per entry, the index of the horizontal strip holding it.

    Letter i gets row j when m_j <= pi_i < m_{j-1} (m_0 infinite), so
    minima map to their own index and the count of ltr-minima becomes
    the maximum letter.  On sortable permutations the result avoids
    12231 and the map is a bijection; relaxed mode skips the
    sortability check and claims nothing about the image.
    """
    return strip_word(as_perm(pi) if relaxed else _sortable(pi))


def rgf_to_sortable(word: Iterable[int]) -> Perm:
    """Rebuild the sortable permutation whose strip word is the input.

    One growth state takes the letters in place: a first occurrence
    appends a new minimum at the bottom of the linked value order, and
    any other letter j makes the one legal insertion into row j of the
    last column, directly above its pivot.  Each letter costs amortised
    O(1), and the permutation is read off the value order once, at the
    end.  The tree grows exactly the 12231-avoiders, so only they pass.
    """
    r = validate(word)
    s = GrowthState()
    try:
        for j in r:
            s._step(j)
        return s.perm
    except InsertRejected as exc:
        if not _contains_12231(r):
            raise MalformedInputError(f"no legal insertion for {r}: {exc}") from exc
    raise InvalidInputError(f"{r} contains 12231")


# -- words avoiding 1221 <-> Dyck paths ------------------------------------

def rgf_to_dyck_path(word: Iterable[int]) -> str:
    """Replay the word's growth as peak insertions, in closed form.

    Appending letter j to a prefix with maximum M and final descent run
    of length r makes child q of the Dyck generating tree
    (:func:`patternsort.paths.dyck_children`): q = 0 for a new maximum
    and q = r + j - M otherwise.  The child inserts UD after q D's of
    the run, so its run has length r + 1 - q, and every later insertion
    lands inside that new run: nothing before the U ever changes.  The
    path is therefore D^q_1 U D^q_2 U ... D^q_n U followed by the last
    run.  q < 1 exactly when j completes a 1221 (see `active_sites_1221`).
    """
    r = validate(word)
    parts: list[str] = []
    mx = run = 0
    for j in r:
        if j > mx:
            q, mx = 0, j
        else:
            q = run + j - mx
            if q < 1:
                if _contains_1221(r):
                    raise InvalidInputError(f"{r} contains 1221")
                raise MalformedInputError(
                    f"letter {j} has no insertion site (run {run}, max {mx})"
                )
        parts.append("D" * q + "U")
        run += 1 - q
    parts.append("D" * run)
    return "".join(parts)


def dyck_path_to_rgf(path: str) -> Rgf:
    """Read the letters off the path in one pass.

    The number q of D's just before each U is the child the letter
    chose (see rgf_to_dyck_path): with maximum M and run r before it,
    the letter is M + 1 for q = 0 and M + q - r otherwise.
    """
    validate_dyck(path)
    word: list[int] = []
    mx = run = 0
    for ds in path.split("U")[:-1]:
        q = len(ds)
        if q:
            word.append(mx + q - run)
        else:
            mx += 1
            word.append(mx)
        run += 1 - q
    out = tuple(word)
    try:
        validate(out)
    except InvalidInputError as exc:
        raise MalformedInputError(f"replay produced a non-word: {out}") from exc
    if _contains_1221(out):
        raise MalformedInputError(f"replay produced {out} containing 1221")
    return out


# -- labeled Motzkin paths <-> words avoiding 12323 / 12332 ----------------

def _check_mode(mode: str) -> str:
    if mode not in ("stack", "queue"):
        raise InvalidInputError(f"mode must be 'stack' or 'queue', not {mode!r}")
    return mode


def labeled_motzkin_to_rgf(
    steps: Iterable[str], mode: str = "stack", reduced: bool = False
) -> Rgf:
    """Scan the path, growing a word letter by letter from an initial 1.

    U appends a new strict maximum and stores it; D appends the stored
    element currently accessible and removes it; H0 appends a new strict
    maximum without storing; H1 appends 1; H2 appends the accessible
    element without removing it.  The store is a stack or a queue
    depending on mode.  Reduced form requires an H1-free path and
    returns the word minus its leading 1, all letters decremented.
    """
    _check_mode(mode)
    p = validate_labeled_motzkin(steps)
    if reduced and "H1" in p:
        raise InvalidInputError("reduced form is only defined for H1-free paths")
    word = [1]
    store: deque[int] = deque()
    take, top = (store.pop, -1) if mode == "stack" else (store.popleft, 0)
    mx = 1
    for step in p:
        if step == "U":
            mx += 1
            word.append(mx)
            store.append(mx)
        elif step == "D":
            word.append(take())
        elif step == "H0":
            mx += 1
            word.append(mx)
        elif step == "H1":
            word.append(1)
        else:  # H2
            word.append(store[top])
    if reduced:
        return tuple(v - 1 for v in word[1:])
    return tuple(word)


def rgf_to_labeled_motzkin(
    word: Iterable[int], mode: str = "stack", reduced: bool = False
) -> tuple[str, ...]:
    """Classify each letter after the first by its occurrence pattern.

    A 1 is H1; a first occurrence is U when the value recurs and H0 when
    it does not; a later occurrence is H2 when the value recurs again
    and D when it is the last.  The path is mapped back with
    labeled_motzkin_to_rgf, which gives the word back exactly when no two
    blocks cross (12323, stack mode) or nest (12332, queue mode).
    """
    _check_mode(mode)
    r = validate(word)
    if reduced:
        r = (1,) + tuple(v + 1 for v in r)  # an RGF, since r is one
    if not r:
        raise InvalidInputError("need a word of length >= 1")

    last = {v: i for i, v in enumerate(r)}
    steps: list[str] = []
    mx = 1
    for i in range(1, len(r)):
        v = r[i]
        if v == 1:
            steps.append("H1")
        elif v > mx:  # on an RGF, a first occurrence is a new maximum
            mx = v
            steps.append("U" if last[v] > i else "H0")
        else:
            steps.append("H2" if last[v] > i else "D")

    back = labeled_motzkin_to_rgf(steps, mode)
    if back != r:
        if mode == "stack":
            forbidden, contains = "12323", _contains_12323
        else:
            forbidden, contains = "12332", _contains_12332
        if contains(r):
            raise InvalidInputError(f"{r} contains {forbidden} ({mode} mode)")
        raise MalformedInputError(f"replay of {r} diverged at {back}")
    return tuple(steps)


# -- words avoiding 12321 (weakly increasing remainder) <-> Av(321) --------

def _strict_maxima_positions(w: tuple[int, ...]) -> list[int]:
    """0-based positions of the strict left-to-right maxima of a word."""
    out = []
    mx = 0
    for i, v in enumerate(w):
        if v > mx:
            out.append(i)
            mx = v
    return out


def rgf_to_av321(word: Iterable[int]) -> Perm:
    """Turn a word whose non-maxima part is weakly increasing into a
    321-avoiding permutation.

    Strict maxima keep their positions and end up as the permutation's
    ltr-maxima; the remaining letters r_{i_1}, r_{i_2}, ... become the
    strictly increasing values s_1 = r_{i_1}, s_j = s_{j-1} +
    (r_{i_j} - r_{i_{j-1}}) + 1, and the leftover values fill the maxima
    slots in increasing order.  The sum telescopes to s_j = r_{i_j} + j - 1.
    """
    r = validate(word)
    n = len(r)
    maxpos = set(_strict_maxima_positions(r))
    rest = [(i, v) for i, v in enumerate(r) if i not in maxpos]
    for (ia, va), (ib, vb) in zip(rest, rest[1:]):
        if vb < va:
            raise InvalidInputError(
                f"letter at position {ib + 1} breaks the weakly increasing "
                f"remainder ({vb} after {va})"
            )
    out = [0] * n
    for j, (i, v) in enumerate(rest):
        out[i] = v + j
    unused = sorted(set(range(1, n + 1)) - {out[i] for i, _ in rest})
    for i, v in zip(sorted(maxpos), unused):
        out[i] = v
    return tuple(out)


def av321_to_rgf(pi: Iterable[int]) -> Rgf:
    """Inverse of rgf_to_av321, defined on 321-avoiding permutations."""
    p = as_perm(pi)
    if _contains_321(p):
        raise InvalidInputError(f"{p} contains 321")
    word = [0] * len(p)
    for rank, i in enumerate(_strict_maxima_positions(p), start=1):
        word[i] = rank
    j = 0
    for i, v in enumerate(p):
        if not word[i]:  # ranks start at 1, so 0 marks a non-maximum
            word[i] = v - j
            j += 1
    out = tuple(word)
    try:
        return validate(out)
    except InvalidInputError as exc:
        raise MalformedInputError(f"inverse produced a non-word: {out}") from exc


# -- words avoiding 12231 <-> words avoiding 12321 -------------------------

class TripleIndex(NamedTuple):
    """1-based occurrence positions."""

    i1: int
    i2: int
    i3: int


def _swap_321s(w: list[int]) -> Iterator[TripleIndex]:
    """Yield the lexicographically largest strictly decreasing triple of w,
    then swap its first two letters in place, until w is 321-free."""
    n = len(w)
    low = [inf] * (n + 1)  # low[k]: least letter of w[k:]
    mid = low[:]  # mid[k]: least letter of w[k:] with a smaller one after it
    a = n - 1  # right to left, the first letter above mid starts the triple
    while a >= 0:
        v = w[a]
        if v <= mid[a + 1]:
            low[a], mid[a] = (low[a + 1], v) if low[a + 1] < v else (v, mid[a + 1])
            a -= 1
            continue
        # mid[] and low[] grow to the right: bisect for the middle and last entries
        b = bisect_left(mid, v, a + 1, n) - 1
        c = bisect_left(low, w[b], b + 1, n) - 1
        yield TripleIndex(a + 1, b + 1, c + 1)
        w[a], w[b] = w[b], v
        # low[] holds, as w[c] is below both swapped letters.  mid[] can only
        # grow on (a, b], so no triple starts there; update it until it holds.
        for k in range(b, a, -1):
            m = w[k] if low[k + 1] < w[k] else mid[k + 1]
            if m == mid[k]:
                break
            mid[k] = m


def _swap_repeat_231s(w: list[int]) -> Iterator[TripleIndex]:
    """Yield the lexicographically least repeat-led 231 of w, then swap its
    first two letters in place, until there is none."""
    n = len(w)
    after = [inf] * n  # after[k]: least letter right of index k
    for k in range(n - 2, -1, -1):
        after[k] = min(w[k + 1], after[k + 1])
    # no swap changes after[]: both swapped letters exceed w[c] >= after[b]
    seen: set[int] = set()  # the letters before a
    a, b = 0, 1
    while a < n - 2:  # a triple needs two letters after a
        v = w[a]
        if v in seen:
            # after[] grows: no letter below v follows the first b with after[b] >= v
            while w[b] <= v and after[b] < v:
                b += 1
            if after[b] < v:
                c = b + 1
                while w[c] >= v:
                    c += 1
                yield TripleIndex(a + 1, b + 1, c + 1)
                w[a], w[b] = w[b], v
                # now no letter in (a, b] exceeds w[a], and a triple starting
                # before a would give one before the swap
                b += 1
                continue
        seen.add(v)
        a += 1
        b = a + 1


def to_12321_avoider(
    word: Iterable[int], with_steps: bool = False
) -> Rgf | tuple[Rgf, list[TripleIndex]]:
    """Swap away strictly decreasing triples, rightmost first.

    Defined on words avoiding 12231 (equivalently, with no repeat-led
    231).  Each swap exchanges the first two letters of the current
    rightmost triple, which strictly decreases that triple in the
    lexicographic order.  The loop checks that, so it ends within C(n, 3)
    swaps, in a 321-free word with the same letter multiset.
    """
    r = validate(word)
    if _contains_12231(r):  # on an RGF, the same as a repeat-led 231
        raise InvalidInputError(f"{r} contains a repeat-led 231")
    steps: list[TripleIndex] = []
    if _contains_321(r):  # else no swap is needed
        w = list(r)
        for t in _swap_321s(w):
            if steps and not t < steps[-1]:
                raise MalformedInputError(f"triple {t} did not decrease below {steps[-1]}")
            steps.append(t)
        r = validate(w)
    return (r, steps) if with_steps else r


def to_12231_avoider(
    word: Iterable[int], with_steps: bool = False
) -> Rgf | tuple[Rgf, list[TripleIndex]]:
    """Swap repeat-led 231 occurrences back in, leftmost first.

    Defined on 321-free words; inverse of to_12321_avoider, whose triples
    decrease: here each must increase, so at most C(n, 3) swaps are made.
    """
    r = validate(word)
    if _contains_321(r):
        raise InvalidInputError(f"{r} contains 321")
    steps: list[TripleIndex] = []
    if _contains_12231(r):  # else no swap is needed
        w = list(r)
        for t in _swap_repeat_231s(w):
            if steps and not steps[-1] < t:
                raise MalformedInputError(f"triple {t} did not increase above {steps[-1]}")
            steps.append(t)
        r = validate(w)
    return (r, steps) if with_steps else r
