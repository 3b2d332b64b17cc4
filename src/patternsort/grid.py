"""Grid decomposition by left-to-right minima, and the recursive generator.

A permutation splits along its ltr-minima m_1 > ... > m_k: block B_j
holds the non-minima positioned between m_j and the next minimum,
horizontal strip H_i holds the values strictly between m_i and m_{i-1}
(with m_0 infinite), and cell C_{i,j} is their intersection.  The core
is the word of non-minima.  All of it is read off the strip word, the
row of each entry in position order.  For sortable permutations the
last column carries a notion of active cells, and appending one new
element per active cell (plus a brand new minimum) generates every
sortable permutation of the next length exactly once.  GrowthState
carries just what such a step needs, in place: the value order as a
linked list over positions (every insertion lands directly above its
pivot, so no existing entry changes), the ltr-minima and the last column
as positions, and the floor of the active cells, kept up to date as
entries arrive.  A step costs amortised O(1) instead of a fresh
decomposition, and the permutation, its minima and its last column are
read off the list only when asked for.
"""

from __future__ import annotations

from collections import Counter
from math import inf
from typing import Iterable, NamedTuple

from .errors import InsertRejected, InvalidInputError, check_size
from .machine import DEFAULT_PERM_CAP, is_sigma_sortable
from .perms import Perm, _contains_231, as_perm, ltr_minima


class GridDecomposition(NamedTuple):
    perm: Perm
    minima: tuple[tuple[int, int], ...]  # (position, value), values decreasing
    blocks: tuple[Perm, ...]  # B_1..B_k, values in position order
    hstrips: tuple[Perm, ...]  # H_1..H_k, values in position order
    cells: dict[tuple[int, int], Perm]  # nonempty only
    core: Perm

    @property
    def k(self) -> int:
        return len(self.minima)

    @property
    def minima_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.minima)

    def describe(self) -> list[str]:
        """One line per horizontal strip, nonempty cells delimited."""
        parts: list[list[str]] = [[] for _ in range(self.k)]
        for (i, j), c in sorted(self.cells.items()):
            parts[i - 1].append(f"C({i},{j})=" + ",".join([str(v) for v in c]))
        mv = self.minima_values
        lines = []
        for i, row in enumerate(parts, 1):
            top = "inf" if i == 1 else str(mv[i - 2])
            span = f"({mv[i - 1]}..{top})"
            lines.append(f"row {i} {span}: " + (" | ".join(row) or "(no cells)"))
        return lines


def strip_word(p: Perm) -> tuple[int, ...]:
    """The row of each entry of a permutation, in position order.

    Entry x sits in row 1 + #{ltr-minima above x}, which one sweep down
    the values counts.  The word is an RGF: the j-th ltr-minimum is the
    first letter j, so an entry's block is the running maximum.
    """
    low = len(p) + 1
    is_min = [False] * low
    for x in p:
        if x < low:
            is_min[x] = True
            low = x
    row = [0] * len(is_min)
    above = 0  # ltr-minima above the current value
    for v in range(len(p), 0, -1):
        row[v] = above + 1
        above += is_min[v]
    return tuple(row[x] for x in p)


def decompose(pi: Iterable[int]) -> GridDecomposition:
    p = as_perm(pi)
    if not p:
        raise InvalidInputError("cannot decompose the empty permutation")
    w = strip_word(p)
    minima: list[tuple[int, int]] = []
    blocks: list[list[int]] = [[] for _ in range(max(w))]
    hstrips: list[list[int]] = [[] for _ in blocks]
    cells: dict[tuple[int, int], list[int]] = {}
    for q, (x, i) in enumerate(zip(p, w), start=1):
        j = len(minima)  # the block so far, the running maximum of w
        if i > j:  # a first letter i is the i-th minimum
            minima.append((q, x))
            continue
        blocks[j - 1].append(x)
        hstrips[i - 1].append(x)
        cells.setdefault((i, j), []).append(x)
    return GridDecomposition(
        p,
        tuple(minima),
        tuple(tuple(b) for b in blocks),
        tuple(tuple(h) for h in hstrips),
        {c: tuple(v) for c, v in cells.items()},
        tuple(x for b in blocks for x in b),  # blocks run in position order
    )


class StructuralReport(NamedTuple):
    """Outcome of each necessary condition; passing all of them does not
    imply sortability."""

    conditions: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.conditions)

    def failures(self) -> list[str]:
        return [name for name, ok in self.conditions if not ok]


def _is_colayered_word(w: Perm) -> bool:
    """w, of distinct letters, avoids 213 and 132: each maximal increasing
    run lies below the first letter of the run before it."""
    bound = head = inf  # bound: the first letter of the run before
    for u, v in zip((inf, *w), w):
        if v < u:  # v starts a run
            bound, head = head, v
        if v > bound:
            return False
    return True


def structural_check(pi: Iterable[int]) -> StructuralReport:
    """Evaluate the necessary conditions for 132-sortability independently.

    Each condition is one scan.  Comparing each nonempty block with the
    next, and each cell's column with the previous one read row by row,
    chains to every later block and row.  The 213 test runs the 231 scan
    on the core's complement.
    """
    p = tuple(pi)
    if not p:
        return StructuralReport((("nonempty", True),))
    d = decompose(p)  # validates p

    blocks = [b for b in d.blocks if b]
    block_order = all(min(b) > max(c) for b, c in zip(blocks, blocks[1:]))
    cols = [j for _, j in sorted(d.cells)]
    no_switch = all(a <= b for a, b in zip(cols, cols[1:]))
    cells_colayered = all(_is_colayered_word(c) for c in d.cells.values())
    strips_colayered = all(_is_colayered_word(h) for h in d.hstrips)
    top = max(d.core, default=0) + 1
    core_ok = not _contains_231(tuple(top - v for v in d.core))

    return StructuralReport(
        (
            ("block-ordering", block_order),
            ("no-switch", no_switch),
            ("cells-colayered", cells_colayered),
            ("strips-colayered", strips_colayered),
            ("core-avoids-213", core_ok),
        )
    )


def _sortable(pi: Iterable[int]) -> Perm:
    """pi as a tuple, checked to be a 132-sortable permutation."""
    p = tuple(pi)
    if not is_sigma_sortable(p, (1, 3, 2)):  # validates p
        raise InvalidInputError(f"{p} is not sortable")
    return p


class InsertionKind(NamedTuple):
    """One of "new-min", "min" (cell i), "cons" (cell i); cell indices
    refer to the last column."""

    kind: str
    cell: int | None = None


class GrowthState:
    """What one step of the generating tree needs to know about a sortable
    permutation, kept up to date in place at amortised O(1) per entry.

    Entries are named by their positions, which an insertion never moves.
    Every insertion puts the new entry directly above its pivot in value
    order, and a new minimum goes at the bottom, so the value order is a
    linked list: ``_up[e]`` is the entry just above e, or -1 for the
    top.  The ltr-minima are kept as positions; the last of them is the
    bottom of the list, and the last column C_{., k} is the run of
    positions after it.  An entry's row is fixed when it is appended.
    ``high`` is the highest row index used by a non-minimum outside the
    last column (0 if none).

    The active cells are the rows from ``_floor`` up to k.  A column opens
    with the floor at max(1, high); it then rises to the row of each
    last-column entry that a smaller one follows.  ``_stack`` holds the
    occupied last-column rows r >= floor, the largest at the bottom and
    the row of the latest entry on top, and ``_cells`` maps each occupied
    row to its latest entry, the pivot of a consecutive insertion.

    ``perm``, ``minima`` and ``last`` are views, read off the list when
    asked for.
    """

    __slots__ = ("_up", "_minima", "high", "_floor", "_stack", "_cells")

    def __init__(self) -> None:
        """The state of the empty permutation."""
        self._up: list[int] = []
        self._minima: list[int] = []
        self.high = 0
        self._floor = 1
        self._stack: list[int] = []
        self._cells: dict[int, int] = {}

    @classmethod
    def of(cls, p: Perm) -> GrowthState:
        """The state of a permutation, read in one left-to-right pass."""
        s = cls()
        at = [0] * len(p)  # at[v - 1]: the position of value v
        for x, v in enumerate(p):
            at[v - 1] = x
        s._up = up = [-1] * len(p)
        for a, b in zip(at, at[1:]):
            up[a] = b
        for x, i in enumerate(strip_word(p)):
            if i > len(s._minima):  # a first letter i is the i-th minimum
                s._open(x)
            else:
                s._place(x, i)
        return s

    @property
    def perm(self) -> Perm:
        """The permutation, read off the value order."""
        up = self._up
        value = [0] * len(up)
        e = self._minima[-1] if up else 0  # the bottom
        for v in range(1, len(up) + 1):
            value[e] = v
            e = up[e]
        return tuple(value)

    @property
    def minima(self) -> tuple[int, ...]:
        """The ltr-minima values m_1 > ... > m_k."""
        p = self.perm
        return tuple(p[x] for x in self._minima)

    @property
    def last(self) -> tuple[tuple[int, int], ...]:
        """The (value, row) pairs of the last column, in position order."""
        p = self.perm
        start = self._minima[-1] + 1 if p else 0
        return tuple(zip(p[start:], strip_word(p)[start:]))

    def active(self) -> range:
        """Rows i of the last column where an insertion stays sortable.

        Cell (i, k) is active when no non-minimum outside the last column
        sits below row i and the last-column entries below row i increase.
        Both conditions only get easier as i grows, so the active cells
        are the rows from a floor up to k.
        """
        return range(self._floor, len(self._minima) + 1)

    def _inactive(self, i: int) -> InsertRejected:
        return InsertRejected("inactive", f"cell ({i},{len(self._minima)}) is not active")

    def _open(self, x: int) -> None:
        """Make entry x the last ltr-minimum, with an empty last column."""
        if self._stack:  # its bottom is the largest occupied row
            self.high = max(self.high, self._stack[0])
        self._minima.append(x)
        self._stack = []
        self._cells = {}
        self._floor = max(1, self.high)

    def _place(self, x: int, i: int) -> None:
        """Make entry x the latest of last-column row i.

        Every earlier last-column entry in a row r < i is above x, so it
        is now followed by a smaller one, and the floor rises to the
        largest such r.  Row i itself needs no test.  The first entry
        placed below another of its cell is a cell-minimum insertion (a
        consecutive one lands directly above the cell's latest entry), and
        that comes only after an entry in a lower row r > i, whose
        placement already raised the floor to i.
        """
        self._cells[i] = x
        stack = self._stack
        while stack and stack[-1] < i:
            self._floor = stack.pop()  # each pop is larger, none below the floor
        if not stack or stack[-1] > i:
            stack.append(i)

    def _step(self, i: int) -> str:
        """Append one entry in row i, in place, and name the insertion.

        Row k + 1 is a new minimum, at the bottom of the value order.  Any
        other row must be active, and gets its one legal insertion: the
        successor of the cell's latest entry ("cons") when the cell is
        nonempty and the permutation's last entry sits in row i or above,
        and a new smallest entry of the cell ("min") otherwise.  The new
        entry goes directly above that pivot.
        """
        up = self._up
        x = len(up)
        minima = self._minima
        k = len(minima)
        if i == k + 1:
            up.append(minima[-1] if k else -1)
            self._open(x)
            return "new-min"
        if not self._floor <= i <= k:
            raise self._inactive(i)
        pivot = self._cells.get(i)
        if pivot is not None and self._stack[-1] <= i:  # the latest entry's row
            legal = "cons"
        else:
            legal, pivot = "min", minima[i - 1]
        up.append(up[pivot])
        up[pivot] = x
        self._place(x, i)
        return legal

    def _child(self, i: int) -> tuple[str, GrowthState]:
        """A copy of this state grown by one entry in row i, and the
        insertion made."""
        c = GrowthState.__new__(GrowthState)
        c._up = self._up[:]
        c._minima = self._minima[:]
        c.high = self.high
        c._floor = self._floor
        c._stack = self._stack[:]
        c._cells = self._cells.copy()
        return c._step(i), c

    def new_min(self) -> GrowthState:
        """Append a new smallest entry, which opens an empty last column."""
        return self._child(len(self._minima) + 1)[1]

    def insert(self, i: int, kind: str | None = None) -> GrowthState:
        """The child grown in cell (i, k) by its one legal insertion.

        ``kind`` ("min" or "cons") demands that insertion: the other one
        is rejected with the reason it is not legal.
        """
        if i not in self.active():
            raise self._inactive(i)
        legal, c = self._child(i)
        if kind is not None and kind != legal:
            k = len(self._minima)
            row = self._stack[-1] if self._stack else k  # the latest entry's row
            if legal == "cons":
                raise InsertRejected("illegal-op", f"last entry sits in row {row} <= {i}")
            if i not in self._cells:
                raise InsertRejected("empty-cell", f"cell ({i},{k}) is empty")
            raise InsertRejected("illegal-op", f"last entry sits in row {row} > {i}")
        return c

    def children(self) -> list[tuple[InsertionKind, GrowthState]]:
        """The new minimum plus the single legal insertion per active cell."""
        out = [(InsertionKind("new-min"), self.new_min())]
        for i in self.active():
            legal, c = self._child(i)
            out.append((InsertionKind(legal, i), c))
        return out


def _state(pi: Iterable[int]) -> GrowthState:
    """The state of a validated, sortable, nonempty permutation."""
    p = _sortable(pi)
    if not p:
        raise InvalidInputError("the empty permutation has no cells")
    return GrowthState.of(p)


def active_cells(pi: Iterable[int]) -> set[int]:
    """Rows i of the last column where an insertion can stay sortable."""
    return set(_state(pi).active())


def insert_new_minimum(pi: Iterable[int]) -> Perm:
    return GrowthState.of(_sortable(pi)).new_min().perm


def insert_min(pi: Iterable[int], i: int) -> Perm:
    """Append a new smallest element of cell (i, k)."""
    return _state(pi).insert(i, "min").perm


def insert_cons(pi: Iterable[int], i: int) -> Perm:
    """Append the successor of the last element of cell (i, k)."""
    return _state(pi).insert(i, "cons").perm


def children(pi: Iterable[int]) -> list[tuple[InsertionKind, Perm]]:
    """The new minimum plus the single legal insertion per active cell."""
    return [(kind, s.perm) for kind, s in _state(pi).children()]


def generate_sortable(n: int, cap: int = DEFAULT_PERM_CAP) -> list[Perm]:
    """Sort_n(132) grown depth first from the empty permutation.

    Only the states on the current path and their waiting siblings are
    alive at any time, so a whole level of states never has to be held
    (or scanned by the garbage collector).
    """
    check_size(n, cap, f"generation at n={n}")
    todo = [GrowthState()]
    out: list[Perm] = []
    while todo:
        s = todo.pop()
        if len(s._up) == n:
            out.append(s.perm)
        else:
            todo.extend(c for _, c in s.children())
    out.sort()
    return out


def minima_distribution(n: int, cap: int = DEFAULT_PERM_CAP) -> Counter[int]:
    """How many sortable permutations of length n have each ltr-minima count."""
    return Counter(len(ltr_minima(p)) for p in generate_sortable(n, cap))
