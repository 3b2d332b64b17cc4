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
carries just what such a step needs, so growing a permutation costs O(n)
per entry instead of a fresh decomposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import InsertRejected, InvalidInputError, ResourceLimitError
from .machine import DEFAULT_PERM_CAP, is_sigma_sortable
from .perms import Perm, as_perm, avoids, ltr_minima


@dataclass(frozen=True)
class GridDecomposition:
    perm: Perm
    minima: tuple[tuple[int, int], ...]  # (position, value), values decreasing
    blocks: tuple[Perm, ...]  # B_1..B_k, values in position order
    hstrips: tuple[Perm, ...]  # H_1..H_k, values in position order
    cells: dict[tuple[int, int], Perm] = field(default_factory=dict)  # nonempty only
    core: Perm = ()

    @property
    def k(self) -> int:
        return len(self.minima)

    @property
    def minima_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.minima)

    def describe(self) -> list[str]:
        """One line per horizontal strip, nonempty cells delimited."""
        mv = self.minima_values
        lines = []
        for i in range(1, self.k + 1):
            top = "inf" if i == 1 else str(mv[i - 2])
            span = f"({mv[i - 1]}..{top})"
            parts = [
                f"C({i},{j})=" + ",".join(str(v) for v in self.cells[(i, j)])
                for j in range(1, self.k + 1)
                if (i, j) in self.cells
            ]
            lines.append(f"row {i} {span}: " + (" | ".join(parts) or "(no cells)"))
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
    cells: dict[tuple[int, int], Perm] = {}
    for q, (x, i) in enumerate(zip(p, w), start=1):
        j = len(minima)  # the block so far, the running maximum of w
        if i > j:  # a first letter i is the i-th minimum
            minima.append((q, x))
            continue
        blocks[j - 1].append(x)
        hstrips[i - 1].append(x)
        cells[(i, j)] = cells.get((i, j), ()) + (x,)
    return GridDecomposition(
        p,
        tuple(minima),
        tuple(tuple(b) for b in blocks),
        tuple(tuple(h) for h in hstrips),
        cells,
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
    return avoids(w, (2, 1, 3), (1, 3, 2))


def structural_check(pi: Iterable[int]) -> StructuralReport:
    """Evaluate the necessary conditions for 132-sortability independently."""
    p = as_perm(pi)
    if not p:
        return StructuralReport((("nonempty", True),))
    d = decompose(p)
    k = d.k

    block_order = all(
        x > y
        for i in range(k)
        for j in range(i + 1, k)
        for x in d.blocks[i]
        for y in d.blocks[j]
    )

    no_switch = True
    for (i, j) in d.cells:
        if any((u, v) in d.cells for u in range(1, i) for v in range(j + 1, k + 1)):
            no_switch = False
            break

    cells_colayered = all(_is_colayered_word(c) for c in d.cells.values())
    strips_colayered = all(_is_colayered_word(h) for h in d.hstrips)
    core_ok = avoids(d.core, (2, 1, 3))

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
    permutation, kept up to date in O(n) per insertion.

    ``minima`` are the ltr-minima values m_1 > ... > m_k, ``last`` the
    (value, row) pairs of the last column C_{., k} in position order, and
    ``high`` the highest row index used by a non-minimum outside the last
    column (0 if none).  An insertion never changes the row of an existing
    entry, so rows are computed once, when the entry is appended.
    """

    __slots__ = ("perm", "minima", "last", "high")

    def __init__(
        self,
        perm: Perm = (),
        minima: tuple[int, ...] = (),
        last: tuple[tuple[int, int], ...] = (),
        high: int = 0,
    ) -> None:
        self.perm = perm
        self.minima = minima
        self.last = last
        self.high = high

    @classmethod
    def of(cls, p: Perm) -> GrowthState:
        """The state of a permutation, read in one left-to-right pass."""
        minima: list[int] = []
        last: list[tuple[int, int]] = []
        high = 0
        for x, i in zip(p, strip_word(p)):
            if i > len(minima):  # a first letter i is the i-th minimum
                high = max([high, *(r for _, r in last)])
                minima.append(x)
                last = []
            else:
                last.append((x, i))
        return cls(tuple(p), tuple(minima), tuple(last), high)

    def active(self) -> range:
        """Rows i of the last column where an insertion stays sortable.

        Cell (i, k) is active when no non-minimum outside the last column
        sits below row i and the last-column entries below row i increase.
        Both conditions only get easier as i grows, so the active cells
        are the rows from a floor up to k.
        """
        floor = max(1, self.high)
        smallest = None
        for v, r in reversed(self.last):
            if smallest is not None and v > smallest:
                floor = max(floor, r)  # a later, smaller entry sits in a row >= r
            else:
                smallest = v
        return range(floor, len(self.minima) + 1)

    def _legal(self, i: int) -> tuple[str, int]:
        """The one legal insertion into active cell (i, k) and its pivot.

        It is the successor of the cell's last entry ("cons") when the cell
        is nonempty and the permutation's last entry sits in row i or
        above, and a new smallest entry of the cell ("min") otherwise.
        """
        if self._last_row() <= i:
            for v, r in reversed(self.last):
                if r == i:
                    return "cons", v
        return "min", self.minima[i - 1]

    def _last_row(self) -> int:
        return self.last[-1][1] if self.last else len(self.minima)

    def _grow(self, pivot: int, row: int) -> GrowthState:
        """Append pivot + 1 in ``row``, shifting every value above pivot."""
        return GrowthState(
            tuple([x + 1 if x > pivot else x for x in self.perm]) + (pivot + 1,),
            tuple([m + 1 if m > pivot else m for m in self.minima]),
            tuple([(v + 1 if v > pivot else v, r) for v, r in self.last])
            + ((pivot + 1, row),),
            self.high,
        )

    def new_min(self) -> GrowthState:
        """Append a new smallest entry, which opens an empty last column."""
        return GrowthState(
            tuple([x + 1 for x in self.perm]) + (1,),
            tuple([m + 1 for m in self.minima]) + (1,),
            (),
            max([self.high, *(r for _, r in self.last)]),
        )

    def insert(self, i: int, kind: str | None = None) -> GrowthState:
        """The child grown in cell (i, k) by its one legal insertion.

        ``kind`` ("min" or "cons") demands that insertion: the other one
        is rejected with the reason it is not legal.
        """
        k = len(self.minima)
        if i not in self.active():
            raise InsertRejected("inactive", f"cell ({i},{k}) is not active")
        legal, pivot = self._legal(i)
        if kind is not None and kind != legal:
            row = self._last_row()
            if legal == "cons":
                raise InsertRejected("illegal-op", f"last entry sits in row {row} <= {i}")
            if all(r != i for _, r in self.last):
                raise InsertRejected("empty-cell", f"cell ({i},{k}) is empty")
            raise InsertRejected("illegal-op", f"last entry sits in row {row} > {i}")
        return self._grow(pivot, i)

    def children(self) -> list[tuple[InsertionKind, GrowthState]]:
        """The new minimum plus the single legal insertion per active cell."""
        out = [(InsertionKind("new-min"), self.new_min())]
        for i in self.active():
            legal, pivot = self._legal(i)
            out.append((InsertionKind(legal, i), self._grow(pivot, i)))
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
    """Sort_n(132) grown level by level from the one-element permutation."""
    if n < 0:
        raise InvalidInputError("length must be nonnegative")
    if n > cap:
        raise ResourceLimitError(f"refusing generation at n={n} (cap {cap})")
    if n == 0:
        return [()]
    level = [GrowthState().new_min()]
    for _ in range(n - 1):
        level = [c for s in level for _, c in s.children()]
    return sorted(s.perm for s in level)


def minima_distribution(n: int, cap: int = DEFAULT_PERM_CAP) -> Counter[int]:
    """How many sortable permutations of length n have each ltr-minima count."""
    return Counter(len(ltr_minima(p)) for p in generate_sortable(n, cap))
