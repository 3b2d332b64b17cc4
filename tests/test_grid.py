import random

import pytest

from patternsort.bijections import rgf_to_sortable, sortable_to_rgf
from patternsort.errors import InsertRejected, InvalidInputError
from patternsort.grid import (
    GridDecomposition,
    GrowthState,
    StructuralReport,
    active_cells,
    children,
    decompose,
    decomposition_lines,
    generate_sortable,
    insert_cons,
    insert_min,
    insert_new_minimum,
    minima_distribution,
    strip_word,
    structural_check,
)
from patternsort.machine import enumerate_sortable, is_sigma_sortable
from patternsort.perms import all_perms, avoids, ltr_minima, standardize
from patternsort.rgf import enumerate_avoiders

WORKED = (13, 14, 15, 10, 12, 6, 7, 8, 11, 9, 3, 1, 4, 5, 2)


def test_strip_word_counts_minima_above():
    for n in range(8):
        for p in all_perms(n):
            w = strip_word(p)
            mv = [v for _, v in ltr_minima(p)]
            assert w == tuple(1 + sum(m > x for m in mv) for x in p)
            # first occurrences fall exactly at the minima
            firsts = [q for q, j in enumerate(w, start=1) if j not in w[: q - 1]]
            assert firsts == [q for q, _ in ltr_minima(p)]


def test_worked_decomposition():
    d = decompose(WORKED)
    assert d.minima_values == (13, 10, 6, 3, 1)
    assert d.k == 5
    assert d.cells[(1, 1)] == (14, 15)
    assert d.cells[(2, 2)] == (12,)
    assert d.cells[(2, 3)] == (11,)
    assert d.cells[(3, 3)] == (7, 8, 9)
    assert d.cells[(4, 5)] == (4, 5)
    assert d.cells[(5, 5)] == (2,)
    assert (1, 2) not in d.cells
    # cells below the diagonal are structurally empty
    with_lower = [(i, j) for (i, j) in d.cells if i > j]
    assert not with_lower
    assert standardize(d.core) == (9, 10, 8, 4, 5, 7, 6, 2, 3, 1)
    assert standardize(d.hstrips[1]) == (2, 1)
    assert standardize(d.cells[(3, 3)]) == (1, 2, 3)


def test_describe_lines():
    text = decompose(WORKED).describe()
    assert text[0] == "row 1 (13..inf): C(1,1)=14,15"
    assert text[1] == "row 2 (10..13): C(2,2)=12 | C(2,3)=11"


def test_reconstruction():
    for n in range(1, 8):
        for p in all_perms(n):
            d = decompose(p)
            rebuilt = []
            for (pos, val), block in zip(d.minima, d.blocks):
                rebuilt.append(val)
                rebuilt.extend(block)
            assert tuple(rebuilt) == p, p


def _decompose_reference(p):
    """decompose as one loop over the strip word, a setdefault per entry."""
    w = strip_word(p)
    minima = []
    blocks = [[] for _ in range(max(w))]
    hstrips = [[] for _ in blocks]
    cells = {}
    for q, (x, i) in enumerate(zip(p, w), start=1):
        j = len(minima)
        if i > j:
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
        tuple(x for b in blocks for x in b),
    )


def _describe_reference(d):
    parts = [[] for _ in range(d.k)]
    for (i, j), c in sorted(d.cells.items()):
        parts[i - 1].append(f"C({i},{j})=" + ",".join(map(str, c)))
    mv = d.minima_values
    lines = []
    for i, row in enumerate(parts, 1):
        top = "inf" if i == 1 else str(mv[i - 2])
        lines.append(f"row {i} ({mv[i - 1]}..{top}): " + (" | ".join(row) or "(no cells)"))
    return lines


def test_decompose_matches_the_reference():
    rng = random.Random(48300)
    perms = [p for n in range(1, 8) for p in all_perms(n)]
    perms += [tuple(rng.sample(range(1, n + 1), n)) for n in (48, 300) for _ in range(30)]
    for n in (48, 300):  # sortables, whose cells are fuller
        s = GrowthState()
        for _ in range(n):
            _, s = rng.choice(s.children())
        perms.append(s.perm)
    # letters past 255, in many cells
    perms.append(tuple(v for b in range(40, 0, -1) for v in range(8 * b - 7, 8 * b + 1)))
    for p in perms:
        d, ref = decompose(p), _decompose_reference(p)
        assert d == ref, p
        assert list(d.cells) == list(ref.cells), p  # first appearance
        assert d.describe() == _describe_reference(ref), p
        # the one-pass text of the decompose verb, which builds no decomposition
        assert decomposition_lines(p) == [
            "minima: " + " ".join(map(str, ref.minima_values)),
            "core: " + (" ".join(map(str, ref.core)) or "(empty)"),
            *_describe_reference(ref),
        ], p
        # describe reads cells in (row, column) order, whatever the dict's order
        shuffled = d._replace(cells=dict(reversed(d.cells.items())))
        assert shuffled.describe() == _describe_reference(ref), p


def test_structural_check_examples():
    rep = structural_check((2, 3, 1, 4))
    assert not rep.passed and "block-ordering" in rep.failures()
    # 132 satisfies every listed condition yet the machine rejects it
    rep132 = structural_check((1, 3, 2))
    assert rep132.passed
    assert not is_sigma_sortable((1, 3, 2))


def test_structural_necessary_on_sortables():
    for n in range(1, 8):
        for p in enumerate_sortable(n, (1, 3, 2)):
            assert structural_check(p).passed, p


def _reference_structural_check(p):
    """The structural conditions as first written: every pair of blocks,
    every pair of cells, and the pattern matcher on every word."""
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
    no_switch = not any(
        (u, v) in d.cells
        for (i, j) in d.cells
        for u in range(1, i)
        for v in range(j + 1, k + 1)
    )

    def colayered(w):
        return avoids(w, (2, 1, 3), (1, 3, 2))

    return StructuralReport(
        (
            ("block-ordering", block_order),
            ("no-switch", no_switch),
            ("cells-colayered", all(colayered(c) for c in d.cells.values())),
            ("strips-colayered", all(colayered(h) for h in d.hstrips)),
            ("core-avoids-213", avoids(d.core, (2, 1, 3))),
        )
    )


def test_structural_check_matches_reference():
    for n in range(8):
        for p in all_perms(n):
            assert structural_check(p) == _reference_structural_check(p), p
    rng = random.Random(60)
    for _ in range(5):
        # every prefix of a seeded walk, and a shuffle of each length
        p = (1,)
        while len(p) < 60:
            _, p = rng.choice(children(p))
            assert structural_check(p) == _reference_structural_check(p), p
            q = tuple(rng.sample(range(1, len(p) + 1), len(p)))
            assert structural_check(q) == _reference_structural_check(q), q


def test_active_cells_small():
    assert active_cells((1,)) == {1}
    assert active_cells((1, 2)) == {1}
    assert active_cells((2, 1)) == {1, 2}
    with pytest.raises(InvalidInputError):
        active_cells((1, 3, 2))


def test_active_cells_blocked_example():
    # cell 1 fails the increasing condition, cells 2 and 3 are active
    assert active_cells((5, 6, 3, 1, 4, 2)) == {2, 3}


def test_insertions_on_blocked_example():
    p = (5, 6, 3, 1, 4, 2)
    assert insert_min(p, 2) == (6, 7, 3, 1, 5, 2, 4)
    assert insert_cons(p, 3) == (6, 7, 4, 1, 5, 2, 3)
    with pytest.raises(InsertRejected) as e:
        insert_min(p, 1)
    assert e.value.reason == "inactive"
    with pytest.raises(InsertRejected) as e:
        insert_cons(p, 2)
    assert e.value.reason == "illegal-op"


def test_insertion_small_examples():
    assert insert_new_minimum((1,)) == (2, 1)
    assert insert_cons((1, 2), 1) == (1, 2, 3)
    with pytest.raises(InsertRejected) as e:
        insert_min((1, 2), 1)
    assert e.value.reason == "illegal-op"
    with pytest.raises(InsertRejected) as e:
        insert_cons((2, 1), 1)
    assert e.value.reason == "empty-cell"




def test_minima_distribution_small():
    assert minima_distribution(3) == {1: 1, 2: 3, 3: 1}
    assert sum(minima_distribution(5).values()) == 51


def _reference_active_cells(p):
    """The decompose-based active-cell rule that the growth state replaced."""
    d = decompose(p)
    k = d.k
    mval = d.minima_values
    last_block = d.blocks[k - 1]

    active = set()
    for i in range(1, k + 1):
        below_left = any(
            (u, v) in d.cells
            for u in range(i + 1, k + 1)
            for v in range(1, k)
        )
        if below_left:
            continue
        under = [v for v in last_block if v < mval[i - 1]]
        if all(a < b for a, b in zip(under, under[1:])):
            active.add(i)
    return active


def _append(p, v):
    """p followed by a new entry of value v."""
    return tuple(x + 1 if x >= v else x for x in p) + (v,)


def _fields(s):
    return s.perm, s.minima, s.last, s.high, s.active()


def test_growth_state_matches_reference():
    for n in range(1, 9):
        for p in enumerate_sortable(n, (1, 3, 2)):
            s = GrowthState.of(p)
            assert set(s.active()) == _reference_active_cells(p), p
            kids = s.children()
            # the children are exactly the sortable one-entry extensions
            extensions = sorted(
                q for q in (_append(p, v) for v in range(1, n + 2)) if is_sigma_sortable(q)
            )
            assert sorted(c.perm for _, c in kids) == extensions, p
            assert [kind.cell for kind, _ in kids] == [None, *s.active()], p
            for kind, c in kids:
                # the incremental state, floor included, equals the one read
                # from scratch
                assert _fields(c) == _fields(GrowthState.of(c.perm)), (p, kind)
                v = c.perm[-1]
                if kind.kind == "new-min":
                    assert v == 1
                else:
                    assert c.last[-1][1] == kind.cell
                    assert (v - 1 in c.minima) == (kind.kind == "min"), (p, kind)


def test_seeded_walk_round_trips_at_length_200():
    rng = random.Random(200)
    p = (1,)
    kinds = set()
    while len(p) < 200:
        kind, p = rng.choice(children(p))
        kinds.add(kind.kind)
    assert kinds == {"new-min", "min", "cons"}
    assert is_sigma_sortable(p)
    assert rgf_to_sortable(sortable_to_rgf(p)) == p


def test_generate_sortable_reads_each_leaf_off_its_parent():
    # the leaf read at n = 10 against phi-inverse of the 12231-avoiders; the
    # grid-generator-equivalence check is the brute-force oracle up to n = 8
    level = generate_sortable(10)
    assert len(level) == 51822
    assert all(a < b for a, b in zip(level, level[1:]))
    assert level == sorted(map(rgf_to_sortable, enumerate_avoiders(10, (1, 2, 2, 3, 1))))
