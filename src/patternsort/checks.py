"""Named exhaustive checks behind the verify command.

Each registry row names one claim, its scope, the largest size it is
checked at and the detail it reports when it holds.  A run clamps that
bound to the requested nmax, reports pass/fail with a minimal
counterexample, and never mutates shared state.  Scopes: machine
(includes the permutation-core checks), grid, rgf, bijections, sequences.

Most claims take one of three shapes, each one loop over the sizes from
``start`` to the bound:

- ``_every(family, test, show, start)``: ``test(x)`` holds for every x in
  ``family(n)``; the counterexample is ``show(x)``;
- ``_counts(count, want, start, label)``: ``count(n) == want(n)``, where
  both may be lists; the counterexample is ``label=n: got vs want``;
- ``_bijection(domain, codomain, f, g, stats, show, start)``: f maps
  ``domain(n)`` onto ``codomain(n)``, ``g(f(x)) == x``, and
  ``s(x) == t(f(x))`` for each statistic pair ``(s, t)``.

A row may run several shapes in turn with ``_all``.  Five claims are not
one loop over sizes and stay plain functions of the bound: two read the
report of ``machine.verify_characterizations``, the tree's children grow
each level from the one before, and the 132 admission and the continued
fractions are fixed cases.  Every row looks each library function up when
it runs (``lambda r: bijections.f(r)``, never the bare ``bijections.f``),
so a patched library is the one that gets checked, and builds nothing
when this module is imported, which ``verify`` and ``run_checks`` do on
first use.

The minimal counterexample is the first failure in size order, then in
the order the family is enumerated; in a row of several parts, it comes
from the first part that fails.  A check whose library call raises fails
alone, with the exception in place of the counterexample.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial
from itertools import permutations, product
from typing import Any, Callable, Iterable, NamedTuple

from . import _SCOPES as SCOPES, bijections, grid, machine, paths, perms, rgf, sequences
from .errors import InvalidInputError
from .perms import Perm

WILF_ELEVEN = (
    (1, 2, 1, 2, 3),
    (1, 2, 1, 3, 2),
    (1, 2, 1, 3, 4),
    (1, 2, 2, 1, 3),
    (1, 2, 2, 3, 1),
    (1, 2, 2, 3, 4),
    (1, 2, 3, 1, 2),
    (1, 2, 3, 2, 1),
    (1, 2, 3, 2, 3),
    (1, 2, 3, 3, 1),
    (1, 2, 3, 3, 2),
)

# the two members whose maximum statistic is distributed differently
MAX_EQUIDISTRIBUTED_NINE = tuple(
    q for q in WILF_ELEVEN if q not in ((1, 2, 1, 3, 4), (1, 2, 2, 3, 4))
)

# the patterns whose listing is compared with the naive filter, 1221 and 12231 by rgf._TREES
_PRUNED = ((1, 2, 2, 1), (1, 2, 2, 3, 1), (1, 2, 3, 2, 1), (1, 2, 1, 2))

# the patterns of rgf._contains_1221, _contains_12231, _contains_12332, _contains_12323
_RGF_SCANNED = ((1, 2, 2, 1), (1, 2, 2, 3, 1), (1, 2, 3, 3, 2), (1, 2, 3, 2, 3))

_Run = Callable[[int], None]


class CheckResult(NamedTuple):
    name: str
    scope: str
    passed: bool
    detail: str
    seconds: float
    counterexample: str | None = None


class _Fail(Exception):
    def __init__(self, counterexample: str):
        self.counterexample = counterexample
        super().__init__(counterexample)


class Check(NamedTuple):
    """One claim, checked exhaustively at every size up to ``bound``.

    ``detail`` is reported when the claim holds, formatted with the
    clamped ``bound`` and with ``bound1`` = bound + 1.
    """

    name: str
    scope: str
    bound: int
    detail: str
    fn: _Run

    def run(self, nmax: int) -> CheckResult:
        """Run at sizes up to min(bound, nmax); an exception fails the check."""
        start = time.perf_counter()
        bound = min(self.bound, nmax)
        try:
            self.fn(bound)
            detail, counterexample = self.detail.format(bound=bound, bound1=bound + 1), None
        except _Fail as f:
            detail, counterexample = "counterexample found", f.counterexample
        except Exception as exc:  # fails this check alone; the others still run
            detail, counterexample = "raised an exception", f"{type(exc).__name__}: {exc}"
        return CheckResult(
            self.name,
            self.scope,
            counterexample is None,
            detail,
            time.perf_counter() - start,
            counterexample,
        )


# -- the three shapes --------------------------------------------------------

def _perm(p: Perm) -> str:
    return perms.format_perm(p)


def _word(r: tuple[int, ...]) -> str:
    return rgf.format_rgf(r)


def _every(
    family: Callable[[int], Iterable[Any]],
    test: Callable[[Any], Any],
    show: Callable[[Any], str] = _perm,
    start: int = 1,
) -> _Run:
    """test(x) holds for every x in family(n), start <= n <= bound."""

    def run(bound: int) -> None:
        for n in range(start, bound + 1):
            for x in family(n):
                if not test(x):
                    raise _Fail(show(x))

    return run


def _counts(
    count: Callable[[int], Any], want: Callable[[int], Any], start: int = 1, label: str = "n"
) -> _Run:
    """count(n) == want(n) at every size from start to the bound."""

    def run(bound: int) -> None:
        for n in range(start, bound + 1):
            got, expected = count(n), want(n)
            if got != expected:
                raise _Fail(f"{label}={n}: {got} vs {expected}")

    return run


def _bijection(
    domain: Callable[[int], Iterable[Any]],
    codomain: Callable[[int], Iterable[Any]],
    f: Callable[[Any], Any],
    g: Callable[[Any], Any],
    stats: tuple[tuple[Callable[[Any], Any], Callable[[Any], Any]], ...] = (),
    show: Callable[[Any], str] = _word,
    start: int = 1,
) -> _Run:
    """f maps domain(n) onto codomain(n), g undoes it, and each s(x) == t(f(x))."""

    def run(bound: int) -> None:
        for n in range(start, bound + 1):
            image = set()
            for x in domain(n):
                y = f(x)
                if g(y) != x or any(s(x) != t(y) for s, t in stats):
                    raise _Fail(show(x))
                image.add(y)
            if image != set(codomain(n)):
                raise _Fail(f"n={n}: image differs from the codomain")

    return run


def _all(*parts: _Run) -> _Run:
    """Each part in turn, at the same bound."""

    def run(bound: int) -> None:
        for part in parts:
            part(bound)

    return run


# -- families, tests and statistics the rows share ---------------------------

def _sortable(n: int) -> list[Perm]:
    return machine.enumerate_sortable(n, (1, 3, 2))


def _perms(n: int) -> Iterable[Perm]:
    return perms.all_perms(n)


def _rgfs(n: int) -> Iterable[tuple[int, ...]]:
    return rgf.enumerate_rgfs(n)


def _weak_remainder(n: int) -> list[tuple[int, ...]]:
    # the words whose entries other than the ltr-maxima weakly increase
    return [
        r for r in rgf.enumerate_rgfs(n) if rgf.is_weakly_increasing(rgf.strip_ltr_maxima(r))
    ]


def _narayana_row(n: int) -> list[int]:
    return [sequences.narayana(n, k) for k in range(1, n + 1)]


def _row(dist: dict[int, int], n: int) -> list[int]:
    return [dist.get(k, 0) for k in range(1, n + 1)]


def _histogram(stat: Callable[[Any], int], items: Iterable[Any], values: range) -> list[int]:
    hist = Counter(map(stat, items))
    return [hist[v] for v in values]


def _suffix_law(p: Perm) -> bool:
    d = grid.decompose(p)
    s = machine.s_sigma(p, (1, 3, 2))
    if s[len(s) - d.k :] != tuple(reversed(d.minima_values)):
        return False
    pos = 0
    for blk in d.blocks:
        if sorted(s[pos : pos + len(blk)]) != sorted(blk):
            return False
        pos += len(blk)
    return True


def _trace_invariants(case: tuple[Perm, Perm]) -> bool:
    p, sigma = case
    out, trace = machine.sigma_stack_pass(p, sigma)
    events = trace.events
    pushes = tuple(v for op, v, _ in events if op == "PUSH")
    pops = tuple(v for op, v, _ in events if op == "POP")
    return (
        sorted(out) == list(range(1, len(p) + 1))
        and pushes == p
        and pops == out
        and not any(perms.contains_classical(snap, sigma) for _, _, snap in events)
    )


def _fast_matches_generic(case: tuple[Perm, Perm]) -> bool:
    # the replayed events, the text trace, which replays on its own, and the
    # row's decide against the generic machine's verdict
    out, trace = machine.sigma_stack_pass(*case)
    generic = machine._generic_pass(*case)
    return (out, trace.events) == generic and trace.as_lines() == [
        f"{op} {v} | stack: {','.join(map(str, snap)) or '(empty)'}"
        for op, v, snap in generic[1]
    ] and machine._control(case[1])[2](case[0]) == (not perms._contains_231(generic[0]))


def _perm_scans_match_kernel(p: Perm) -> bool:
    # 2314 and MU against the kernel called directly, since
    # contains_classical and contains_mesh route those two to their scans
    mu = perms.MU
    return (
        perms._contains_231(p), perms._contains_321(p),
        perms._contains_2314(p), perms._contains_mu(p),
    ) == (
        perms.contains_classical(p, (2, 3, 1)),
        perms.contains_classical(p, (3, 2, 1)),
        perms.first_occurrence(p, (2, 3, 1, 4)) is not None,
        perms._kernel(mu.tau, False, False, mu.shaded)(p) is not None,
    )


def _strip_word_on_minima(p: Perm) -> bool:
    # decompose opens a block at each first letter of the strip word and
    # appends every other entry to the current block, the running maximum.
    # So when the word is an RGF whose first letters sit at the ltr-minima,
    # interleaving minima and blocks rebuilds p, the minima decrease to 1,
    # and no entry's row exceeds its block: every cell is on or above the
    # diagonal.
    firsts: list[int] = []
    for q, j in enumerate(grid.strip_word(p), start=1):
        if j > len(firsts) + 1:
            return False
        if j > len(firsts):
            firsts.append(q)
    return firsts == [q for q, _ in perms.ltr_minima(p)]


def _cell_inversions_straddle(p: Perm) -> bool:
    d = grid.decompose(p)
    posn = {v: i for i, v in enumerate(p)}
    for (i, _), cell in d.cells.items():
        low = d.minima_values[i - 1]
        for a, x in enumerate(cell):
            for y in cell[a + 1 :]:
                if x > y and not any(z < low for z in p[posn[x] + 1 : posn[y]]):
                    return False
    return True


def _padding_keeps_containment(case: tuple[tuple[int, ...], tuple[int, ...]]) -> bool:
    r, q = case
    return rgf.rgf_contains(r, q) == rgf.rgf_contains(r, tuple(range(1, q[0])) + q)


def _beta(mode: str, pattern: tuple[int, ...], reduced: bool) -> _Run:
    """β in one mode onto the avoiders of pattern; reduced paths have no H1."""
    return _bijection(
        lambda n: [
            s for s in paths.enumerate_labeled_motzkin(n) if not (reduced and "H1" in s)
        ],
        lambda n: rgf.enumerate_avoiders(n if reduced else n + 1, pattern),
        lambda s: bijections.labeled_motzkin_to_rgf(s, mode, reduced=reduced),
        lambda r: bijections.rgf_to_labeled_motzkin(r, mode, reduced=reduced),
        show=lambda s: f"{mode}: {s}",
        start=int(reduced),
    )


def _takes(f: Callable[..., Any], *args: Any) -> bool:
    """Whether f(*args) returns rather than refusing its input as invalid."""
    try:
        f(*args)
    except InvalidInputError:
        return False
    return True


def _beta_statistics(case: tuple[str, tuple[str, ...]]) -> bool:
    mode, path = case
    r = bijections.labeled_motzkin_to_rgf(path, mode)
    steps = Counter(path)
    singles = sum(1 for v in set(r) if v >= 2 and r.count(v) == 1)
    return (steps["U"] + steps["H0"], steps["H1"], steps["H0"]) == (
        max(r) - 1,
        r.count(1) - 1,
        singles,
    )


def _dyck_children_point_back(p: str) -> bool:
    kids = paths.dyck_children(p)
    return len(kids) == paths.final_descent_length(p) + 1 and all(
        paths.dyck_parent(q) == p for q in kids
    )


def _ltr_maxima_count(p: Perm) -> int:
    return sum(1 for i, v in enumerate(p) if v > max(p[:i], default=0))


# -- claims that fit no shape ------------------------------------------------

def _check_characterization_132(bound: int) -> None:
    for n in range(1, bound + 1):
        bad = machine.verify_characterizations(n, (1, 3, 2)).counterexamples
        if bad:
            sortable = machine.is_sigma_sortable(bad[0], (1, 3, 2))
            raise _Fail(f"{_perm(bad[0])}: sortable={sortable}, basis={not sortable}")


def _check_class_law(bound: int) -> None:
    for sigma in permutations((1, 2, 3)):
        rep = machine.verify_characterizations(bound, sigma)
        if not rep.holds:
            raise _Fail(f"sigma={_perm(sigma)}: {rep.detail}")
        # 321 is the only length-3 control whose sortable set is a class
        if (rep.kind == "class") != (sigma == (3, 2, 1)):
            raise _Fail(f"sigma={_perm(sigma)}: kind {rep.kind}")
    w = machine.witness_non_class((1, 3, 2), 4)
    if w != ((2, 4, 1, 3), (1, 3, 2)):
        raise _Fail(f"witness for 132 was {w}")


def _check_grid_children(bound: int) -> None:
    # Children that are exactly the sortable one-point extensions (append v,
    # shift the entries >= v up) are distinct, sortable and standardize back
    # to their parent; levels equal to brute force are hit once each.
    level: list[Perm] = [(1,)]
    for n in range(1, bound):
        grown: list[Perm] = []
        for p in level:
            s = grid.GrowthState.of(p)
            kids = s.children()
            found = sorted(c.perm for _, c in kids)
            extensions = (tuple(x + (x >= v) for x in p) + (v,) for v in range(1, n + 2))
            if found != sorted(filter(machine.is_sigma_sortable, extensions)):
                raise _Fail(f"{_perm(p)}: children are not the sortable extensions")
            if [kind.cell for kind, _ in kids] != [None, *s.active()]:
                raise _Fail(f"{_perm(p)}: children are not one per active cell")
            for _, c in kids:
                read = grid.GrowthState.of(c.perm)
                state = (c.minima, c.last, c.high, c.active())
                if state != (read.minima, read.last, read.high, read.active()):
                    raise _Fail(f"{_perm(c.perm)}: grown state differs")
            grown.extend(found)
        level = _sortable(n + 1)
        if sorted(grown) != level:
            raise _Fail(f"n={n + 1}: level differs from brute force")


def _check_132_admitted(_bound: int) -> None:
    if not grid.structural_check((1, 3, 2)).passed:
        raise _Fail("132 should pass the necessary conditions")
    if machine.is_sigma_sortable((1, 3, 2), (1, 3, 2)):
        raise _Fail("132 should not be sortable")


def _check_cf(kind: str, _bound: int) -> None:
    want = [getattr(sequences, kind)(i) for i in range(9)]
    coeffs = sequences.cf_series(10, kind, terms=9)
    if coeffs != want:
        raise _Fail(f"{coeffs} vs {want}")
    if sequences.cf_series(11, kind, terms=9) != want:
        raise _Fail("depth 11 disagrees with depth 10")


# The two fraction checks expand to a fixed depth of 10 whatever the size.
_REGISTRY: tuple[Check, ...] = (
    # -- machine scope -------------------------------------------------------
    Check("machine-sortable-counts-132", "machine", 8,
          "counts match the binomial-Catalan formula, n <= {bound}",
          _counts(lambda n: len(_sortable(n)), lambda n: sequences.a007317(n - 1))),
    Check("machine-sortable-counts-123", "machine", 8,
          "counts match twice-summed Catalan reference, n <= {bound}",
          _counts(lambda n: len(machine.enumerate_sortable(n, (1, 2, 3))),
                  lambda n: 1 + sequences.catalan_double_partial_sums(n - 1))),
    Check("machine-characterization-132", "machine", 9,
          "sortable set equals the two-pattern basis, n <= {bound}",
          _check_characterization_132),
    Check("machine-class-law", "machine", 7,
          "class test and witnesses agree for all S_3 controls, n <= {bound}",
          _check_class_law),
    Check("machine-prefix-closure", "machine", 8,
          "sortable permutations are closed under prefixes, n <= {bound}",
          _every(_sortable,
                 lambda p: machine.is_sigma_sortable(perms.standardize(p[:-1]), (1, 3, 2)),
                 lambda p: f"{_perm(p)} sortable, "
                 f"prefix {_perm(perms.standardize(p[:-1]))} not",
                 start=2)),
    Check("machine-stacksort-231", "machine", 8,
          "one stack sorts exactly the 231-avoiders, n <= {bound}",
          _every(_perms, lambda p: (machine.stacksort(p) == tuple(sorted(p)))
                 == perms.avoids(p, (2, 3, 1)))),
    Check("machine-suffix-law", "machine", 8,
          "output ends with reversed minima after grouped blocks, n <= {bound}",
          _every(_sortable, _suffix_law,
                 lambda p: f"{_perm(p)} -> {_perm(machine.s_sigma(p, (1, 3, 2)))}")),
    Check("machine-trace-invariants", "machine", 6,
          "trace conservation and stack avoidance hold, n <= {bound}",
          _every(lambda n: product(perms.all_perms(n), ((1, 3, 2), (3, 2, 1), (2, 1))),
                 _trace_invariants, lambda c: f"{_perm(c[0])} sigma={_perm(c[1])}")),
    Check("machine-fast-vs-generic", "machine", 7,
          "cut scan and Stacksort agree with the generic machine in output, "
          "trace and verdict, all six length-3 controls and 21, n <= {bound}",
          _every(lambda n: product(perms.all_perms(n), machine._PASSES),
                 _fast_matches_generic,
                 lambda c: f"sigma={_perm(c[1])} on {_perm(c[0])}")),
    Check("machine-stack-shape", "machine", 8,
          "stack stays minima-floor plus one increasing block, n <= {bound}",
          _every(_sortable, lambda p: machine.stack_shape_check(p))),
    Check("machine-perm-fast-patterns", "machine", 8,
          "specialized pattern scans match the generic matcher, n <= {bound}",
          _every(_perms, _perm_scans_match_kernel)),
    # -- grid scope ----------------------------------------------------------
    Check("grid-reconstruction", "grid", 9,
          "the strip word is an RGF whose first letters are the minima, n <= {bound}",
          _every(_perms, _strip_word_on_minima)),
    Check("grid-generator-equivalence", "grid", 8,
          "recursive generation equals brute force, n <= {bound}",
          _counts(lambda n: grid.generate_sortable(n), _sortable, start=0)),
    Check("grid-children-count", "grid", 8,
          "the tree grows each sortable extension once, with its true state, n <= {bound}",
          _check_grid_children),
    Check("grid-inversion-in-cell", "grid", 8,
          "every cell inversion straddles a smaller element, n <= {bound}",
          _every(_sortable, _cell_inversions_straddle)),
    Check("grid-structural-necessary", "grid", 8,
          "necessary conditions hold on sortables yet admit 132, n <= {bound}",
          _all(_every(_sortable, lambda p: grid.structural_check(p).passed,
                      lambda p: f"{_perm(p)} fails {grid.structural_check(p).failures()}"),
               _check_132_admitted)),
    # -- rgf scope -----------------------------------------------------------
    Check("rgf-partition-roundtrip", "rgf", 9,
          "partition encoding round trips, n <= {bound}",
          _every(_rgfs, lambda r: rgf.partition_to_rgf(rgf.rgf_to_partition(r)) == r, _word)),
    Check("rgf-counts-bell", "rgf", 9,
          "word counts are Bell numbers, n <= {bound}",
          _counts(lambda n: sum(1 for _ in rgf.enumerate_rgfs(n)),
                  lambda n: sequences.bell(n))),
    Check("rgf-pattern-padding", "rgf", 7,
          "prefixing 1..t-1 to a pattern never changes containment, n <= {bound}",
          _every(lambda n: product(rgf.enumerate_rgfs(n), [
                     q for k in range(1, 5) for q in rgf.all_words_standardized(k)]),
                 _padding_keeps_containment, lambda c: f"{_word(c[0])} vs {c[1]}")),
    Check("rgf-1221-wsubword", "rgf", 9,
          "1221-avoidance matches weakly increasing leftovers, n <= {bound}",
          _every(_rgfs, lambda r: (not rgf.rgf_contains(r, (1, 2, 2, 1)))
                 == rgf.is_weakly_increasing(rgf.strip_ltr_maxima(r)), _word)),
    Check("rgf-12321-stripped-test", "rgf", 8,
          "on repeat-free words, 12321-avoidance is the stripped test, n <= {bound}",
          _every(_rgfs, lambda r: rgf.repeated_ltr_maxima(r)
                 or (not rgf.rgf_contains(r, (1, 2, 3, 2, 1)))
                 == rgf.is_weakly_increasing(rgf.strip_ltr_maxima(r)), _word)),
    Check("rgf-alpha-preserves-12321", "rgf", 8,
          "deleting repeated ltr-maxima preserves 12321 status, n <= {bound}",
          _every(_rgfs, lambda r: rgf.rgf_contains(r, (1, 2, 3, 2, 1))
                 == rgf.rgf_contains(rgf.alpha(r), (1, 2, 3, 2, 1)), _word)),
    # the avoiders of length n + 1 are a007317(n) many
    Check("rgf-12321-counts", "rgf", 7,
          "12321-avoider counts match the binomial transform, n <= {bound1}",
          _counts(lambda n: len(rgf.enumerate_avoiders(n + 1, (1, 2, 3, 2, 1))),
                  lambda n: sequences.a007317(n), start=0, label="n-1")),
    Check("rgf-wilf-eleven", "rgf", 7,
          "all eleven five-letter patterns are equinumerous, n <= {bound}",
          _counts(lambda n: [len(rgf.enumerate_avoiders(n, q)) for q in WILF_ELEVEN[1:]],
                  lambda n: [len(rgf.enumerate_avoiders(n, WILF_ELEVEN[0]))] * 10)),
    Check("rgf-catalan-families", "rgf", 9,
          "1221- and 1212-avoiders are Catalan-many, n <= {bound}",
          _counts(lambda n: [len(rgf.enumerate_avoiders(n, q))
                             for q in ((1, 2, 2, 1), (1, 2, 1, 2))],
                  lambda n: [sequences.catalan(n)] * 2)),
    Check("rgf-active-sites", "rgf", 7,
          "appendable letters form exactly the stated interval, n <= {bound}",
          _every(lambda n: rgf.enumerate_avoiders(n, (1, 2, 2, 1)),
                 lambda r: list(rgf.active_sites_1221(r)) == [
                     j for j in range(1, max(r) + 2)
                     if not rgf.rgf_contains(r + (j,), (1, 2, 2, 1))], _word)),
    Check("rgf-pruned-vs-naive", "rgf", 8,
          "pruned avoider enumeration matches the naive filter, n <= {bound}",
          _counts(lambda n: [rgf.enumerate_avoiders(n, q) for q in _PRUNED],
                  lambda n: [[r for r in rgf.enumerate_rgfs(n) if not rgf.rgf_contains(r, q)]
                             for q in _PRUNED])),
    Check("rgf-fast-patterns", "rgf", 9,
          "specialized pattern scans match the generic matcher, n <= {bound}",
          _every(_rgfs, lambda r: (rgf._contains_1221(r), rgf._contains_12231(r),
                                   rgf._contains_12332(r), rgf._contains_12323(r))
                 == tuple(rgf.rgf_contains(r, q) for q in _RGF_SCANNED), _word)),
    # -- bijections scope ----------------------------------------------------
    Check("bij-phi-roundtrip", "bijections", 8,
          "strip-word map round trips with max = #minima, n <= {bound}",
          _bijection(_sortable, lambda n: rgf.enumerate_avoiders(n, (1, 2, 2, 3, 1)),
                     lambda p: bijections.sortable_to_rgf(p),
                     lambda r: bijections.rgf_to_sortable(r),
                     stats=((lambda p: len(perms.ltr_minima(p)), max),), show=_perm)),
    Check("bij-psi-roundtrip", "bijections", 7,
          "peak-insertion map is a statistic-preserving bijection, n <= {bound}",
          _all(_counts(lambda n: _histogram(max, rgf.enumerate_avoiders(n, (1, 2, 2, 1)),
                                            range(1, n + 1)), _narayana_row),
               _bijection(lambda n: rgf.enumerate_avoiders(n, (1, 2, 2, 1)),
                          lambda n: paths.enumerate_dyck(n),
                          lambda r: bijections.rgf_to_dyck_path(r),
                          lambda path: bijections.dyck_path_to_rgf(path),
                          stats=((max, lambda path: 1 + paths.double_rises(path)),)))),
    Check("bij-beta-roundtrip", "bijections", 7,
          "container map round trips in both modes, length <= {bound}",
          _all(_beta("stack", (1, 2, 3, 2, 3), False),
               _beta("queue", (1, 2, 3, 3, 2), False))),
    Check("bij-beta-reduced", "bijections", 7,
          "label-free paths give the Catalan families, length <= {bound}",
          _all(_beta("stack", (1, 2, 1, 2), True), _beta("queue", (1, 2, 2, 1), True),
               _counts(lambda n: sum("H1" not in s
                                     for s in paths.enumerate_labeled_motzkin(n)),
                       lambda n: sequences.catalan(n)))),
    Check("bij-domain-by-construction", "bijections", 8,
          "psi, phi-inverse and beta-inverse take exactly the avoiders, n <= {bound}",
          _every(_rgfs, lambda r: [  # one map per pattern of _RGF_SCANNED
              _takes(bijections.rgf_to_dyck_path, r), _takes(bijections.rgf_to_sortable, r),
              _takes(bijections.rgf_to_labeled_motzkin, r, "queue"),
              _takes(bijections.rgf_to_labeled_motzkin, r, "stack"),
          ] == [not rgf.rgf_contains(r, q) for q in _RGF_SCANNED], _word)),
    Check("bij-beta-statistics", "bijections", 7,
          "step counts transport to word statistics, length <= {bound}",
          _every(lambda n: product(("stack", "queue"), paths.enumerate_labeled_motzkin(n)),
                 _beta_statistics, lambda c: f"{c[0]}: {c[1]}", start=0)),
    Check("bij-max-equidistribution-nine", "bijections", 7,
          "maximum statistic agrees across the nine patterns, n <= {bound}",
          _counts(lambda n: [rgf.max_distribution(n, q) for q in MAX_EQUIDISTRIBUTED_NINE[1:]],
                  lambda n: [rgf.max_distribution(n, MAX_EQUIDISTRIBUTED_NINE[0])] * 8)),
    Check("bij-ell1-equidistribution", "bijections", 7,
          "flat-step labels match repeated-maxima counts, length <= {bound}",
          _counts(lambda n: [Counter(len(rgf.repeated_ltr_maxima(r))
                                     for r in rgf.enumerate_avoiders(n + 1, q))
                             for q in ((1, 2, 3, 2, 1), (1, 2, 3, 1, 2))],
                  lambda n: [Counter(s.count("H1")
                                     for s in paths.enumerate_labeled_motzkin(n))] * 2,
                  start=0)),
    Check("bij-av321-map", "bijections", 8,
          "weak-remainder words biject onto 321-avoiders, n <= {bound}",
          _all(_every(_weak_remainder, lambda r: not rgf.rgf_contains(r, (1, 2, 3, 2, 1)),
                      _word),
               _counts(lambda n: len(_weak_remainder(n)), lambda n: sequences.catalan(n)),
               _bijection(_weak_remainder,
                          lambda n: [p for p in perms.all_perms(n)
                                     if perms.avoids(p, (3, 2, 1))],
                          lambda r: bijections.rgf_to_av321(r),
                          lambda p: bijections.av321_to_rgf(p),
                          stats=((max, _ltr_maxima_count),)))),
    Check("bij-gamma-roundtrip", "bijections", 8,
          "swap maps are mutually inverse multiset-preserving, n <= {bound}",
          _bijection(lambda n: rgf.enumerate_avoiders(n, (1, 2, 2, 3, 1)),
                     lambda n: rgf.enumerate_avoiders(n, (1, 2, 3, 2, 1)),
                     lambda r: bijections.to_12321_avoider(r),
                     lambda w: bijections.to_12231_avoider(w), stats=((sorted, sorted),))),
    Check("bij-minima-distribution", "bijections", 7,
          "minima distribution matches the closed form, lengths <= {bound1}",
          _counts(lambda n: _row(grid.minima_distribution(n + 1), n + 1),
                  lambda n: sequences.max_distribution_row(n + 1), label="n-1")),
    # -- sequences scope -----------------------------------------------------
    Check("seq-dyck-counts", "sequences", 10,
          "Dyck counts are Catalan numbers, semilength <= {bound}",
          _counts(lambda n: sum(1 for _ in paths.enumerate_dyck(n)),
                  lambda n: sequences.catalan(n), start=0, label="semilength")),
    Check("seq-motzkin-counts", "sequences", 10,
          "Motzkin counts match the recurrence, length <= {bound}",
          _counts(lambda n: sum(1 for _ in paths.enumerate_motzkin(n)),
                  lambda n: sequences.motzkin(n), start=0, label="length")),
    Check("seq-labeled-motzkin-counts", "sequences", 8,
          "labeled path counts follow the binomial transform, length <= {bound}",
          _counts(lambda n: sum(1 for _ in paths.enumerate_labeled_motzkin(n)),
                  lambda n: sequences.a007317(n), start=0, label="length")),
    Check("seq-narayana-bruteforce", "sequences", 6,
          "double-rise histogram is the Narayana row, semilength <= {bound}",
          _counts(lambda n: _histogram(paths.double_rises, paths.enumerate_dyck(n), range(n)),
                  _narayana_row, label="semilength")),
    Check("seq-dyck-children", "sequences", 7,
          "peak insertion grows each path exactly once, semilength <= {bound}",
          _all(_every(lambda n: paths.enumerate_dyck(n - 1), _dyck_children_point_back,
                      lambda p: p or "(empty)"),
               _counts(lambda n: sorted(q for p in paths.enumerate_dyck(n - 1)
                                        for q in paths.dyck_children(p)),
                       lambda n: list(paths.enumerate_dyck(n)), label="semilength"))),
    Check("seq-cf-a007317", "sequences", 10,
          "fraction expansion reproduces the transform through order 8",
          partial(_check_cf, "a007317")),
    Check("seq-cf-catalan", "sequences", 10,
          "fraction expansion reproduces Catalan through order 8",
          partial(_check_cf, "catalan")),
    Check("seq-max-formula-bruteforce", "sequences", 6,
          "closed form matches brute-force tables, lengths <= {bound1}",
          _counts(lambda n: [_row(rgf.max_distribution(n + 1, q), n + 1)
                             for q in ((1, 2, 3, 3, 2), (1, 2, 3, 2, 1))],
                  lambda n: [sequences.max_distribution_row(n + 1)] * 2, start=0, label="n-1")),
)


def run_checks(scope: str = "all", nmax: int = 6) -> list[CheckResult]:
    if scope != "all" and scope not in SCOPES:
        raise InvalidInputError(f"unknown scope {scope!r}")
    if nmax < 1:
        raise InvalidInputError(f"nmax must be >= 1, got {nmax}")
    return [c.run(nmax) for c in _REGISTRY if scope in ("all", c.scope)]
