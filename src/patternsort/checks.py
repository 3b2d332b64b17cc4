"""Named exhaustive checks behind the verify command.

Each registry entry carries the largest size its claim is checked at; a
run clamps that bound to the requested nmax, reports pass/fail with a
minimal counterexample, and never mutates shared state.  Scopes: machine
(includes the permutation-core checks), grid, rgf, bijections, sequences.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial
from itertools import permutations
from typing import Callable, NamedTuple

from . import bijections, grid, machine, paths, rgf, sequences
from .errors import InvalidInputError
from .perms import (
    Perm,
    all_perms,
    avoids,
    contains_classical,
    format_perm,
    _contains_231,
    _contains_321,
    ltr_minima,
    standardize,
)

SCOPES = ("machine", "grid", "rgf", "bijections", "sequences")

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
    """One claim, checked exhaustively at every size up to ``bound``."""

    name: str
    scope: str
    bound: int
    fn: Callable[[int], str]

    def run(self, nmax: int) -> CheckResult:
        """Run at sizes up to min(bound, nmax); an exception fails the check."""
        start = time.perf_counter()
        try:
            detail, counterexample = self.fn(min(self.bound, nmax)), None
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


# -- machine scope ---------------------------------------------------------

def _check_sortable_counts_132(bound: int) -> str:
    for n in range(1, bound + 1):
        got = len(machine.enumerate_sortable(n, (1, 3, 2)))
        want = sequences.a007317(n - 1)
        if got != want:
            raise _Fail(f"n={n}: {got} sortable vs formula {want}")
    return f"counts match the binomial-Catalan formula, n <= {bound}"


def _check_sortable_counts_123(bound: int) -> str:
    for n in range(1, bound + 1):
        got = len(machine.enumerate_sortable(n, (1, 2, 3)))
        want = 1 + sequences.catalan_double_partial_sums(n - 1)
        if got != want:
            raise _Fail(f"n={n}: {got} sortable vs reference {want}")
    return f"counts match twice-summed Catalan reference, n <= {bound}"


def _check_characterization_132(bound: int) -> str:
    for n in range(1, bound + 1):
        bad = machine.verify_characterizations(n, (1, 3, 2)).counterexamples
        if bad:
            sortable = machine.is_sigma_sortable(bad[0], (1, 3, 2))
            raise _Fail(f"{format_perm(bad[0])}: sortable={sortable}, basis={not sortable}")
    return f"sortable set equals the two-pattern basis, n <= {bound}"


def _check_class_law(bound: int) -> str:
    for sigma in permutations((1, 2, 3)):
        rep = machine.verify_characterizations(bound, sigma)
        if not rep.holds:
            raise _Fail(f"sigma={format_perm(sigma)}: {rep.detail}")
        # 321 is the only length-3 control whose sortable set is a class
        if (rep.kind == "class") != (sigma == (3, 2, 1)):
            raise _Fail(f"sigma={format_perm(sigma)}: kind {rep.kind}")
    w = machine.witness_non_class((1, 3, 2), 4)
    if w != ((2, 4, 1, 3), (1, 3, 2)):
        raise _Fail(f"witness for 132 was {w}")
    return f"class test and witnesses agree for all S_3 controls, n <= {bound}"


def _check_prefix_closure(bound: int) -> str:
    for n in range(2, bound + 1):
        for p in machine.enumerate_sortable(n, (1, 3, 2)):
            q = standardize(p[:-1])
            if not machine.is_sigma_sortable(q, (1, 3, 2)):
                raise _Fail(f"{format_perm(p)} sortable, prefix {format_perm(q)} not")
    return f"sortable permutations are closed under prefixes, n <= {bound}"


def _check_stacksort_231(bound: int) -> str:
    for n in range(1, bound + 1):
        ident = tuple(range(1, n + 1))
        for p in all_perms(n):
            if (machine.stacksort(p) == ident) != avoids(p, (2, 3, 1)):
                raise _Fail(format_perm(p))
    return f"one stack sorts exactly the 231-avoiders, n <= {bound}"


def _check_suffix_law(bound: int) -> str:
    for n in range(1, bound + 1):
        for p in machine.enumerate_sortable(n, (1, 3, 2)):
            d = grid.decompose(p)
            s = machine.s_sigma(p, (1, 3, 2))
            mv = d.minima_values
            if s[len(s) - d.k :] != tuple(reversed(mv)):
                raise _Fail(f"{format_perm(p)} -> {format_perm(s)}")
            pos = 0
            for blk in d.blocks:
                seg = s[pos : pos + len(blk)]
                if sorted(seg) != sorted(blk):
                    raise _Fail(f"{format_perm(p)} -> {format_perm(s)}")
                pos += len(blk)
    return f"output ends with reversed minima after grouped blocks, n <= {bound}"


def _check_trace_invariants(bound: int) -> str:
    for sigma in ((1, 3, 2), (3, 2, 1), (2, 1)):
        for n in range(1, bound + 1):
            for p in all_perms(n):
                out, trace = machine.sigma_stack_pass(p, sigma)
                if len(out) != n or sorted(out) != list(range(1, n + 1)):
                    raise _Fail(f"{format_perm(p)} sigma={format_perm(sigma)}")
                pushes = [v for op, v, _ in trace.events if op == "PUSH"]
                pops = [v for op, v, _ in trace.events if op == "POP"]
                if tuple(pushes) != p or tuple(pops) != out:
                    raise _Fail(f"{format_perm(p)} sigma={format_perm(sigma)}")
                for _, _, snap in trace.events:
                    if contains_classical(snap, sigma):
                        raise _Fail(
                            f"{format_perm(p)} sigma={format_perm(sigma)} snap={snap}"
                        )
    return f"trace conservation and stack avoidance hold, n <= {bound}"


def _check_fast_vs_generic(bound: int) -> str:
    controls = tuple(permutations((1, 2, 3))) + ((2, 1),)
    for n in range(1, bound + 1):
        for p in all_perms(n):
            for sigma in controls:
                out, trace = machine.sigma_stack_pass(p, sigma)
                generic_out, generic_trace = machine._generic_pass(p, sigma)
                where = f"sigma={format_perm(sigma)} on {format_perm(p)}"
                if out != generic_out:
                    raise _Fail(f"output differs, {where}")
                if trace != generic_trace:
                    raise _Fail(f"trace differs, {where}")
    return (
        "cut scan and Stacksort agree with the generic machine in output "
        f"and trace, all six length-3 controls and 21, n <= {bound}"
    )


def _check_stack_shape(bound: int) -> str:
    for n in range(1, bound + 1):
        for p in machine.enumerate_sortable(n, (1, 3, 2)):
            if not machine.stack_shape_check(p):
                raise _Fail(format_perm(p))
    return f"stack stays minima-floor plus one increasing block, n <= {bound}"


def _check_perm_fast_patterns(bound: int) -> str:
    scans = (
        ((2, 3, 1), _contains_231),
        ((3, 2, 1), _contains_321),
    )
    for n in range(1, bound + 1):
        for p in all_perms(n):
            for q, scan in scans:
                if scan(p) != contains_classical(p, q):
                    raise _Fail(f"{format_perm(q)} on {format_perm(p)}")
    return f"specialized pattern scans match the generic matcher, n <= {bound}"


# -- grid scope ------------------------------------------------------------

def _check_grid_reconstruction(bound: int) -> str:
    # decompose opens a block at each first letter of the strip word and
    # appends every other entry to the current block, the running maximum.
    # So when the word is an RGF whose first letters sit at the ltr-minima,
    # interleaving minima and blocks rebuilds p, the minima decrease to 1,
    # and no entry's row exceeds its block: every cell is on or above the
    # diagonal.
    for n in range(1, bound + 1):
        for p in all_perms(n):
            firsts: list[int] = []
            for q, j in enumerate(grid.strip_word(p), start=1):
                if j > len(firsts) + 1:
                    raise _Fail(f"{format_perm(p)}: letter {j} at position {q}")
                if j > len(firsts):
                    firsts.append(q)
            if firsts != [q for q, _ in ltr_minima(p)]:
                raise _Fail(f"{format_perm(p)}: first letters off the minima")
    return f"the strip word is an RGF whose first letters are the minima, n <= {bound}"


def _check_grid_generator(bound: int) -> str:
    for n in range(bound + 1):
        if grid.generate_sortable(n) != machine.enumerate_sortable(n, (1, 3, 2)):
            raise _Fail(f"n={n}")
    return f"recursive generation equals brute force, n <= {bound}"


def _check_grid_children(bound: int) -> str:
    # Children that are exactly the sortable one-point extensions (append v,
    # shift the entries >= v up) are distinct, sortable and standardize back
    # to their parent; levels equal to brute force are hit once each.
    level: list[Perm] = [(1,)]
    for n in range(1, bound):
        grown: list[Perm] = []
        for p in level:
            s = grid.GrowthState.of(p)
            kids = s.children()
            perms = sorted(c.perm for _, c in kids)
            extensions = (tuple(x + (x >= v) for x in p) + (v,) for v in range(1, n + 2))
            if perms != sorted(filter(machine.is_sigma_sortable, extensions)):
                raise _Fail(f"{format_perm(p)}: children are not the sortable extensions")
            if [kind.cell for kind, _ in kids] != [None, *s.active()]:
                raise _Fail(f"{format_perm(p)}: children are not one per active cell")
            for _, c in kids:
                read = grid.GrowthState.of(c.perm)
                state = (c.minima, c.last, c.high, c.active())
                if state != (read.minima, read.last, read.high, read.active()):
                    raise _Fail(f"{format_perm(c.perm)}: grown state differs")
            grown.extend(perms)
        level = machine.enumerate_sortable(n + 1, (1, 3, 2))
        if sorted(grown) != level:
            raise _Fail(f"n={n + 1}: level differs from brute force")
    return f"the tree grows each sortable extension once, with its true state, n <= {bound}"


def _check_grid_inversion_in_cell(bound: int) -> str:
    for n in range(1, bound + 1):
        for p in machine.enumerate_sortable(n, (1, 3, 2)):
            d = grid.decompose(p)
            posn = {v: i for i, v in enumerate(p)}
            for (i, j), cell in d.cells.items():
                mi = d.minima_values[i - 1]
                for a in range(len(cell)):
                    for b in range(a + 1, len(cell)):
                        x, y = cell[a], cell[b]
                        if x < y:
                            continue
                        between = p[posn[x] + 1 : posn[y]]
                        if not any(z < mi for z in between):
                            raise _Fail(f"{format_perm(p)} cell ({i},{j}) pair {x},{y}")
    return f"every cell inversion straddles a smaller element, n <= {bound}"


def _check_grid_structural_necessary(bound: int) -> str:
    for n in range(1, bound + 1):
        for p in machine.enumerate_sortable(n, (1, 3, 2)):
            rep = grid.structural_check(p)
            if not rep.passed:
                raise _Fail(f"{format_perm(p)} fails {rep.failures()}")
    if not grid.structural_check((1, 3, 2)).passed:
        raise _Fail("132 should pass the necessary conditions")
    if machine.is_sigma_sortable((1, 3, 2), (1, 3, 2)):
        raise _Fail("132 should not be sortable")
    return f"necessary conditions hold on sortables yet admit 132, n <= {bound}"


# -- rgf scope -------------------------------------------------------------

def _check_rgf_partition_roundtrip(bound: int) -> str:
    for n in range(1, bound + 1):
        for r in rgf.enumerate_rgfs(n):
            part = rgf.rgf_to_partition(r)
            if rgf.partition_to_rgf(part) != r:
                raise _Fail(rgf.format_rgf(r))
    return f"partition encoding round trips, n <= {bound}"


def _check_rgf_counts_bell(bound: int) -> str:
    for n in range(1, bound + 1):
        got = sum(1 for _ in rgf.enumerate_rgfs(n))
        if got != sequences.bell(n):
            raise _Fail(f"n={n}: {got}")
    return f"word counts are Bell numbers, n <= {bound}"


def _check_rgf_pattern_padding(bound: int) -> str:
    pats = [q for k in range(1, 5) for q in rgf.all_words_standardized(k)]
    for n in range(1, bound + 1):
        for r in rgf.enumerate_rgfs(n):
            for q in pats:
                t = q[0]
                padded = tuple(range(1, t)) + q
                if rgf.rgf_contains(r, q) != rgf.rgf_contains(r, padded):
                    raise _Fail(f"{rgf.format_rgf(r)} vs {q}")
    return f"prefixing 1..t-1 to a pattern never changes containment, n <= {bound}"


def _check_rgf_1221_wsubword(bound: int) -> str:
    for n in range(1, bound + 1):
        for r in rgf.enumerate_rgfs(n):
            lhs = not rgf.rgf_contains(r, (1, 2, 2, 1))
            rhs = rgf.is_weakly_increasing(rgf.strip_ltr_maxima(r))
            if lhs != rhs:
                raise _Fail(rgf.format_rgf(r))
    return f"1221-avoidance matches weakly increasing leftovers, n <= {bound}"


def _check_rgf_12321_stripped_test(bound: int) -> str:
    for n in range(1, bound + 1):
        for r in rgf.enumerate_rgfs(n):
            if rgf.repeated_ltr_maxima(r):
                continue
            lhs = not rgf.rgf_contains(r, (1, 2, 3, 2, 1))
            rhs = rgf.is_weakly_increasing(rgf.strip_ltr_maxima(r))
            if lhs != rhs:
                raise _Fail(rgf.format_rgf(r))
    return f"on repeat-free words, 12321-avoidance is the stripped test, n <= {bound}"


def _check_rgf_alpha(bound: int) -> str:
    pat = (1, 2, 3, 2, 1)
    for n in range(1, bound + 1):
        for r in rgf.enumerate_rgfs(n):
            a = rgf.alpha(r)
            if rgf.rgf_contains(r, pat) != rgf.rgf_contains(a, pat):
                raise _Fail(rgf.format_rgf(r))
    return f"deleting repeated ltr-maxima preserves 12321 status, n <= {bound}"


def _check_rgf_12321_counts(bound: int) -> str:
    for n in range(bound + 1):
        got = len(rgf.enumerate_avoiders(n + 1, (1, 2, 3, 2, 1)))
        want = sequences.a007317(n)
        if got != want:
            raise _Fail(f"n={n + 1}: {got} vs {want}")
    return f"12321-avoider counts match the binomial transform, n <= {bound + 1}"


def _check_rgf_wilf_eleven(bound: int) -> str:
    for n in range(1, bound + 1):
        counts = {q: len(rgf.enumerate_avoiders(n, q)) for q in WILF_ELEVEN}
        if len(set(counts.values())) != 1:
            raise _Fail(f"n={n}: {sorted(counts.values())}")
    return f"all eleven five-letter patterns are equinumerous, n <= {bound}"


def _check_rgf_catalan_families(bound: int) -> str:
    for n in range(1, bound + 1):
        c = sequences.catalan(n)
        a = len(rgf.enumerate_avoiders(n, (1, 2, 2, 1)))
        b = len(rgf.enumerate_avoiders(n, (1, 2, 1, 2)))
        if a != c or b != c:
            raise _Fail(f"n={n}: {a}, {b} vs {c}")
    return f"1221- and 1212-avoiders are Catalan-many, n <= {bound}"


def _check_rgf_active_sites(bound: int) -> str:
    for n in range(1, bound + 1):
        for r in rgf.enumerate_avoiders(n, (1, 2, 2, 1)):
            sites = rgf.active_sites_1221(r)
            mx = max(r)
            for j in range(1, mx + 2):
                child = r + (j,)
                ok = not rgf.rgf_contains(child, (1, 2, 2, 1))
                if ok != (j in sites):
                    raise _Fail(f"{rgf.format_rgf(r)} + {j}")
    return f"appendable letters form exactly the stated interval, n <= {bound}"


def _check_rgf_fast_patterns(bound: int) -> str:
    scans = (
        ((1, 2, 2, 1), rgf._contains_1221),
        ((1, 2, 2, 3, 1), rgf._contains_12231),
        ((1, 2, 3, 3, 2), rgf._contains_12332),
        ((1, 2, 3, 2, 3), rgf._contains_12323),
    )
    for n in range(1, bound + 1):
        for r in rgf.enumerate_rgfs(n):
            for q, scan in scans:
                if scan(r) != rgf.rgf_contains(r, q):
                    raise _Fail(f"{rgf.format_rgf(q)} on {rgf.format_rgf(r)}")
    return f"specialized pattern scans match the generic matcher, n <= {bound}"


def _check_rgf_pruned_vs_naive(bound: int) -> str:
    pats = ((1, 2, 2, 1), (1, 2, 2, 3, 1), (1, 2, 3, 2, 1), (1, 2, 1, 2))
    for n in range(1, bound + 1):
        words = list(rgf.enumerate_rgfs(n))
        for q in pats:
            naive = [r for r in words if not rgf.rgf_contains(r, q)]
            if rgf.enumerate_avoiders(n, q) != naive:
                raise _Fail(f"n={n} pattern {q}")
    return f"pruned avoider enumeration matches the naive filter, n <= {bound}"


# -- bijections scope ------------------------------------------------------

def _check_phi_roundtrip(bound: int) -> str:
    for n in range(1, bound + 1):
        for p in machine.enumerate_sortable(n, (1, 3, 2)):
            r = bijections.sortable_to_rgf(p)
            if rgf.rgf_contains(r, (1, 2, 2, 3, 1)):
                raise _Fail(f"{format_perm(p)} -> {rgf.format_rgf(r)}")
            if max(r) != len(ltr_minima(p)):
                raise _Fail(f"{format_perm(p)}: max vs minima count")
            if bijections.rgf_to_sortable(r) != p:
                raise _Fail(format_perm(p))
        for r in rgf.enumerate_avoiders(n, (1, 2, 2, 3, 1)):
            p = bijections.rgf_to_sortable(r)
            if not machine.is_sigma_sortable(p, (1, 3, 2)):
                raise _Fail(rgf.format_rgf(r))
            if bijections.sortable_to_rgf(p) != r:
                raise _Fail(rgf.format_rgf(r))
    return f"strip-word map round trips with max = #minima, n <= {bound}"


def _check_psi_roundtrip(bound: int) -> str:
    for n in range(1, bound + 1):
        seen = set()
        words = rgf.enumerate_avoiders(n, (1, 2, 2, 1))
        hist = Counter(max(r) for r in words)
        for k in range(1, n + 1):
            want = sequences.narayana(n, k)
            if hist[k] != want:
                raise _Fail(f"n={n}, max={k}: {hist[k]} words vs Narayana {want}")
        for r in words:
            path = bijections.rgf_to_dyck_path(r)
            paths.validate_dyck(path)
            if len(path) != 2 * n:
                raise _Fail(rgf.format_rgf(r))
            if max(r) != 1 + paths.double_rises(path):
                raise _Fail(f"{rgf.format_rgf(r)} -> {path}")
            if bijections.dyck_path_to_rgf(path) != r:
                raise _Fail(rgf.format_rgf(r))
            seen.add(path)
        if len(seen) != sequences.catalan(n):
            raise _Fail(f"n={n}: image size {len(seen)}")
    return f"peak-insertion map is a statistic-preserving bijection, n <= {bound}"


def _check_beta_roundtrip(bound: int) -> str:
    pats = {"stack": (1, 2, 3, 2, 3), "queue": (1, 2, 3, 3, 2)}
    for mode, pat in pats.items():
        for n in range(0, bound + 1):
            image = set()
            for path in paths.enumerate_labeled_motzkin(n):
                r = bijections.labeled_motzkin_to_rgf(path, mode)
                if rgf.rgf_contains(r, pat):
                    raise _Fail(f"{mode}: {path} -> {rgf.format_rgf(r)}")
                if bijections.rgf_to_labeled_motzkin(r, mode) != path:
                    raise _Fail(f"{mode}: {path}")
                image.add(r)
            want = rgf.enumerate_avoiders(n + 1, pat)
            if sorted(image) != want:
                raise _Fail(f"{mode}: n={n} image mismatch")
    return f"container map round trips in both modes, length <= {bound}"


def _check_beta_reduced(bound: int) -> str:
    pats = {"stack": (1, 2, 1, 2), "queue": (1, 2, 2, 1)}
    for mode, pat in pats.items():
        for n in range(1, bound + 1):
            image = set()
            for path in paths.enumerate_labeled_motzkin(n):
                if "H1" in path:
                    continue
                r = bijections.labeled_motzkin_to_rgf(path, mode, reduced=True)
                if bijections.rgf_to_labeled_motzkin(r, mode, reduced=True) != path:
                    raise _Fail(f"{mode}: {path}")
                image.add(r)
            want = rgf.enumerate_avoiders(n, pat)
            if sorted(image) != want:
                raise _Fail(f"{mode}: n={n}")
            if len(image) != sequences.catalan(n):
                raise _Fail(f"{mode}: n={n} count {len(image)}")
    return f"label-free paths give the Catalan families, length <= {bound}"


def _check_beta_statistics(bound: int) -> str:
    for mode in ("stack", "queue"):
        for n in range(0, bound + 1):
            for path in paths.enumerate_labeled_motzkin(n):
                r = bijections.labeled_motzkin_to_rgf(path, mode)
                ups = sum(1 for s in path if s == "U")
                h0 = sum(1 for s in path if s == "H0")
                h1 = sum(1 for s in path if s == "H1")
                if ups + h0 != max(r) - 1:
                    raise _Fail(f"{mode}: {path}")
                if h1 != r.count(1) - 1:
                    raise _Fail(f"{mode}: {path}")
                singles = sum(1 for v in set(r) if v >= 2 and r.count(v) == 1)
                if h0 != singles:
                    raise _Fail(f"{mode}: {path}")
    return f"step counts transport to word statistics, length <= {bound}"


def _check_max_equidistribution_nine(bound: int) -> str:
    for n in range(1, bound + 1):
        dists = [
            tuple(sorted(rgf.max_distribution(n, q).items()))
            for q in MAX_EQUIDISTRIBUTED_NINE
        ]
        if len(set(dists)) != 1:
            raise _Fail(f"n={n}")
    return f"maximum statistic agrees across the nine patterns, n <= {bound}"


def _check_ell1_equidistribution(bound: int) -> str:
    for n in range(0, bound + 1):
        flat = Counter(
            sum(1 for s in path if s == "H1")
            for path in paths.enumerate_labeled_motzkin(n)
        )
        for pat in ((1, 2, 3, 2, 1), (1, 2, 3, 1, 2)):
            reps = Counter(
                len(rgf.repeated_ltr_maxima(r))
                for r in rgf.enumerate_avoiders(n + 1, pat)
            )
            if flat != reps:
                raise _Fail(f"n={n} pattern {pat}")
    return f"flat-step labels match repeated-maxima counts, length <= {bound}"


def _check_av321_map(bound: int) -> str:
    for n in range(1, bound + 1):
        image = set()
        domain = [
            r
            for r in rgf.enumerate_rgfs(n)
            if rgf.is_weakly_increasing(rgf.strip_ltr_maxima(r))
        ]
        for r in domain:
            p = bijections.rgf_to_av321(r)
            if contains_classical(p, (3, 2, 1)):
                raise _Fail(f"{rgf.format_rgf(r)} -> {format_perm(p)}")
            if rgf.rgf_contains(r, (1, 2, 3, 2, 1)):
                raise _Fail(f"domain word {rgf.format_rgf(r)} contains 12321")
            if max(r) != sum(
                1 for i, v in enumerate(p) if v > max(p[:i], default=0)
            ):
                raise _Fail(f"{rgf.format_rgf(r)}: maxima transport")
            if bijections.av321_to_rgf(p) != r:
                raise _Fail(rgf.format_rgf(r))
            image.add(p)
        want = [p for p in all_perms(n) if avoids(p, (3, 2, 1))]
        if sorted(image) != want:
            raise _Fail(f"n={n}: image is not all of Av(321)")
        if len(domain) != sequences.catalan(n):
            raise _Fail(f"n={n}: domain size {len(domain)}")
    return f"weak-remainder words biject onto 321-avoiders, n <= {bound}"


def _check_gamma_roundtrip(bound: int) -> str:
    for n in range(1, bound + 1):
        image = set()
        for r in rgf.enumerate_avoiders(n, (1, 2, 2, 3, 1)):
            out = bijections.to_12321_avoider(r)
            if rgf.rgf_contains(out, (1, 2, 3, 2, 1)):
                raise _Fail(rgf.format_rgf(r))
            if sorted(out) != sorted(r):
                raise _Fail(f"{rgf.format_rgf(r)}: multiset changed")
            if bijections.to_12231_avoider(out) != r:
                raise _Fail(rgf.format_rgf(r))
            image.add(out)
        want = set(rgf.enumerate_avoiders(n, (1, 2, 3, 2, 1)))
        if image != want:
            raise _Fail(f"n={n}: image mismatch")
    return f"swap maps are mutually inverse multiset-preserving, n <= {bound}"


def _check_minima_distribution(bound: int) -> str:
    for n in range(1, bound + 1):
        dist = grid.minima_distribution(n + 1)
        for k in range(1, n + 2):
            want = sequences.max_distribution_formula(n, k - 1)
            if dist.get(k, 0) != want:
                raise _Fail(f"n={n + 1}, k={k}: {dist.get(k, 0)} vs {want}")
    return f"minima distribution matches the closed form, lengths <= {bound + 1}"


# -- sequences scope -------------------------------------------------------

def _check_dyck_counts(bound: int) -> str:
    for n in range(0, bound + 1):
        got = sum(1 for _ in paths.enumerate_dyck(n))
        if got != sequences.catalan(n):
            raise _Fail(f"semilength {n}: {got}")
    return f"Dyck counts are Catalan numbers, semilength <= {bound}"


def _check_motzkin_counts(bound: int) -> str:
    for n in range(0, bound + 1):
        got = sum(1 for _ in paths.enumerate_motzkin(n))
        if got != sequences.motzkin(n):
            raise _Fail(f"length {n}: {got}")
    return f"Motzkin counts match the recurrence, length <= {bound}"


def _check_labeled_motzkin_counts(bound: int) -> str:
    for n in range(0, bound + 1):
        got = sum(1 for _ in paths.enumerate_labeled_motzkin(n))
        if got != sequences.a007317(n):
            raise _Fail(f"length {n}: {got}")
    return f"labeled path counts follow the binomial transform, length <= {bound}"


def _check_narayana_bruteforce(bound: int) -> str:
    for n in range(1, bound + 1):
        hist = Counter(paths.double_rises(p) for p in paths.enumerate_dyck(n))
        for k in range(1, n + 1):
            if hist.get(k - 1, 0) != sequences.narayana(n, k):
                raise _Fail(f"n={n}, k={k}")
    return f"double-rise histogram is the Narayana row, semilength <= {bound}"


def _check_dyck_children(bound: int) -> str:
    for n in range(0, bound):
        seen: Counter[str] = Counter()
        for p in paths.enumerate_dyck(n):
            kids = paths.dyck_children(p)
            if len(kids) != paths.final_descent_length(p) + 1:
                raise _Fail(p or "(empty)")
            for q in kids:
                if paths.dyck_parent(q) != p:
                    raise _Fail(f"{p} -> {q}")
                seen[q] += 1
        if set(seen) != set(paths.enumerate_dyck(n + 1)) or any(
            c != 1 for c in seen.values()
        ):
            raise _Fail(f"semilength {n + 1} not covered exactly once")
    return f"peak insertion grows each path exactly once, semilength <= {bound}"


def _check_cf(kind: str, name: str, _bound: int) -> str:
    want = [getattr(sequences, kind)(i) for i in range(9)]
    coeffs = sequences.cf_series(10, kind, terms=9)
    if coeffs != want:
        raise _Fail(f"{coeffs} vs {want}")
    if sequences.cf_series(11, kind, terms=9) != want:
        raise _Fail("depth 11 disagrees with depth 10")
    return f"fraction expansion reproduces {name} through order 8"


def _check_max_formula_bruteforce(bound: int) -> str:
    for pat in ((1, 2, 3, 3, 2), (1, 2, 3, 2, 1)):
        for n in range(0, bound + 1):
            dist = rgf.max_distribution(n + 1, pat)
            for k in range(0, n + 1):
                if dist.get(k + 1, 0) != sequences.max_distribution_formula(n, k):
                    raise _Fail(f"pattern {pat}, n={n + 1}, max={k + 1}")
    return f"closed form matches brute-force tables, lengths <= {bound + 1}"


# The two fraction checks expand to a fixed depth of 10 whatever the size.
_REGISTRY: tuple[Check, ...] = (
    Check("machine-sortable-counts-132", "machine", 8, _check_sortable_counts_132),
    Check("machine-sortable-counts-123", "machine", 8, _check_sortable_counts_123),
    Check("machine-characterization-132", "machine", 9, _check_characterization_132),
    Check("machine-class-law", "machine", 7, _check_class_law),
    Check("machine-prefix-closure", "machine", 8, _check_prefix_closure),
    Check("machine-stacksort-231", "machine", 8, _check_stacksort_231),
    Check("machine-suffix-law", "machine", 8, _check_suffix_law),
    Check("machine-trace-invariants", "machine", 6, _check_trace_invariants),
    Check("machine-fast-vs-generic", "machine", 7, _check_fast_vs_generic),
    Check("machine-stack-shape", "machine", 8, _check_stack_shape),
    Check("machine-perm-fast-patterns", "machine", 8, _check_perm_fast_patterns),
    Check("grid-reconstruction", "grid", 9, _check_grid_reconstruction),
    Check("grid-generator-equivalence", "grid", 8, _check_grid_generator),
    Check("grid-children-count", "grid", 8, _check_grid_children),
    Check("grid-inversion-in-cell", "grid", 8, _check_grid_inversion_in_cell),
    Check("grid-structural-necessary", "grid", 8, _check_grid_structural_necessary),
    Check("rgf-partition-roundtrip", "rgf", 9, _check_rgf_partition_roundtrip),
    Check("rgf-counts-bell", "rgf", 9, _check_rgf_counts_bell),
    Check("rgf-pattern-padding", "rgf", 7, _check_rgf_pattern_padding),
    Check("rgf-1221-wsubword", "rgf", 9, _check_rgf_1221_wsubword),
    Check("rgf-12321-stripped-test", "rgf", 8, _check_rgf_12321_stripped_test),
    Check("rgf-alpha-preserves-12321", "rgf", 8, _check_rgf_alpha),
    Check("rgf-12321-counts", "rgf", 7, _check_rgf_12321_counts),
    Check("rgf-wilf-eleven", "rgf", 7, _check_rgf_wilf_eleven),
    Check("rgf-catalan-families", "rgf", 9, _check_rgf_catalan_families),
    Check("rgf-active-sites", "rgf", 7, _check_rgf_active_sites),
    Check("rgf-pruned-vs-naive", "rgf", 8, _check_rgf_pruned_vs_naive),
    Check("rgf-fast-patterns", "rgf", 9, _check_rgf_fast_patterns),
    Check("bij-phi-roundtrip", "bijections", 8, _check_phi_roundtrip),
    Check("bij-psi-roundtrip", "bijections", 7, _check_psi_roundtrip),
    Check("bij-beta-roundtrip", "bijections", 7, _check_beta_roundtrip),
    Check("bij-beta-reduced", "bijections", 7, _check_beta_reduced),
    Check("bij-beta-statistics", "bijections", 7, _check_beta_statistics),
    Check(
        "bij-max-equidistribution-nine", "bijections", 7, _check_max_equidistribution_nine
    ),
    Check("bij-ell1-equidistribution", "bijections", 7, _check_ell1_equidistribution),
    Check("bij-av321-map", "bijections", 8, _check_av321_map),
    Check("bij-gamma-roundtrip", "bijections", 8, _check_gamma_roundtrip),
    Check("bij-minima-distribution", "bijections", 7, _check_minima_distribution),
    Check("seq-dyck-counts", "sequences", 10, _check_dyck_counts),
    Check("seq-motzkin-counts", "sequences", 10, _check_motzkin_counts),
    Check("seq-labeled-motzkin-counts", "sequences", 8, _check_labeled_motzkin_counts),
    Check("seq-narayana-bruteforce", "sequences", 6, _check_narayana_bruteforce),
    Check("seq-dyck-children", "sequences", 7, _check_dyck_children),
    Check(
        "seq-cf-a007317", "sequences", 10, partial(_check_cf, "a007317", "the transform")
    ),
    Check("seq-cf-catalan", "sequences", 10, partial(_check_cf, "catalan", "Catalan")),
    Check("seq-max-formula-bruteforce", "sequences", 6, _check_max_formula_bruteforce),
)


def run_checks(scope: str = "all", nmax: int = 6) -> list[CheckResult]:
    if scope != "all" and scope not in SCOPES:
        raise InvalidInputError(f"unknown scope {scope!r}")
    if nmax < 1:
        raise InvalidInputError(f"nmax must be >= 1, got {nmax}")
    return [c.run(nmax) for c in _REGISTRY if scope in ("all", c.scope)]
