"""Acceptance gate: the ten headline claims, each reported on one line.

Every claim but the goldens is a registry check of ``patternsort.checks``,
run once at its own exhaustive bound.  The lines are written past pytest's
capture so they show up in any run; every criterion is exact (integer
equality, set equality, or byte equality).
"""

from functools import cache

from patternsort import bijections
from patternsort.checks import CheckResult, _REGISTRY
from patternsort.perms import format_perm
from patternsort.rgf import format_rgf

WORKED_PERM = (13, 14, 15, 10, 12, 6, 7, 8, 11, 9, 3, 1, 4, 5, 2)
WORKED_PATH = ("H0", "H1", "U", "U", "D", "H2", "H0", "D", "H0", "H0")

CHECKS = {c.name: c for c in _REGISTRY}


def report(capsys, num: int, ok: bool, text: str) -> None:
    # capsys.disabled() lifts capture so the line lands in plain `pytest -v`
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {'pass' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@cache
def _result(name: str) -> CheckResult:
    # criteria 05 and 06 share two checks; each runs once per session
    check = CHECKS[name]
    return check.run(check.bound)


def _criterion(num: int, *names: str, seconds: float | None = None):
    """A test that runs the named checks and reports them as one criterion."""

    def test(capsys):
        results = [_result(name) for name in names]
        parts = [
            f"{r.name}: {r.detail}" + ("" if r.passed else f" [{r.counterexample}]")
            for r in results
        ]
        ok = all(r.passed for r in results)
        elapsed = sum(r.seconds for r in results)
        if seconds is not None and elapsed >= seconds:
            ok = False
            parts.append(f"took {elapsed:.1f}s, limit {seconds:.0f}s")
        report(capsys, num, ok, "; ".join(parts))

    return test


test_criterion_01_machine_counts = _criterion(
    1, "machine-sortable-counts-132", seconds=60
)
test_criterion_02_characterization = _criterion(2, "machine-characterization-132")
test_criterion_03_class_law = _criterion(3, "machine-class-law")
test_criterion_04_generator_equivalence = _criterion(
    4, "grid-generator-equivalence", "grid-children-count"
)
test_criterion_05_round_trips = _criterion(
    5,
    "bij-phi-roundtrip",
    "bij-psi-roundtrip",
    "bij-beta-roundtrip",
    "bij-beta-reduced",
    "bij-av321-map",
    "bij-gamma-roundtrip",
)
test_criterion_06_statistic_transport = _criterion(
    6, "bij-psi-roundtrip", "bij-gamma-roundtrip", "bij-minima-distribution"
)
test_criterion_07_wilf_class = _criterion(7, "rgf-wilf-eleven", "rgf-catalan-families")
test_criterion_08_continued_fractions = _criterion(8, "seq-cf-a007317", "seq-cf-catalan")


def test_criterion_09_goldens(capsys):
    got_rgf = format_rgf(bijections.sortable_to_rgf(WORKED_PERM))
    got_word = format_rgf(bijections.labeled_motzkin_to_rgf(WORKED_PATH, "stack"))
    got_perm = format_perm(bijections.rgf_to_av321((1, 2, 1, 3, 1, 4, 2, 3, 4)))
    ok = (
        got_rgf == "111223332345445"
        and got_word == "12134435367"
        and got_perm == "3 5 1 7 2 9 4 6 8"
    )
    report(capsys, 9, ok, "all three worked examples come out byte-exact")


test_criterion_10_cross_pattern_sanity = _criterion(10, "machine-sortable-counts-123")
