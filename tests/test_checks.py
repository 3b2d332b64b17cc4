import hashlib
import json

import pytest

from patternsort import bijections, grid, machine, paths, rgf, sequences
from patternsort.checks import SCOPES, _REGISTRY, run_checks
from patternsort.cli import main
from patternsort.errors import MalformedInputError

# (checks, sha256) over (name, scope, passed, detail, counterexample) of
# each result of run_checks("all", 6)
REPORT_GOLDEN = (47, "3de4b22a18b22f8573efb92871616e8b4d7ea1817389bbbfc2b1c0f3045aa181")


def test_scopes_cover_registry():
    assert SCOPES == ("machine", "grid", "rgf", "bijections", "sequences")
    names = [c.name for c in _REGISTRY]
    assert len(names) == len(set(names))
    assert {c.scope for c in _REGISTRY} == set(SCOPES)
    assert all(c.bound >= 1 for c in _REGISTRY)


def test_run_checks_small():
    """Every check passes at nmax 6, and the report is pinned by a digest.

    A change that alters a report line on purpose updates REPORT_GOLDEN
    and names the change in CHANGES.md.
    """
    results = run_checks("all", 6)
    assert results and all(r.passed for r in results)
    assert all(r.seconds >= 0 for r in results)
    assert [r.name for r in results] == [c.name for c in _REGISTRY]
    lines = [(r.name, r.scope, r.passed, r.detail, r.counterexample) for r in results]
    digest = hashlib.sha256(repr(lines).encode()).hexdigest()
    assert (len(lines), digest) == REPORT_GOLDEN


def test_run_checks_scoped():
    results = run_checks("grid", 4)
    assert results and all(r.scope == "grid" for r in results)


def test_run_checks_validates_arguments():
    with pytest.raises(ValueError):
        run_checks("nonsense", 4)
    with pytest.raises(ValueError):
        run_checks("all", 0)


# the true answers, read before any test patches them
_bell, _minima, _max = sequences.bell, grid.minima_distribution, rgf.max_distribution


def _bump(dist):
    return {**dist, 1: dist.get(1, 0) + 1}


@pytest.mark.parametrize(
    "module, name, wrong, failing, counterexample",
    [
        # a _counts row against the closed form: a wrong minima distribution
        # fails at length 2
        (
            grid,
            "minima_distribution",
            lambda n: {},
            "bij-minima-distribution",
            "n-1=1: [0, 0] vs [1, 1]",
        ),
        # one wrong-but-valid answer per shape: _counts, _bijection, _every
        (sequences, "bell", lambda n: _bell(n) + 1, "rgf-counts-bell", "n=1: 1 vs 2"),
        (
            bijections,
            "dyck_path_to_rgf",
            lambda path: (1,) * (len(path) // 2),
            "bij-psi-roundtrip",
            "12",
        ),
        (machine, "stacksort", tuple, "machine-stacksort-231", "2 1"),
        # each {bound1} row still checks length bound + 1 = 5
        (
            grid,
            "minima_distribution",
            lambda n, *a: _bump(_minima(n, *a)) if n == 5 else _minima(n, *a),
            "bij-minima-distribution",
            "n-1=4: [2, 15, 24, 10, 1] vs [1, 15, 24, 10, 1]",
        ),
        (
            rgf,
            "max_distribution",
            lambda n, *a: _bump(_max(n, *a)) if n == 5 else _max(n, *a),
            "seq-max-formula-bruteforce",
            f"n-1=4: {[[2, 15, 24, 10, 1]] * 2} vs {[[1, 15, 24, 10, 1]] * 2}",
        ),
        # a fault in the pattern the other eight are counted against
        (
            rgf,
            "max_distribution",
            lambda n, q, *a: _bump(_max(n, q, *a))
            if (n, q) == (3, (1, 2, 1, 2, 3))
            else _max(n, q, *a),
            "bij-max-equidistribution-nine",
            f"n=3: {[{1: 1, 2: 3, 3: 1}] * 8} vs {[{1: 2, 2: 3, 3: 1}] * 8}",
        ),
    ],
    ids=[
        "minima_distribution",
        "bell",
        "dyck_path_to_rgf",
        "stacksort",
        "minima_distribution-length5",
        "max_distribution-length5",
        "max_distribution-12123",
    ],
)
def test_failing_check_reports_counterexample(
    monkeypatch, capsys, module, name, wrong, failing, counterexample
):
    # the wrong answer fails exactly one check, with its minimal counterexample
    monkeypatch.setattr(module, name, wrong)
    failed = [r for r in run_checks("all", 4) if not r.passed]
    assert [(r.name, r.counterexample) for r in failed] == [(failing, counterexample)]

    [scope] = {c.scope for c in _REGISTRY if c.name == failing}
    total = sum(c.scope == scope for c in _REGISTRY)
    assert main(["verify", "--scope", scope, "--nmax", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    bad = [line for line in lines if line.startswith("FAIL ")]
    assert len(bad) == 1
    assert bad[0].startswith(f"FAIL {failing} (")
    assert bad[0].endswith(f": counterexample found [{counterexample}]")
    assert lines[-1].startswith(f"{total - 1}/{total} checks passed")

    assert main(["verify", "--scope", scope, "--nmax", "4", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    [check] = [c for c in doc["checks"] if not c["passed"]]
    assert check["name"] == failing
    assert check["counterexample"] == counterexample


def test_characterization_failure_reports_first_counterexample(monkeypatch):
    # a shaded 132 that is never contained predicts 132 itself sortable
    monkeypatch.setattr(machine, "contains_mesh", lambda w, mp: False)
    assert machine.verify_characterizations(3, (1, 3, 2)).counterexamples == ((1, 3, 2),)
    failed = [r for r in run_checks("machine", 3) if not r.passed]
    assert [(r.name, r.counterexample) for r in failed] == [
        ("machine-characterization-132", "1 3 2: sortable=False, basis=True"),
        (
            "machine-class-law",
            "sigma=1 3 2: sortable set vs avoiders of 2314 and the shaded 132, n=3",
        ),
    ]


def _raise(exc):
    def call(*args, **kwargs):
        raise exc

    return call


@pytest.mark.parametrize(
    "module, name, exc, failing",
    [
        (
            bijections,
            "to_12231_avoider",
            MalformedInputError("boom"),
            ["bij-gamma-roundtrip"],
        ),
        (
            grid,
            "decompose",
            IndexError("boom"),
            ["machine-suffix-law", "grid-inversion-in-cell", "grid-structural-necessary"],
        ),
        (
            bijections,
            "rgf_to_dyck_path",
            ValueError("boom"),
            ["bij-psi-roundtrip", "bij-domain-by-construction"],
        ),
        (rgf, "alpha", TypeError("boom"), ["rgf-alpha-preserves-12321"]),
        (paths, "enumerate_motzkin", RuntimeError("boom"), ["seq-motzkin-counts"]),
        (machine, "stack_shape_check", ZeroDivisionError("boom"), ["machine-stack-shape"]),
    ],
)
def test_check_that_raises_fails_alone(monkeypatch, capsys, module, name, exc, failing):
    # the other checks still run, and verify exits 1 rather than 2
    monkeypatch.setattr(module, name, _raise(exc))
    assert main(["verify", "--nmax", "3"]) == 1
    out, err = capsys.readouterr()
    bad = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert [line.split()[1] for line in bad] == failing
    kind = type(exc).__name__
    assert all(line.endswith(f": raised an exception [{kind}: boom]") for line in bad)
    total = len(_REGISTRY)
    passed = total - len(failing)
    assert out.splitlines()[-1].startswith(f"{passed}/{total} checks passed")
    assert err == "" and "Traceback" not in out
