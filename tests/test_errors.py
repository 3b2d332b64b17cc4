"""Error paths that no other test, check or benchmark workload reaches."""

import contextlib
import io
import os
from unittest import mock

import pytest

from patternsort import bijections, grid, machine, paths, perms, rgf, sequences
from patternsort.cli import main
from patternsort.errors import InvalidInputError


def _outcome(call):
    """What the call returns, or the type and message of what it raises."""
    try:
        return call()
    except InvalidInputError as exc:
        return type(exc), str(exc)


def _cli(env, *argv):
    """The exit code and standard error of one in-process CLI run."""
    err = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def _no_witness():
    report = machine.verify_characterizations(3, (1, 2, 3, 4))
    return report.kind, report.holds, report.detail, report.counterexamples


_CASES = {
    "decompose-empty": (
        lambda: grid.decompose(()),
        (InvalidInputError, "cannot decompose the empty permutation"),
    ),
    "decomposition-lines-empty": (
        lambda: grid.decomposition_lines(()),
        (InvalidInputError, "cannot decompose the empty permutation"),
    ),
    "active-cells-empty": (
        lambda: grid.active_cells(()),
        (InvalidInputError, "the empty permutation has no cells"),
    ),
    "labeled-motzkin-of-empty": (
        lambda: bijections.rgf_to_labeled_motzkin(()),
        (InvalidInputError, "need a word of length >= 1"),
    ),
    # a Dyck path is a str: a list of its steps is refused, not split
    "dyck-path-to-rgf-of-a-list": (
        lambda: bijections.dyck_path_to_rgf(["U", "D"]),
        (InvalidInputError, "not a Dyck path: ['U', 'D']"),
    ),
    "dyck-children-of-a-list": (
        lambda: paths.dyck_children(["U", "D"]),
        (InvalidInputError, "not a Dyck path: ['U', 'D']"),
    ),
    "dyck-parent-of-a-tuple": (
        lambda: paths.dyck_parent(("U", "D")),
        (InvalidInputError, "not a Dyck path: ('U', 'D')"),
    ),
    "double-rises-of-a-list": (
        lambda: paths.double_rises(["U", "D"]),
        (InvalidInputError, "not a Dyck path: ['U', 'D']"),
    ),
    "all-perms-negative": (
        lambda: list(perms.all_perms(-1)),
        (InvalidInputError, "length must be nonnegative"),
    ),
    "partition-empty-block": (
        lambda: rgf.partition_to_rgf([[1], []]),
        (InvalidInputError, "empty block in partition"),
    ),
    "partition-shared-element": (
        lambda: rgf.partition_to_rgf([[1, 2], [2]]),
        (InvalidInputError, "element 2 appears in two blocks"),
    ),
    "partition-gap": (
        lambda: rgf.partition_to_rgf([[1, 3]]),
        (InvalidInputError, "blocks do not cover 1..n"),
    ),
    "catalan-negative": (
        lambda: sequences.catalan(-1),
        (InvalidInputError, "catalan is defined for n >= 0"),
    ),
    "motzkin-negative": (
        lambda: sequences.motzkin(-1),
        (InvalidInputError, "motzkin is defined for n >= 0"),
    ),
    "bell-negative": (
        lambda: sequences.bell(-1),
        (InvalidInputError, "bell is defined for n >= 0"),
    ),
    "a007317-negative": (
        lambda: sequences.a007317(-1),
        (InvalidInputError, "a007317 is defined for n >= 0"),
    ),
    "double-partial-sums-negative": (
        lambda: sequences.catalan_double_partial_sums(-1),
        (InvalidInputError, "defined for n >= 0"),
    ),
    "cap-from-environment-not-an-int": (
        lambda: _cli({"PATTERNSORT_CAP": "abc"}, "enumerate", "sortable", "--n", "3"),
        (2, "error: PATTERNSORT_CAP='abc' is not an integer\n"),
    ),
    "no-witness-report": (
        _no_witness,
        ("non-class", False, "no witness found up to n=3", ()),
    ),
}


@pytest.mark.parametrize("case", _CASES)
def test_error_path_reports_exactly(case):
    # an exception type compares by identity, so a subclass does not pass
    call, want = _CASES[case]
    assert _outcome(call) == want
