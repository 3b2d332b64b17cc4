import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from patternsort import bijections, cli, machine, sequences
from patternsort.cli import main
from patternsort.grid import GrowthState
from patternsort.paths import LABELED_STEPS, dyck_children
from patternsort.perms import contains_classical, format_perm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_exact_bytes(capsys):
    code, out, err = run(capsys, "simulate", "--sigma", "132", "--perm", "2 4 1 3")
    assert code == 0
    assert out == "s_sigma: 4 3 1 2\nsortable: true\n"
    assert err == ""


def test_simulate_trace(capsys):
    code, out, _ = run(capsys, "simulate", "--perm", "2413", "--trace")
    lines = out.splitlines()
    assert lines[0] == "s_sigma: 4 3 1 2"
    assert lines[2] == "PUSH 2 | stack: 2"
    assert lines[-1] == "POP 2 | stack: (empty)"


def test_simulate_trace_123_matches_generic_machine(capsys):
    p = tuple(random.Random(123).sample(range(1, 301), 300))
    code, out, _ = run(
        capsys, "simulate", "--sigma", "123", "--perm", format_perm(p), "--trace"
    )
    assert code == 0
    s, events = machine._generic_pass(p, (1, 2, 3))
    sortable = str(not contains_classical(s, (2, 3, 1))).lower()
    # each snapshot the generic machine records, joined on its own
    want = [f"s_sigma: {format_perm(s)}", f"sortable: {sortable}"] + [
        f"{op} {value} | stack: {','.join(str(v) for v in snap) if snap else '(empty)'}"
        for op, value, snap in events
    ]
    assert out.splitlines() == want


def test_simulate_trace_with_two_digit_values(capsys):
    # a sortable of length 13: two-digit values next to commas on both sides
    code, out, err = run(capsys, "simulate", "--perm", "11 10 13 4 6 7 8 9 12 3 5 1 2", "--trace")
    assert (code, err) == (0, "")
    assert out == """\
s_sigma: 13 12 9 8 7 6 5 2 1 3 4 10 11
sortable: true
PUSH 11 | stack: 11
PUSH 10 | stack: 10,11
PUSH 13 | stack: 13,10,11
POP 13 | stack: 10,11
PUSH 4 | stack: 4,10,11
PUSH 6 | stack: 6,4,10,11
PUSH 7 | stack: 7,6,4,10,11
PUSH 8 | stack: 8,7,6,4,10,11
PUSH 9 | stack: 9,8,7,6,4,10,11
PUSH 12 | stack: 12,9,8,7,6,4,10,11
POP 12 | stack: 9,8,7,6,4,10,11
POP 9 | stack: 8,7,6,4,10,11
POP 8 | stack: 7,6,4,10,11
POP 7 | stack: 6,4,10,11
POP 6 | stack: 4,10,11
PUSH 3 | stack: 3,4,10,11
PUSH 5 | stack: 5,3,4,10,11
POP 5 | stack: 3,4,10,11
PUSH 1 | stack: 1,3,4,10,11
PUSH 2 | stack: 2,1,3,4,10,11
POP 2 | stack: 1,3,4,10,11
POP 1 | stack: 3,4,10,11
POP 3 | stack: 4,10,11
POP 4 | stack: 10,11
POP 10 | stack: 11
POP 11 | stack: (empty)
"""


def test_sortable(capsys):
    code, out, _ = run(capsys, "sortable", "--perm", "132")
    assert code == 0 and out == "false\n"
    code, out, _ = run(capsys, "sortable", "--perm", "2413")
    assert code == 0 and out == "true\n"


def test_enumerate_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "sortable", "--sigma", "132", "--n", "5", "--count-only"
    )
    assert code == 0
    assert out == "51\n"


def test_enumerate_items_match_library(capsys):
    code, out, _ = run(capsys, "enumerate", "sortable", "--n", "4")
    assert code == 0
    want = [format_perm(p) for p in machine.enumerate_sortable(4, (1, 3, 2))]
    assert out.splitlines() == want


def test_enumerate_sortable_132_matches_brute_force(capsys):
    # sigma = 132 is served by the generating tree, other sigma by brute force
    for n in range(8):
        code, out, _ = run(capsys, "enumerate", "sortable", "--n", str(n))
        want = [format_perm(p) for p in machine.enumerate_sortable(n, (1, 3, 2))]
        assert (code, out) == (0, "\n".join(want) + "\n"), n
    code, out, _ = run(capsys, "enumerate", "sortable", "--sigma", "123", "--n", "4")
    want = [format_perm(p) for p in machine.enumerate_sortable(4, (1, 2, 3))]
    assert (code, out.splitlines()) == (0, want)


def test_map_phi_golden(capsys):
    code, out, _ = run(
        capsys, "map", "phi", "--perm", "13 14 15 10 12 6 7 8 11 9 3 1 4 5 2"
    )
    assert code == 0
    assert out == "111223332345445\n"


def test_map_names_and_aliases(capsys):
    code, out, _ = run(capsys, "map", "sortable-to-rgf", "--perm", "2 1")
    assert (code, out) == (0, "12\n")
    for text in ("12", "1 2", "1,2", "1\t2"):
        code, out, _ = run(capsys, "map", "phi-inverse", "--rgf", text)
        assert (code, out) == (0, "2 1\n"), text
    code, out, _ = run(capsys, "map", "psi", "--rgf", "121")
    assert (code, out) == (0, "UUDUDD\n")
    code, out, _ = run(capsys, "map", "psi-inverse", "--path", "UUDUDD")
    assert (code, out) == (0, "121\n")
    code, out, _ = run(capsys, "map", "gamma", "--rgf", "12321")
    assert (code, out) == (0, "12231\n")
    code, out, _ = run(capsys, "map", "nr-to-av321", "--rgf", "121314234")
    assert (code, out) == (0, "3 5 1 7 2 9 4 6 8\n")


def test_map_beta_with_mode(capsys):
    code, out, _ = run(
        capsys, "map", "beta", "--path", "H0 H1 U U D H2 H0 D H0 H0", "--mode", "stack"
    )
    assert (code, out) == (0, "12134435367\n")
    code, out, _ = run(
        capsys, "map", "beta-inverse", "--rgf", "12134435367", "--mode", "stack"
    )
    assert (code, out) == (0, "H0 H1 U U D H2 H0 D H0 H0\n")


def test_map_json_record(capsys):
    code, out, _ = run(
        capsys, "map", "gamma", "--rgf", "12321", "--json", "--steps"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["input"] == "12321"
    assert doc["output"] == "12231"
    assert doc["statistics"]["max"] == 3
    assert doc["steps"] == [[3, 4, 5]]
    # each map reads its statistics from the right side
    for argv, stats in (
        (("phi", "--perm", "2 3 1"), {"max": 2, "ltr_minima": 2}),
        (("psi-inverse", "--path", "UUDUDD"), {"max": 2, "double_rises": 1}),
        (
            ("beta-inverse", "--rgf", "12134435367"),
            {"max": 7, "U": 2, "D": 2, "H0": 4, "H1": 1, "H2": 1},
        ),
    ):
        code, out, _ = run(capsys, "map", *argv, "--json")
        assert (code, json.loads(out)["statistics"]) == (0, stats), argv


def test_map_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "map", "phi", "--rgf", "12")
    assert code == 2
    assert "requires --perm" in err


def _long_dyck(rng, n):
    # a seeded Dyck path of semilength n, one step at a time
    steps, h = [], 0
    for rest in range(2 * n - 1, -1, -1):
        up = h < rest and (h == 0 or rng.random() < 0.5)
        steps.append("U" if up else "D")
        h += 1 if up else -1
    return "".join(steps)


def test_map_reads_its_object_from_stdin(capsys, monkeypatch):
    # "-" reads the object from stdin, so one past the 128 KiB argv limit
    # fits; the text then gets the same answer, or error, as in argv
    path = _long_dyck(random.Random(100000), 100000)
    code, w, err = run(capsys, "map", "psi-inverse", "--path", path)
    assert (code, err) == (0, "")
    for argv, text in (
        (("psi-inverse", "--path"), path),
        (("psi", "--rgf"), w.removesuffix("\n")),
        (("psi-inverse", "--path"), ""),  # no Dyck path
        (("beta", "--path"), ""),  # the labeled Motzkin path of length 0
        (("phi", "--perm", "--json"), "2 4 1 3"),
        (("phi", "--perm"), "2 2"),
        (("gamma", "--steps", "--json", "--rgf"), "1 2 3 3 2"),
    ):
        want = run(capsys, "map", *argv, text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        assert run(capsys, "map", *argv, "-") == want, (argv, text[:20])


def test_decompose(capsys):
    code, out, _ = run(
        capsys, "decompose", "--perm", "13 14 15 10 12 6 7 8 11 9 3 1 4 5 2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "perm: 13 14 15 10 12 6 7 8 11 9 3 1 4 5 2"
    assert lines[1] == "minima: 13 10 6 3 1"
    assert "C(1,1)=14,15" in lines[3]


def test_table_narayana(capsys):
    code, out, _ = run(capsys, "table", "narayana", "--n", "4")
    assert code == 0
    assert out == "k,value\n1,1\n2,6\n3,6\n4,1\n"


def test_table_sortable_by_minima(capsys):
    code, out, _ = run(capsys, "table", "sortable-by-minima", "--n", "3")
    assert code == 0
    assert out == "k,count\n1,1\n2,3\n3,1\n"


def test_table_bfile(capsys):
    code, out, _ = run(capsys, "table", "a007317", "--n", "3", "--format", "bfile")
    assert code == 0
    assert out == "1 1\n2 2\n3 5\n"


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "a75f888e34c90ff98cfa524fce83d75c80f951e3424c16214964f3be9e48d98a"),
        ("json", "fd1e03d091cdb2541f80714a6cf8118e12b4187a85ce5dc06440809971953f41"),
        ("bfile", "fa7f69fbc9f3e235345efa258ea480010aa664bb702011e4c2650f7ea6da5571"),
    ],
)
def test_table_a007317_by_recurrence(capsys, fmt, digest):
    # sha256 of what the table printed when the closed form built its rows
    code, out, _ = run(capsys, "table", "a007317", "--n", "60", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind, n, top", [("a007317", 6200, 6161), ("narayana", 7156, 7155)])
@pytest.mark.parametrize("fmt", ["csv", "bfile", "json"])
def test_table_refuses_terms_past_the_digit_limit(capsys, monkeypatch, kind, n, top, fmt):
    # the largest term would pass CPython's 4,300-digit limit on printing an
    # int; no cap lifts it, and the refusal comes before any term is computed
    monkeypatch.setattr(sequences, "a007317_terms", None)
    monkeypatch.setattr(sequences, "narayana", None)
    monkeypatch.setattr(sequences, "narayana_row", None)
    argv = ("table", kind, "--n", str(n), "--format", fmt)
    for cap in ((), ("--cap", "100000")):
        code, out, err = run(capsys, *argv, *cap)
        assert (code, out, err) == (2, "", f"error: refusing {kind} table at n={n} (cap {top})\n")
    # a lower cap is obeyed, from the flag or the environment
    code, out, err = run(capsys, "table", kind, "--n", "11", "--format", fmt, "--cap", "10")
    assert (code, out, err) == (2, "", f"error: refusing {kind} table at n=11 (cap 10)\n")
    monkeypatch.setenv("PATTERNSORT_CAP", "10")
    assert run(capsys, "table", kind, "--n", "11", "--format", fmt)[0] == 2


def test_table_a007317_prints_up_to_the_digit_limit(capsys):
    code, out, err = run(capsys, "table", "a007317", "--n", "6161", "--format", "bfile")
    assert (code, err) == (0, "")
    assert len(out.splitlines()[-1].split()[1]) == 4300


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "narayana", "--n", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["rows"] == [[1, 1], [2, 6], [3, 6], [4, 1]]


def test_table_cross_check_failure(capsys, monkeypatch):
    # a wrong closed form fails the table with status 1; json stays one document
    monkeypatch.setattr(sequences, "max_distribution_formula", lambda n, k: -1)
    argv = ("table", "sortable-by-minima", "--n", "3", "--format")
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 1
    assert out == "k,count\n1,1\n2,3\n3,1\ncross-check failed against the closed form\n"
    code, out, _ = run(capsys, *argv, "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["cross_check"] == "failed against the closed form"
    assert doc["rows"] == [[1, 1], [2, 3], [3, 1]]


def test_verify_scope(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "sequences", "--nmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("pass ") for l in lines[:-1])
    assert "checks passed" in lines[-1]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "sequences", "--nmax", "4", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


_VERIFY_USAGE = """\
usage: patternsort verify [-h]
                          [--scope {all,machine,grid,rgf,bijections,sequences}]
                          [--nmax NMAX] [--out OUT] [--json]
"""


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the pinned text is CPython 3.11's argparse wording"
)
def test_verify_scope_help_and_usage_error_are_pinned(capsys, monkeypatch):
    # the scope names are read without loading checks; help and errors keep their bytes
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "verify", "--help") == (0, _VERIFY_USAGE + """\

options:
  -h, --help            show this help message and exit
  --scope {all,machine,grid,rgf,bijections,sequences}
  --nmax NMAX
  --out OUT             write the report to this file
  --json                emit JSON
""", "")
    assert run(capsys, "verify", "--scope", "bogus") == (2, "", _VERIFY_USAGE + (
        "patternsort verify: error: argument --scope: invalid choice: 'bogus' (choose from "
        "'all', 'machine', 'grid', 'rgf', 'bijections', 'sequences')\n"
    ))


def test_verify_scope_choices_are_the_registry_scopes():
    from patternsort.checks import SCOPES

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (scope,) = [a for a in sub.choices["verify"]._actions if a.dest == "scope"]
    assert tuple(scope.choices) == ("all", *SCOPES)


_COLD_START = """
import sys
import patternsort
from patternsort import cli
cli.build_parser()
cli.main(["sortable", "--perm", "2 1 3"])
print(" ".join(sorted(sys.modules)))
assert patternsort.run_checks is patternsort.checks.run_checks
names = {}
exec("from patternsort import *", names)
assert names["run_checks"] is patternsort.checks.run_checks
"""


def test_a_fresh_process_loads_only_what_its_verb_runs():
    # pytest itself loads dataclasses, so the imports are read in a child;
    # -S keeps site's .pth files from loading modules of their own
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_START],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stderr) == (0, "")
    answer, modules = done.stdout.splitlines()
    assert answer == "true"
    loaded = set(modules.split())
    assert "patternsort.cli" in loaded
    for name in ("patternsort.checks", "patternsort.sequences", "dataclasses", "inspect"):
        assert name not in loaded, name


def test_export_trace_json(capsys):
    code, out, _ = run(capsys, "export", "trace", "--perm", "2413", "--format", "json")
    doc = json.loads(out)
    assert doc["output"] == "4 3 1 2"
    assert doc["events"][0] == {"op": "PUSH", "value": 2, "stack": [2]}


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "sortable", "--perm", "2413", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "true\n"


def test_out_flag_unwritable(tmp_path, capsys):
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        code, out, err = run(capsys, "sortable", "--perm", "2413", "--out", str(target))
        assert (code, out) == (2, "") and err.startswith("error: "), target
    assert list(tmp_path.iterdir()) == []


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "simulate", "--perm", "not a perm")
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "sortable", "--n", "25")
    assert code == 2  # over the default cap
    code, out, err = run(capsys, "verify", "--nmax", "0")
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, err = run(capsys, "table", "a007317", "--n", "-3")
    assert (code, out) == (2, "") and err.startswith("error: ")
    for path in ("", "   "):
        code, out, err = run(capsys, "map", "psi-inverse", "--path", path)
        assert (code, out) == (2, "") and err.startswith("error: "), path
    # --pattern is refused where it would be ignored
    for argv in (
        ("enumerate", "sortable", "--n", "3", "--pattern", "12"),
        ("enumerate", "dyck", "--n", "3", "--pattern", "12"),
        ("enumerate", "motzkin", "--n", "3", "--pattern", "12"),
        ("enumerate", "labeled-motzkin", "--n", "3", "--pattern", "12"),
        ("table", "a007317", "--n", "3", "--pattern", "12"),
        ("table", "narayana", "--n", "3", "--pattern", "12"),
        ("table", "sortable-by-minima", "--n", "3", "--pattern", "12"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv
    # a word with no letter is refused by every verb that reads one
    for argv in (
        ("map", "psi", "--rgf", ","),
        ("map", "phi-inverse", "--rgf", ","),
        ("map", "nr-to-av321", "--rgf", ","),
        ("map", "gamma", "--rgf", ","),
        ("map", "phi", "--perm", ","),
        ("map", "av321-to-nr", "--perm", ","),
        ("map", "beta-inverse", "--rgf", " , "),
        ("map", "gamma-inverse", "--rgf", "\t,\t"),
        ("simulate", "--perm", ","),
        ("sortable", "--perm", ","),
        ("export", "trace", "--perm", ","),
        ("enumerate", "rgf", "--n", "3", "--pattern", " , "),
        ("enumerate", "rgf", "--n", "3", "--pattern", ""),
        ("table", "rgf-max", "--n", "3", "--pattern", ""),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv
    code, _, _ = run(capsys, "enumerate", "rgf", "--n", "3", "--pattern", "12")
    assert code == 0
    code, _, _ = run(capsys, "table", "rgf-max", "--n", "3", "--pattern", "12")
    assert code == 0


def test_perm_error_reported_before_sigma_error(capsys):
    # the library validates --perm first; a --sigma that is no word at all
    # still waits for it
    for verb in (("simulate",), ("sortable",), ("export", "trace")):
        for perm, sigma, want in (
            ("11", "x", "not a permutation of 1..n: (1, 1)"),
            ("11", "22", "not a permutation of 1..n: (1, 1)"),
            ("x", "11", "cannot parse word 'x'"),
            ("21", "x", "cannot parse word 'x'"),
            ("21", "11", "not a permutation of 1..n: (1, 1)"),
            ("21", "1", "control pattern must have length >= 2"),
        ):
            code, out, err = run(capsys, *verb, "--perm", perm, "--sigma", sigma)
            assert (code, out) == (2, "") and err.startswith(f"error: {want}"), (verb, perm, sigma)


def test_cap_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PATTERNSORT_CAP", "4")
    code, _, err = run(capsys, "enumerate", "sortable", "--n", "5", "--count-only")
    assert code == 2 and "cap" in err
    code, out, _ = run(
        capsys, "enumerate", "sortable", "--n", "5", "--count-only", "--cap", "6"
    )
    assert code == 0 and out == "51\n"


def test_deterministic_output(capsys):
    a = run(capsys, "enumerate", "rgf", "--n", "4")
    b = run(capsys, "enumerate", "rgf", "--n", "4")
    assert a == b


def test_thin_adapter(capsys):
    # the CLI answer equals the direct library composition, byte for byte
    _, out, _ = run(capsys, "map", "phi", "--perm", "5 6 3 1 4 2")
    from patternsort.rgf import format_rgf

    assert out.rstrip("\n") == format_rgf(bijections.sortable_to_rgf((5, 6, 3, 1, 4, 2)))
    _, out, _ = run(capsys, "sortable", "--perm", "5 6 3 1 4 2")
    assert (out.rstrip("\n") == "true") == machine.is_sigma_sortable((5, 6, 3, 1, 4, 2))


# -- one parser per process -------------------------------------------------


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "patternsort":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv in (
        ("sortable", "--perm", "2413"),
        ("map", "phi", "--perm", "2 1"),
        ("frobnicate",),
        ("simulate", "--perm", "2413", "--trace"),
    ):
        run(capsys, *argv)
    assert len(built) == 1 and built[0] is cli.build_parser()


def test_flags_do_not_leak_between_calls(capsys):
    plain = "s_sigma: 4 3 1 2\nsortable: true\n"
    code, out, _ = run(capsys, "simulate", "--perm", "2413", "--trace")
    assert code == 0 and out.startswith(plain) and "PUSH 2" in out
    assert run(capsys, "simulate", "--perm", "2413") == (0, plain, "")
    # relaxed mode maps a non-sortable permutation; the next call checks again
    assert run(capsys, "map", "phi", "--perm", "1 3 2", "--relaxed") == (0, "111\n", "")
    code, out, err = run(capsys, "map", "phi", "--perm", "1 3 2")
    assert (code, out) == (2, "") and "not sortable" in err
    code, out, _ = run(capsys, "sortable", "--perm", "2413", "--json")
    assert code == 0 and json.loads(out)["sortable"] is True
    assert run(capsys, "sortable", "--perm", "2413") == (0, "true\n", "")
    # a non-default choice does not become the next call's default
    path = ("map", "beta", "--path", "U U D D")
    assert run(capsys, *path, "--mode", "queue") == (0, "12323\n", "")
    assert run(capsys, *path) == (0, "12332\n", "")


def test_usage_error_then_valid_call(capsys):
    want = (0, "s_sigma: 4 3 1 2\nsortable: true\n", "")
    for bad in (
        ("simulate", "--perm", "2413", "--bogus"),
        ("simulate",),
        ("map", "no-such-map", "--rgf", "1"),
        ("enumerate", "sortable", "--n", "three"),
        (),
    ):
        code, out, err = run(capsys, *bad)
        assert (code, out) == (2, "") and "usage: patternsort" in err, bad
        assert run(capsys, "simulate", "--perm", "2413") == want, bad


def test_help_goes_to_the_current_stream(capsys, monkeypatch):
    for argv, usage in (
        (["--help"], "usage: patternsort "),
        (["map", "--help"], "usage: patternsort map "),
    ):
        for _ in range(2):  # a fresh stream each time, after the parser exists
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            assert buf.getvalue().startswith(usage)
            assert capsys.readouterr() == ("", "")
    # usage errors follow sys.stderr the same way
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        assert main(["frobnicate"]) == 2
    assert "invalid choice" in buf.getvalue()
    # the terminal width is read when help prints, not when the parser is built
    cli.build_parser()
    lines = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "map", "--help")
        assert code == 0
        lines.append(len(out.splitlines()))
    assert lines[0] > lines[1]


# -- plain argv skip argparse ----------------------------------------------


def _reference_args(argv):
    """What argparse makes of argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


def _pieces() -> dict[str, tuple[list, list]]:
    """Per verb, argv pieces read off its parser: one strategy per plain
    action (a flag and a value, a store-true flag, a choice), and the
    pieces only argparse takes (help, an abbreviated flag, --flag=v)."""
    (sub,) = [
        a
        for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    pieces = {}
    for verb, parser in sub.choices.items():
        plain, other = [], []
        for a in parser._actions:
            if isinstance(a, argparse._HelpAction):
                other += [(flag,) for flag in a.option_strings]
                continue
            if not a.option_strings:
                plain.append(st.sampled_from(a.choices).map(lambda v: (v,)))
                continue
            values = [*(a.choices or ()), *(_NUMBERS if a.type is int else _WORDS)]
            for flag in a.option_strings:
                if a.nargs == 0:
                    plain.append(st.just((flag,)))
                else:
                    plain.append(st.tuples(st.just(flag), st.sampled_from(values)))
                other += [(flag[:-1],), (f"{flag}=x",)]
        pieces[verb] = (plain, other)
    return pieces


_WORDS = ["", "-1", "x", "2413", "1 2 3"]
_NUMBERS = ["-1", "x", "0", "3", "5"]  # small, so every verb runs fast
_JUNK = [("--",), ("-h",), ("frobnicate",), *((v,) for v in _WORDS)]
_PIECES = _pieces()


def _argvs(verb: str):
    """verb, then each plain piece at most once, mixed with up to two
    others: a repeat, or a piece only argparse takes."""
    plain, other = _PIECES.get(verb, ([], []))
    junk = st.sampled_from(other + _JUNK)
    once = st.tuples(*(st.one_of(st.none(), p) for p in plain))
    extra = st.lists(st.one_of(*plain, junk), max_size=2)
    return st.tuples(once, extra).flatmap(
        lambda t: st.permutations([p for p in t[0] if p is not None] + t[1])
    ).map(lambda ps: [verb, *(s for p in ps for s in p)])


_ARGVS = st.sampled_from([*_PIECES, "frobnicate", "-h", "--", ""]).flatmap(_argvs)


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


@settings(max_examples=400, deadline=None)
@given(argv=_ARGVS)
def test_plain_args_agree_with_argparse(argv, report_dir):
    want = _reference_args(argv)
    got = cli._plain_args(argv)
    assert got is None or got == want
    dashed = [s for s in argv if s.startswith("-")]
    if len(dashed) != len(set(dashed)):
        assert got is None  # a repeated flag is left to argparse
    if want is not None and want.verb == "verify":
        return  # the parse is what is checked here; verify has its own tests
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(report_dir)  # --out writes here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""


def test_plain_argv_of_every_verb_skip_argparse():
    r, p, steps = "1 1 2 1", "2 1 3", "U H1 D"
    for argv in (
        ("simulate", "--perm", p, "--trace"),
        ("simulate", "--sigma", "123", "--perm", p, "--json", "--out", ""),
        ("sortable", "--perm", p),
        ("enumerate", "rgf", "--n", "4", "--pattern", "1221", "--count-only", "--cap", "9"),
        ("decompose", "--perm", p),
        ("map", "phi-inverse", "--rgf", r),
        ("map", "phi", "--perm", p),
        ("map", "gamma", "--rgf", r),
        ("map", "gamma-inverse", "--rgf", r),
        ("map", "psi-inverse", "--path", "UDUD"),
        ("map", "psi", "--rgf", r),
        ("map", "beta", "--path", steps),
        ("map", "beta-inverse", "--rgf", r),
        ("map", "nr-to-av321", "--rgf", r),
        ("map", "av321-to-nr", "--perm", p),
        ("map", "--mode", "queue", "beta", "--path", steps, "--reduced", "--json"),
        ("verify", "--scope", "sequences", "--nmax", "4"),
        ("table", "a007317", "--n", "3", "--format", "bfile"),
        ("export", "trace", "--perm", p, "--format", "json"),
    ):
        got = cli._plain_args(list(argv))
        assert got is not None and got == _reference_args(list(argv)), argv


# -- every map round trips through the CLI ----------------------------------
# seeded objects of length n, grown by the walks of
# test_bijections.test_every_map_round_trips_at_length_300


def _sortable(rng, n):
    s = GrowthState()
    for _ in range(n):
        _, s = rng.choice(s.children())
    return s.perm


def _dyck(rng, n):
    path = ""
    while len(path) < 2 * n:
        path = rng.choice(dyck_children(path))
    return path


def _motzkin(rng, n):
    steps, h = [], 0
    for rest in range(n - 2, -1, -1):
        # rest steps follow this one, so the height must stay within reach of 0
        options = [
            t
            for t in LABELED_STEPS
            if (h > 0 or t not in ("D", "H2")) and h + (t == "U") - (t == "D") <= rest
        ]
        steps.append(rng.choice(options))
        h += (steps[-1] == "U") - (steps[-1] == "D")
    return tuple(steps)


def _nr_word(rng, n):
    # non-maxima weakly increasing: each letter is a new maximum or >= low
    w, mx, low = [1], 1, 1
    while len(w) < n:
        x = rng.randint(low, mx + 1)
        if x > mx:
            mx = x
        else:
            low = x
        w.append(x)
    return tuple(w)


def _phi(rng, n):
    return bijections.sortable_to_rgf(_sortable(rng, n))


_ROUND_TRIPS = {  # map: its inverse, and its seeded input of length n
    "phi": ("phi-inverse", _sortable),
    "phi-inverse": ("phi", _phi),
    "gamma": ("gamma-inverse", _phi),
    "gamma-inverse": ("gamma", lambda rng, n: bijections.to_12321_avoider(_phi(rng, n))),
    "psi": ("psi-inverse", lambda rng, n: bijections.dyck_path_to_rgf(_dyck(rng, n))),
    "psi-inverse": ("psi", _dyck),
    "beta": ("beta-inverse", _motzkin),
    "beta-inverse": (
        "beta", lambda rng, n: bijections.labeled_motzkin_to_rgf(_motzkin(rng, n))
    ),
    "nr-to-av321": ("av321-to-nr", _nr_word),
    "av321-to-nr": ("nr-to-av321", lambda rng, n: bijections.rgf_to_av321(_nr_word(rng, n))),
}


def _map_text(name, flag, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["map", name, flag, text])
    assert (code, err.getvalue()) == (0, ""), (name, text)
    return out.getvalue().removesuffix("\n")


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(_ROUND_TRIPS)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
)
def test_map_round_trips_through_the_cli(name, seed, n):
    inverse, build = _ROUND_TRIPS[name]
    m = cli._MAPS[name]
    src, dst = cli._KINDS[m.src], cli._KINDS[m.dst]
    text = src.show(build(random.Random(seed), n))
    assert _map_text(inverse, dst.flag, _map_text(name, src.flag, text)) == text
