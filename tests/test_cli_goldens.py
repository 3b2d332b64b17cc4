"""One digest over the CLI's output on every small input of every verb.

The digest is a sha256 over (argv, exit code, stdout, stderr) of each
in-process ``cli.main`` call listed by ``_argvs``: every map on objects of
length at most 5, ``simulate`` with and without ``--trace`` and
``--json``, ``sortable`` under several controls and with ``--json``, and
``decompose --json`` on every permutation of length at most 5, the
path maps on every short U/D string that is not a Dyck path and every
short token sequence that is not a labeled Motzkin path,
``enumerate`` of each kind (with a control and a pattern too) at
n = -1..5 and past a cap, every ``table`` kind and format (with a pattern
too), and ``export``.  ``verify`` is left out, because its JSON carries
timings.  A change that alters CLI output on purpose updates ``GOLDEN``
and names the change in CHANGES.md.
"""

import contextlib
import hashlib
import io
from itertools import permutations, product

from patternsort import paths, rgf
from patternsort.cli import main
from patternsort.perms import format_perm
from patternsort.rgf import format_rgf

GOLDEN = (4666, "1f01ea6d92530b2f2633a8272f3bebcadeb46c324efdb6f384c6f85edd87f58b")

JSON = ["--json"]
PERMS = [format_perm(p) for n in range(1, 6) for p in permutations(range(1, n + 1))]
WORDS = [format_rgf(r) for n in range(1, 6) for r in rgf.enumerate_rgfs(n)]
DYCKS = [d for k in range(1, 6) for d in paths.enumerate_dyck(k)]
STEPS = [paths.format_steps(s) for n in range(5) for s in paths.enumerate_labeled_motzkin(n)]
NON_DYCKS = [
    x for n in range(1, 7) for x in map("".join, product("UD", repeat=n)) if x not in DYCKS
] + ["UXD"]
NON_STEPS = [
    x
    for n in range(1, 4)
    for x in map(paths.format_steps, product(("U", "D", "H0", "H1", "H2"), repeat=n))
    if x not in STEPS
] + ["H3", "U X D"]
MODES = [[], JSON, ["--mode", "queue"], ["--reduced"], ["--mode", "queue", "--reduced", "--json"]]

# (map name, input flag, inputs, extra flag sets)
MAPS = (
    ("phi", "--perm", PERMS, [[], JSON, ["--relaxed"]]),
    ("phi-inverse", "--rgf", WORDS, [[], JSON]),
    ("psi", "--rgf", WORDS, [[], JSON]),
    ("psi-inverse", "--path", DYCKS, [[], JSON]),
    ("beta", "--path", STEPS, MODES),
    ("beta-inverse", "--rgf", WORDS, MODES),
    ("nr-to-av321", "--rgf", WORDS, [[], JSON]),
    ("av321-to-nr", "--perm", PERMS, [[], JSON]),
    ("gamma", "--rgf", WORDS, [[], JSON, ["--json", "--steps"]]),
    ("gamma-inverse", "--rgf", WORDS, [[], JSON, ["--json", "--steps"]]),
)
ALIASES = (
    ("sortable-to-rgf", "--perm", "2 4 1 3"),
    ("rgf-to-sortable", "--rgf", "1213"),
    ("rgf-to-dyck", "--rgf", "1213"),
    ("dyck-to-rgf", "--path", "UUDUDD"),
    ("motzkin-to-rgf", "--path", "H0 U H2 D"),
    ("rgf-to-motzkin", "--rgf", "12332"),
    ("rgf-to-av321", "--rgf", "1213"),
    ("av321-to-rgf", "--perm", "2 4 1 3"),
    ("to-12321", "--rgf", "12231"),
    ("to-12231", "--rgf", "12321"),
)


def _argvs():
    for name, flag, inputs, extras in MAPS:
        for x in inputs:
            for extra in extras:
                yield ["map", name, flag, x, *extra]
    for x in NON_DYCKS:
        yield ["map", "psi-inverse", "--path", x]
    for x in NON_STEPS:
        yield ["map", "beta", "--path", x]
    for name, flag, x in ALIASES:
        yield ["map", name, flag, x, "--json"]
    for p in PERMS:
        for extra in ([], ["--trace"], JSON, ["--trace", "--json"]):
            yield ["simulate", "--perm", p, *extra]
        yield ["decompose", "--perm", p, "--json"]
        yield ["sortable", "--perm", p, "--json"]
        for sigma in ("123", "321", "1324", "21"):
            yield ["sortable", "--sigma", sigma, "--perm", p]
    for kind in (
        ["sortable"],
        ["sortable", "--sigma", "123"],
        ["rgf"],
        ["rgf", "--pattern", "1221"],
        ["dyck"],
        ["motzkin"],
        ["labeled-motzkin"],
    ):
        for n in range(-1, 6):
            for extra in ([], JSON, ["--count-only"], ["--json", "--count-only"]):
                yield ["enumerate", *kind, "--n", str(n), *extra]
    yield ["enumerate", "rgf", "--n", "5", "--cap", "4"]
    for kind in (
        ["sortable-by-minima"],
        ["rgf-max"],
        ["rgf-max", "--pattern", "12321"],
        ["narayana"],
        ["a007317"],
    ):
        for n in range(0, 7):
            for fmt in ("csv", "json", "bfile"):
                yield ["table", *kind, "--n", str(n), "--format", fmt]
    for p in ("1", "2 4 1 3", "3 1 2", "3 4 1 2 5"):
        for sigma in ("132", "123", "1324"):
            for fmt in ("text", "json"):
                yield ["export", "trace", "--perm", p, "--sigma", sigma, "--format", fmt]
        for fmt in ("text", "json"):
            yield ["export", "decomposition", "--perm", p, "--format", fmt]


def test_cli_output_digest():
    digest = hashlib.sha256()
    calls = 0
    for argv in _argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        calls += 1
    assert (calls, digest.hexdigest()) == GOLDEN
