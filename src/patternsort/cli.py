"""Command-line surface: every verb is a thin adapter over the library.

Exit codes: 0 on success, 1 when a verification or cross-check fails,
2 on usage errors (bad flags, malformed or oversized inputs).

A verb body returns ``(text, status)`` or ``(document, status)``, where a
document is a dict; only ``main`` serializes, and every JSON document
it writes opens with the ``schema`` version.

The argument parser is built once per process: ``build_parser()`` returns
the same shared parser on every call.  Callers treat that parser as
read-only, since a change to it would reach every later ``main`` call in
the process.  Reuse is safe because argparse makes a fresh ``Namespace``
per parse and keeps no state between parses, and because usage errors
and ``--help`` look up ``sys.stdout``, ``sys.stderr`` and the terminal
width when they print.

``main`` first tries ``_plain_args``, which reads plain argv straight off
a table of the parser's own actions: a known verb, then that verb's exact
flags, each at most once, with values that do not start with ``-``,
convert by the flag's type and lie in its choices, and every required
flag and positional present.  It answers the very ``Namespace`` that
``parse_args`` would, or ``None``, and argparse decides everything else:
help, usage errors, abbreviations, ``--flag=value``, ``--`` and negative
numbers.  argparse stays the reference the table is tested against.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import _SCOPES, bijections, grid, machine, paths, rgf
from .errors import InvalidInputError, MalformedInputError, ResourceLimitError, check_size
from .perms import _contains_231, as_perm, format_perm, ltr_minima, parse_word
from .rgf import format_rgf

ENV_CAP = "PATTERNSORT_CAP"
SCHEMA = 1


def _object(args: argparse.Namespace, flag: str, verb: str) -> str:
    """The text of --perm, --rgf or --path, in every verb that reads one."""
    text = getattr(args, flag[2:], None)
    if text is None:
        raise InvalidInputError(f"{verb} requires {flag}")
    if text == "-":  # the object is read from stdin, past the argv size limit
        text = sys.stdin.read().removesuffix("\n")
    return text


# -- enumerate and table: one row per kind ---------------------------------

# per flag, the one kind of each verb that reads it
_READERS = {
    "--pattern": {"enumerate": "rgf", "table": "rgf-max"},
    "--sigma": {"enumerate": "sortable", "export": "trace"},
}


def _refuse_unread(args: argparse.Namespace) -> None:
    """Refuse --pattern, then --sigma, when given to a kind that would ignore it."""
    for flag, readers in _READERS.items():
        reader = readers.get(args.verb)
        if reader and args.kind != reader and getattr(args, flag[2:]) is not None:
            raise InvalidInputError(f"{flag} applies only to kind {reader}, not {args.kind}")


def _sigma(args: argparse.Namespace) -> tuple[int, ...]:
    """--sigma as a word, 132 when it is not given."""
    return parse_word("132" if args.sigma is None else args.sigma)


def _row(args: argparse.Namespace, rows: dict) -> tuple[Any, int]:
    """The row of args.kind and its cap: --cap, else $PATTERNSORT_CAP, else the
    row's.  A flag the kind would ignore is refused first."""
    _refuse_unread(args)
    row = rows[args.kind]
    if args.cap is not None:
        return row, args.cap
    env = os.environ.get(ENV_CAP)
    if env is None:
        return row, row.cap
    try:
        return row, int(env)
    except ValueError as exc:
        raise InvalidInputError(f"{ENV_CAP}={env!r} is not an integer") from exc


def _sortable(args: argparse.Namespace, cap: int) -> list[tuple[int, ...]]:
    sigma = _sigma(args)  # the library validates it, before the cap
    if sigma == (1, 3, 2):
        return grid.generate_sortable(args.n, cap)
    return machine.enumerate_sortable(args.n, sigma, cap)


def _rgfs(args: argparse.Namespace, cap: int) -> Iterable[tuple[int, ...]]:
    if args.pattern is None:
        return rgf.enumerate_rgfs(args.n, cap)
    return rgf.enumerate_avoiders(args.n, parse_word(args.pattern), cap)


class _Lister(NamedTuple):
    """One kind of enumerate: its default cap, ``items(args, cap)`` and their kind."""

    cap: int
    items: Callable[[argparse.Namespace, int], Iterable[Any]]
    kind: str  # a key of _KINDS, which formats each item


_ENUMERATE = {
    "sortable": _Lister(machine.DEFAULT_PERM_CAP, _sortable, "perm"),
    "rgf": _Lister(rgf.DEFAULT_RGF_CAP, _rgfs, "rgf"),
    "dyck": _Lister(paths.DEFAULT_PATH_CAP, lambda a, cap: paths.enumerate_dyck(a.n, cap), "dyck"),
    "motzkin": _Lister(
        paths.DEFAULT_PATH_CAP, lambda a, cap: paths.enumerate_motzkin(a.n, cap), "steps"
    ),
    "labeled-motzkin": _Lister(
        paths.DEFAULT_LABELED_CAP, lambda a, cap: paths.enumerate_labeled_motzkin(a.n, cap), "steps"
    ),
}


def _sequences():
    from . import sequences  # loaded by table alone

    return sequences


def _column(dist: dict[int, int], n: int) -> list[int]:
    return [dist.get(k, 0) for k in range(1, n + 1)]


def _rgf_max(args: argparse.Namespace, cap: int) -> list[int]:
    pattern = (1, 2, 3, 3, 2) if args.pattern is None else parse_word(args.pattern)
    return _column(rgf.max_distribution(args.n, pattern, cap), args.n)


class _Table(NamedTuple):
    """One kind of table: its header, default cap, ``values(args, cap)`` at
    1..n, and the closed form ``closed(n)`` they must equal, if it has one."""

    header: str
    cap: int
    values: Callable[[argparse.Namespace, int], list[int]]
    closed: Callable[[int], list[int]] | None = None
    digits: bool = False


_TABLES = {
    "sortable-by-minima": _Table(
        "k,count", machine.DEFAULT_PERM_CAP,
        lambda a, cap: _column(grid.minima_distribution(a.n, cap), a.n),
        lambda n: _sequences().max_distribution_row(n),
    ),
    "rgf-max": _Table("max,count", rgf.DEFAULT_RGF_CAP, _rgf_max),
    # a digits cap is the largest n whose terms print under CPython's default
    # 4,300-digit limit on int-to-str: --cap can lower it but not lift it, and
    # a lower limit is checked against the terms themselves
    "narayana": _Table("k,value", 7155, lambda a, cap: _sequences().narayana_row(a.n), digits=True),
    "a007317": _Table("n,value", 6161, lambda a, cap: _sequences().a007317_terms(a.n), digits=True),
}


# -- verb bodies ------------------------------------------------------------

def _words(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """--perm and --sigma as words; the library validates them, --perm first."""
    p = parse_word(_object(args, "--perm", args.verb))
    try:
        return p, _sigma(args)
    except InvalidInputError:
        as_perm(p)  # a --perm that is no permutation is reported first
        raise


def _do_simulate(args) -> tuple[str | dict, int]:
    p, sigma = _words(args)
    out, trace = machine.sigma_stack_pass(p, sigma)
    sortable = not _contains_231(out)
    if args.json:
        doc = {
            "perm": format_perm(p),
            "sigma": format_perm(sigma),
            "s_sigma": format_perm(out),
            "sortable": sortable,
        }
        if args.trace:
            doc["trace"] = trace.as_dicts()
        return doc, 0
    lines = [f"s_sigma: {format_perm(out)}", f"sortable: {str(sortable).lower()}"]
    if args.trace:
        lines.extend(trace.as_lines())
    return "\n".join(lines), 0


def _do_sortable(args) -> tuple[str | dict, int]:
    p, sigma = _words(args)
    result = machine.is_sigma_sortable(p, sigma)
    if args.json:
        return {"perm": format_perm(p), "sigma": format_perm(sigma), "sortable": result}, 0
    return str(result).lower(), 0


def _do_enumerate(args) -> tuple[str | dict, int]:
    row, cap = _row(args, _ENUMERATE)
    show = _KINDS[row.kind].show
    items = [show(x) for x in row.items(args, cap)]
    if args.json:
        doc = {"kind": args.kind, "n": args.n, "count": len(items)}
        if not args.count_only:
            doc["items"] = items
        return doc, 0
    if args.count_only:
        return str(len(items)), 0
    return "\n".join(items), 0


def _decompose(args: argparse.Namespace, as_json: bool) -> tuple[str | dict, int]:
    p = parse_word(_object(args, "--perm", args.verb))  # the library validates it
    if as_json:
        d = grid.decompose(p)
        return {
            "perm": format_perm(p),
            "minima": [[pos, val] for pos, val in d.minima],
            "blocks": [list(b) for b in d.blocks],
            "hstrips": [list(h) for h in d.hstrips],
            "cells": {f"{i},{j}": list(c) for (i, j), c in sorted(d.cells.items())},
            "core": list(d.core),
        }, 0
    return "\n".join([f"perm: {format_perm(p)}", *grid.decomposition_lines(p)]), 0


def _parse_dyck(text: str) -> str:
    path = text.strip()
    if not path:
        raise InvalidInputError("empty Dyck path")
    return path


class _Kind(NamedTuple):
    """One kind of map input or output: its flag, parser and formatter."""

    flag: str
    parse: Callable[[str], Any]
    show: Callable[[Any], str]


_KINDS = {
    "perm": _Kind("--perm", parse_word, format_perm),  # the map validates it
    "rgf": _Kind("--rgf", parse_word, format_rgf),
    "dyck": _Kind("--path", _parse_dyck, str),
    "steps": _Kind("--path", paths.parse_steps, paths.format_steps),
}


def _sortable_stats(side: dict) -> dict:
    return {"ltr_minima": len(ltr_minima(side["perm"]))}


def _dyck_stats(side: dict) -> dict:
    return {"double_rises": paths.double_rises(side["dyck"])}


def _motzkin_stats(side: dict) -> dict:
    return {s: side["steps"].count(s) for s in paths.LABELED_STEPS}


class _Map(NamedTuple):
    """One map: its input and output kinds, the library call, statistics.

    ``call(input, args)`` returns the output, or (output, swap steps) when
    ``swaps`` is set.  The statistics are the maximum letter of the RGF
    side plus what ``stats`` reads from the two sides, keyed by kind.
    """

    src: str
    dst: str
    call: Callable[[Any, argparse.Namespace], Any]
    stats: Callable[[dict], dict] | None = None
    swaps: bool = False


_MAPS = {
    "phi": _Map(
        "perm", "rgf",
        lambda p, a: bijections.sortable_to_rgf(p, relaxed=a.relaxed),
        _sortable_stats,
    ),
    "phi-inverse": _Map(
        "rgf", "perm", lambda r, a: bijections.rgf_to_sortable(r), _sortable_stats
    ),
    "psi": _Map(
        "rgf", "dyck", lambda r, a: bijections.rgf_to_dyck_path(r), _dyck_stats
    ),
    "psi-inverse": _Map(
        "dyck", "rgf", lambda d, a: bijections.dyck_path_to_rgf(d), _dyck_stats
    ),
    "beta": _Map(
        "steps", "rgf",
        lambda s, a: bijections.labeled_motzkin_to_rgf(s, a.mode, reduced=a.reduced),
        _motzkin_stats,
    ),
    "beta-inverse": _Map(
        "rgf", "steps",
        lambda r, a: bijections.rgf_to_labeled_motzkin(r, a.mode, reduced=a.reduced),
        _motzkin_stats,
    ),
    "nr-to-av321": _Map("rgf", "perm", lambda r, a: bijections.rgf_to_av321(r)),
    "av321-to-nr": _Map("perm", "rgf", lambda p, a: bijections.av321_to_rgf(p)),
    "gamma": _Map(
        "rgf", "rgf",
        lambda r, a: bijections.to_12321_avoider(r, with_steps=True),
        swaps=True,
    ),
    "gamma-inverse": _Map(
        "rgf", "rgf",
        lambda r, a: bijections.to_12231_avoider(r, with_steps=True),
        swaps=True,
    ),
}

_MAP_ALIASES = {
    "sortable-to-rgf": "phi",
    "rgf-to-sortable": "phi-inverse",
    "rgf-to-dyck": "psi",
    "dyck-to-rgf": "psi-inverse",
    "motzkin-to-rgf": "beta",
    "rgf-to-motzkin": "beta-inverse",
    "rgf-to-av321": "nr-to-av321",
    "av321-to-rgf": "av321-to-nr",
    "to-12321": "gamma",
    "to-12231": "gamma-inverse",
}

MAP_NAMES = tuple(sorted({*_MAPS, *_MAP_ALIASES}))


def _do_map(args) -> tuple[str | dict, int]:
    m = _MAPS[_MAP_ALIASES.get(args.name, args.name)]
    src, dst = _KINDS[m.src], _KINDS[m.dst]
    x = src.parse(_object(args, src.flag, f"map {args.name}"))
    y = m.call(x, args)
    swaps = None
    if m.swaps:
        y, swaps = y
    out_text = dst.show(y)
    if not args.json:
        return out_text, 0
    side = {m.src: x, m.dst: y}  # gamma keeps the letters, so either RGF will do
    stats = {"max": max(side["rgf"], default=0)}
    if m.stats:
        stats.update(m.stats(side))
    if swaps is not None:
        stats["swaps"] = len(swaps)
    doc = {"map": args.name, "input": src.show(x), "output": out_text, "statistics": stats}
    if args.steps and swaps is not None:
        doc["steps"] = [list(t) for t in swaps]
    return doc, 0


def _do_verify(args) -> tuple[str | dict, int]:
    from .checks import run_checks

    results = run_checks(args.scope, args.nmax)
    failed = [r for r in results if not r.passed]
    if args.json:
        return {
            "scope": args.scope,
            "nmax": args.nmax,
            "passed": not failed,
            "checks": [{**r._asdict(), "seconds": round(r.seconds, 3)} for r in results],
        }, 1 if failed else 0
    lines = []
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        line = f"{mark} {r.name} ({r.seconds:.3f}s): {r.detail}"
        if not r.passed:
            line += f" [{r.counterexample}]"
        lines.append(line)
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"(scope {args.scope}, nmax {args.nmax})"
    )
    return "\n".join(lines), 1 if failed else 0


def _do_table(args) -> tuple[str | dict, int]:
    kind, n = args.kind, args.n
    if n < 1:
        raise InvalidInputError(f"--n must be >= 1, got {n}")
    row, cap = _row(args, _TABLES)
    if row.digits:  # the sequences take no cap, so it is checked here
        check_size(n, min(cap, row.cap), f"{kind} table at n={n}")
    values = row.values(args, cap)
    status = int(row.closed is not None and values != row.closed(n))
    # a term has more than L digits exactly when it is >= 10**L; L is 0 (no
    # limit) when set so, and on Python before 3.11
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(values) >= 10**limit:
        raise ResourceLimitError(
            f"refusing {kind} table at n={n} (a term has more than {limit} "
            "digits, the int-to-str limit)"
        )
    rows = list(enumerate(values, start=1))
    failed = "failed against the closed form"
    if args.format == "json":
        doc = {"kind": kind, "n": n, "columns": row.header.split(","), "rows": rows}
        if status:
            doc["cross_check"] = failed
        return doc, status
    if args.format == "bfile":
        body = "\n".join(f"{i} {v}" for i, v in rows)
    else:
        body = "\n".join([row.header] + [f"{i},{v}" for i, v in rows])
    if status:
        body += f"\ncross-check {failed}"
    return body, status


def _do_export(args) -> tuple[str | dict, int]:
    _refuse_unread(args)
    if args.kind == "decomposition":
        return _decompose(args, args.format == "json")
    p, sigma = _words(args)
    out, trace = machine.sigma_stack_pass(p, sigma)
    if args.format == "json":
        return {
            "perm": format_perm(p),
            "sigma": format_perm(sigma),
            "events": trace.as_dicts(),
            "output": format_perm(out),
        }, 0
    return "\n".join(trace.as_lines()), 0


# -- parser -----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared (read-only) after."""
    parser = argparse.ArgumentParser(
        prog="patternsort",
        description="Sortable permutations, growth-function words, and lattice paths.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    pattern, sigma = _READERS["--pattern"], _READERS["--sigma"]  # the kinds that read them

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("simulate", help="run the first stack on a permutation")
    p.add_argument("--sigma", default="132")
    p.add_argument("--perm", required=True)
    p.add_argument("--trace", action="store_true", help="include the event log")
    common(p)

    p = sub.add_parser("sortable", help="test sortability of a permutation")
    p.add_argument("--sigma", default="132")
    p.add_argument("--perm", required=True)
    common(p)

    p = sub.add_parser("enumerate", help="list combinatorial families")
    p.add_argument("kind", choices=list(_ENUMERATE))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", help=f"control for kind {sigma['enumerate']} (default 132)")
    p.add_argument("--pattern", help=f"avoided pattern for kind {pattern['enumerate']}")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--cap", type=int)
    common(p)

    p = sub.add_parser("decompose", help="grid decomposition of a permutation")
    p.add_argument("--perm", required=True)
    common(p)

    p = sub.add_parser("map", help="apply one of the bijections")
    p.add_argument("name", choices=list(MAP_NAMES))
    p.add_argument("--perm", help="the input permutation; - reads it from stdin")
    p.add_argument("--rgf", help="the input word; - reads it from stdin")
    p.add_argument("--path", help="the input path; - reads it from stdin")
    p.add_argument("--mode", choices=["stack", "queue"], default="stack")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--steps", action="store_true", help="include swap steps in JSON")
    common(p)

    p = sub.add_parser("verify", help="run the exhaustive check suite")
    p.add_argument("--scope", choices=["all", *_SCOPES], default="all")
    p.add_argument("--nmax", type=int, default=6)
    common(p)

    p = sub.add_parser("table", help="print a distribution or sequence table")
    p.add_argument("kind", choices=list(_TABLES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json", "bfile"], default="csv")
    p.add_argument("--pattern", help=f"avoided pattern for kind {pattern['table']}")
    p.add_argument("--cap", type=int)
    p.add_argument("--out", help="write the report to this file")

    p = sub.add_parser("export", help="machine-readable trace or decomposition")
    p.add_argument("kind", choices=["trace", "decomposition"])
    p.add_argument("--perm", required=True)
    p.add_argument("--sigma", help=f"control for kind {sigma['export']} (default 132)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write the report to this file")

    return parser


_DISPATCH = {
    "simulate": _do_simulate,
    "sortable": _do_sortable,
    "enumerate": _do_enumerate,
    "decompose": lambda args: _decompose(args, args.json),
    "map": _do_map,
    "verify": _do_verify,
    "table": _do_table,
    "export": _do_export,
}


_PLAIN_KINDS = ((argparse._StoreAction, None), (argparse._StoreTrueAction, 0))


def _is_plain(a: argparse.Action) -> bool:
    """A single-value store or a store-true, typed ``int`` or not at all."""
    return (type(a), a.nargs) in _PLAIN_KINDS and a.type in (None, int)


@functools.cache
def _verb_table() -> dict[str, tuple[dict, tuple, dict, frozenset]]:
    """Per verb: its flags' actions by option string, its positionals, the
    namespace's starting values and its required actions.

    Only verbs whose every action but help is plain get an entry.
    """
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    table = {}
    for verb, p in sub.choices.items():
        actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        if not all(map(_is_plain, actions)):
            continue
        flags, positionals, start = {}, [], {sub.dest: verb}
        for a in actions:
            start[a.dest] = a.default
            if a.option_strings:
                flags.update(dict.fromkeys(a.option_strings, a))
            else:
                positionals.append(a)
        required = frozenset(a for a in actions if a.required)
        table[verb] = (flags, tuple(positionals), start, required)
    return table


def _plain_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for plain argv;
    ``None`` hands any other argv to argparse."""
    entry = _verb_table().get(argv[0]) if argv else None
    if entry is None:
        return None
    flags, positionals, start, required = entry
    args = argparse.Namespace()
    values = vars(args)
    values.update(start)
    seen = set()
    rest = iter(positionals)
    tokens = iter(argv[1:])
    for s in tokens:
        if s[:1] != "-":
            a = next(rest, None)
            if a is None:
                return None
        elif s in flags and flags[s] not in seen:
            a = flags[s]
            if a.nargs == 0:
                seen.add(a)
                values[a.dest] = a.const
                continue
            s = next(tokens, "-")
            if s[:1] == "-":
                return None
        else:
            return None
        if a.type is not None:
            try:
                s = a.type(s)
            except (TypeError, ValueError):
                return None
        if a.choices is not None and s not in a.choices:
            return None
        seen.add(a)
        values[a.dest] = s
    return args if required <= seen else None


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:
        body, status = _DISPATCH[args.verb](args)
    except (InvalidInputError, MalformedInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(body, dict):  # every JSON document opens with its schema
        body = json.dumps({"schema": SCHEMA, **body}, indent=2)
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        try:
            print(body, flush=True)
        except BrokenPipeError:  # the reader left early: the flush at exit goes nowhere
            with contextlib.suppress(OSError, ValueError):  # a StringIO has no descriptor
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
