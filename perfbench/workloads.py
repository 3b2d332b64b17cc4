"""The three workloads: their inputs, their cycle of operations, and the
oracles every output is checked against.

A workload is a fixed cycle of operations built from the seed before any
timing starts.  The timed loop repeats whole cycles (one caller, each
operation waiting for the previous one: a closed loop), so every cycle
measures the same mix of operations.  Each cycle's outputs are hashed in
operation order; every cycle must reproduce the first one's digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import random
import time
from array import array

import gen

_FAILED = object()

class Recorder:
    """Latencies, failures and the output digest of the operations run.

    Latencies and the digest cover the current cycle; ``end_cycle`` hands
    them over and starts afresh, so memory does not grow with the number
    of cycles a run completes.
    """

    def __init__(self, tracer=None, reference: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracer
        # operation labels, kept in traced runs to attribute spans
        self.labels: list[object] = []
        self.latencies = array("d")
        self._hash = hashlib.sha256()
        # reference bursts between operations, at most every REFERENCE_INTERVAL_S
        self.reference = reference
        self.reference_times = array("d")
        self._next_reference = 0.0

    def sample_reference(self) -> None:
        self.reference_times.append(timed_reference())
        self._next_reference = time.perf_counter() + REFERENCE_INTERVAL_S

    def op(self, label, fn, *args):
        """Time one operation; returns its output, or _FAILED if it raised."""
        if self.reference and time.perf_counter() >= self._next_reference:
            self.sample_reference()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = len(self.labels)
            self.labels.append(label)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            self.latencies.append(time.perf_counter() - t0)
            self._fail(label, f"raised {exc!r}")
            return _FAILED
        self.latencies.append(time.perf_counter() - t0)
        self._hash.update(repr(out).encode())
        self._hash.update(b"\n")
        return out

    def check(self, ok: bool, label, detail: str = "") -> None:
        """Record the oracle verdict on the operation just run."""
        if not ok:
            self._fail(label, detail or "disagrees with its oracle")

    def cycle_check(self, ok: bool, ops: int, detail: str) -> None:
        """A cycle-level oracle (a count over the whole cycle) failed: the
        ``ops`` operations it covers count as failed."""
        if not ok:
            self.failed = min(self.attempted, self.failed + ops)
            self._note(detail)

    def skip(self, ops: int, detail: str) -> None:
        """Operations that could not run because their inputs were wrong
        count as attempted and failed."""
        self.attempted += ops
        self.failed += ops
        self._note(detail)

    def end_cycle(self) -> tuple[str, array, array]:
        """The sha256 of this cycle's outputs in operation order, its
        latencies and its reference times; all start afresh."""
        out = self._hash.hexdigest(), self.latencies, self.reference_times
        self._hash = hashlib.sha256()
        self.latencies = array("d")
        self.reference_times = array("d")
        return out

    def _fail(self, label, detail: str) -> None:
        self.failed += 1
        self._note(f"{label}: {detail}")

    def _note(self, detail: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(detail)


# -- independent oracles (no library calls) ----------------------------------

def ltr_minima_values(p) -> list[int]:
    out: list[int] = []
    for v in p:
        if not out or v < out[-1]:
            out.append(v)
    return out


def s132_output(p) -> tuple[int, ...]:
    """First-stack pass under 132: x may enter only if the stack, read top
    to bottom with x on top, avoids 132, i.e. no c above b with x < b < c."""
    stack: list[int] = []
    out: list[int] = []
    for x in p:
        while True:
            low = math.inf  # smallest stack value above x met so far, scanning up
            blocked = False
            for v in stack:
                if v > x:
                    if v > low:
                        blocked = True
                        break
                    low = v
            if not blocked:
                break
            out.append(stack.pop())
        stack.append(x)
    out.extend(reversed(stack))
    return tuple(out)


def avoids_231(p) -> bool:
    """Stack-sortable (Knuth) exactly when 231-avoiding."""
    stack: list[int] = []
    out: list[int] = []
    for x in p:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    out.extend(reversed(stack))
    return out == sorted(out)


# -- machine-speed reference -------------------------------------------------
#
# On a machine shared with other tenants the CPU speed can drift by a third
# or more over minutes, and wall times drift with it.  A fixed burst of
# plain interpreter work, timed between operations, measures that speed at
# the same moments; run.py scales the timings to the speed at which one
# burst takes REFERENCE_NOMINAL_S.  The burst uses no library code, so it
# reads the same on every commit.
REFERENCE_NOMINAL_S = 0.010
REFERENCE_INTERVAL_S = 0.25
_REFERENCE_PERMS = [tuple(random.Random(k).sample(range(1, 11), 10)) for k in range(40)]


def reference_burst() -> int:
    """Plain interpreter work of the kinds the workloads do, none of it in
    the library: the benchmark's own first-stack pass and 231 test over
    fixed permutations, and building and using a stdlib argparse parser,
    as every CLI call does."""
    acc = 0
    for _ in range(12):
        for p in _REFERENCE_PERMS:
            acc += avoids_231(s132_output(p))
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="verb", required=True)
        for k in range(8):
            verb = sub.add_parser(f"verb{k}")
            for flag in ("--alpha", "--beta", "--gamma", "--delta"):
                verb.add_argument(flag)
            verb.add_argument("--flag", action="store_true")
        acc += len(vars(parser.parse_args(["verb3", "--alpha", "1 2 3", "--flag"])))
    return acc


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_burst()
    return time.perf_counter() - t0


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    parts = text.split() if " " in text else list(text)
    return tuple(int(t) for t in parts)


def words_text(w) -> str:
    return " ".join(map(str, w))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# -- sweep -------------------------------------------------------------------

class Sweep:
    """Every permutation of S_n classified four ways (132 fast pass, 123
    generic pass, 2314 scan, mesh scan); one operation is one permutation."""

    name = "sweep"

    def __init__(self, rng: random.Random, n: int = 7, trace_ops: int = 2000) -> None:
        self.n = n
        self.perms = gen.shuffled_perms(rng, n)
        self.trace_ops = trace_ops
        self.params = {"n": n, "ops_per_cycle": len(self.perms), "trace_ops": trace_ops}

    def bind(self) -> None:
        from patternsort import machine, perms, sequences

        # call through the module attributes, so a traced run sees the wrappers
        self.machine = machine
        self.perms_mod = perms
        self.want132 = sequences.a007317(self.n - 1)
        self.want123 = 1 + sequences.catalan_double_partial_sums(self.n - 1)

    def _classify(self, p):
        m, q = self.machine, self.perms_mod
        return (
            m.is_sigma_sortable(p, (1, 3, 2)),
            m.is_sigma_sortable(p, (1, 2, 3)),
            q.avoids(p, (2, 3, 1, 4)),
            q.contains_mesh(p, q.MU),
        )

    def cycle(self, rec: Recorder, perms=None) -> None:
        full = perms is None
        perms = self.perms if full else perms
        c132 = c123 = 0
        for p in perms:
            out = rec.op("sweep", self._classify, p)
            if out is _FAILED:
                continue
            s132, s123, a2314, mesh = out
            rec.check(s132 == (a2314 and not mesh), "sweep", f"basis disagrees at {p}")
            c132 += s132
            c123 += s123
        if full:
            rec.cycle_check(c132 == self.want132, len(perms), f"132 count {c132} != {self.want132}")
            rec.cycle_check(c123 == self.want123, len(perms), f"123 count {c123} != {self.want123}")

    def trace_cycle(self, rec: Recorder) -> None:
        self.cycle(rec, self.perms[: self.trace_ops])


# -- tree --------------------------------------------------------------------

class Tree:
    """Many short objects, each round-tripped through a map and its inverse:
    Sort_n(132) grown by the generating tree through phi and gamma, the
    pruned 1221-avoiders through psi, labeled Motzkin paths through beta in
    both modes, and weak-remainder words through nr-to-av321."""

    name = "tree"

    def __init__(self, rng: random.Random, n: int = 8) -> None:
        self.n = n
        self.words = gen.weak_remainder_words(n)
        rng.shuffle(self.words)
        sizes = {
            "sortable": _a007317(n - 1),
            "avoiders": catalan(n),
            "motzkin": _a007317(n - 1),
        }
        # seeded visiting orders for the families the library generates
        self.orders = {k: rng.sample(range(size), size) for k, size in sizes.items()}
        self.sizes = sizes
        ops = 2 * sizes["sortable"] + sizes["avoiders"] + 2 * sizes["motzkin"] + len(self.words)
        self.params = {"n": n, "motzkin_length": n - 1, "ops_per_cycle": ops}

    def bind(self) -> None:
        from patternsort import bijections, grid, paths, rgf

        self.b = bijections
        self.grid = grid
        self.paths = paths
        self.rgf = rgf

    def _phi(self, p):
        r = self.b.sortable_to_rgf(p)
        return r, self.b.rgf_to_sortable(r)

    def _gamma(self, r):
        g = self.b.to_12321_avoider(r)
        return g, self.b.to_12231_avoider(g)

    def _psi(self, r):
        d = self.b.rgf_to_dyck_path(r)
        return d, self.b.dyck_path_to_rgf(d)

    def _beta(self, path, mode):
        r = self.b.labeled_motzkin_to_rgf(path, mode)
        return r, self.b.rgf_to_labeled_motzkin(r, mode)

    def _nr(self, w):
        p = self.b.rgf_to_av321(w)
        return p, self.b.av321_to_rgf(p)

    def cycle(self, rec: Recorder) -> None:
        n, sizes = self.n, self.sizes
        level = self.grid.generate_sortable(n)
        if len(level) != sizes["sortable"]:
            rec.skip(2 * sizes["sortable"], f"|Sort_{n}(132)| = {len(level)}")
        else:
            for i in self.orders["sortable"]:
                p = level[i]
                out = rec.op("phi", self._phi, p)
                if out is _FAILED:
                    continue
                r, back = out
                rec.check(back == p, "phi", f"{p} -> {r} -> {back}")
                out = rec.op("gamma", self._gamma, r)
                if out is not _FAILED:
                    g, back = out
                    rec.check(back == r and sorted(g) == sorted(r), "gamma", f"{r} -> {g} -> {back}")

        avoiders = self.rgf.enumerate_avoiders(n, (1, 2, 2, 1))
        if len(avoiders) != sizes["avoiders"]:
            rec.skip(sizes["avoiders"], f"{len(avoiders)} 1221-avoiders of length {n}")
        else:
            for i in self.orders["avoiders"]:
                r = avoiders[i]
                out = rec.op("psi", self._psi, r)
                if out is not _FAILED:
                    rec.check(out[1] == r, "psi", f"{r} -> {out}")

        motzkin = list(self.paths.enumerate_labeled_motzkin(n - 1))
        if len(motzkin) != sizes["motzkin"]:
            rec.skip(2 * sizes["motzkin"], f"{len(motzkin)} labeled Motzkin paths of length {n - 1}")
        else:
            for mode in ("stack", "queue"):
                for i in self.orders["motzkin"]:
                    path = motzkin[i]
                    out = rec.op("beta", self._beta, path, mode)
                    if out is not _FAILED:
                        rec.check(out[1] == path and len(out[0]) == n, "beta", f"{path} ({mode}) -> {out}")

        for w in self.words:
            out = rec.op("nr", self._nr, w)
            if out is not _FAILED:
                p, back = out
                rec.check(back == w and sorted(p) == list(range(1, n + 1)), "nr", f"{w} -> {out}")

    trace_cycle = cycle


def _a007317(n: int) -> int:
    return sum(math.comb(n, k) * catalan(k) for k in range(n + 1))


# -- long --------------------------------------------------------------------

class Long:
    """A few long seeded objects through the CLI in-process: every map as a
    round trip, then decompose and simulate --trace on the sortable
    permutation; one operation is one CLI call."""

    name = "long"
    LADDER = (16, 32, 48)
    TRACE_OBJECTS = 4  # objects per length in the traced run

    def __init__(self, rng: random.Random, objects: int = 32) -> None:
        self.objects = []
        for _ in range(objects):
            for length in self.LADDER:
                self.objects.append({
                    "length": length,
                    "rgf": gen.rgf_12231_avoider(rng, length),
                    "dyck": gen.dyck_path(rng, length),
                    "motzkin": gen.labeled_motzkin_path(rng, length - 1),
                    "weak": gen.weak_remainder_word(rng, length),
                })
        self.params = {
            "ladder": list(self.LADDER),
            "objects_per_length": objects,
            "ops_per_cycle": 12 * len(self.objects),
            "trace_objects_per_length": self.TRACE_OBJECTS,
        }

    def bind(self) -> None:
        from patternsort import cli

        self.cli = cli

    def _cli(self, *argv: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def _run(self, rec: Recorder, label, argv) -> str | None:
        res = rec.op(label, self._cli, *argv)
        if res is _FAILED:
            return None
        code, out, err = res
        rec.check(code == 0, label, f"exit {code}: {err.strip()}")
        return out.strip() if code == 0 else None

    def _object(self, rec: Recorder, obj: dict) -> None:
        L = obj["length"]
        r, dyck, steps, weak = obj["rgf"], obj["dyck"], obj["motzkin"], obj["weak"]

        perm_text = self._run(rec, ("phi-inverse", L), ("map", "phi-inverse", "--rgf", words_text(r)))
        if perm_text is not None:
            p = parse_word(perm_text)
            rec.check(sorted(p) == list(range(1, L + 1)), ("phi-inverse", L), "not a permutation")
            out = self._run(rec, ("phi", L), ("map", "phi", "--perm", perm_text))
            if out is not None:
                rec.check(parse_word(out) == r, ("phi", L), "round trip")
            self._decompose(rec, p, perm_text)
            self._simulate(rec, p, perm_text)

        out = self._run(rec, ("gamma", L), ("map", "gamma", "--rgf", words_text(r)))
        if out is not None:
            g = parse_word(out)
            rec.check(sorted(g) == sorted(r), ("gamma", L), "letter multiset changed")
            back = self._run(rec, ("gamma-inverse", L), ("map", "gamma-inverse", "--rgf", words_text(g)))
            if back is not None:
                rec.check(parse_word(back) == r, ("gamma-inverse", L), "round trip")

        out = self._run(rec, ("psi-inverse", L), ("map", "psi-inverse", "--path", dyck))
        if out is not None:
            back = self._run(rec, ("psi", L), ("map", "psi", "--rgf", words_text(parse_word(out))))
            if back is not None:
                rec.check(back == dyck, ("psi", L), "round trip")

        steps_text = " ".join(steps)
        out = self._run(rec, ("beta", L), ("map", "beta", "--path", steps_text))
        if out is not None:
            rec.check(len(parse_word(out)) == L, ("beta", L), "wrong length")
            back = self._run(rec, ("beta-inverse", L), ("map", "beta-inverse", "--rgf", words_text(parse_word(out))))
            if back is not None:
                rec.check(tuple(back.split()) == steps, ("beta-inverse", L), "round trip")

        out = self._run(rec, ("nr-to-av321", L), ("map", "nr-to-av321", "--rgf", words_text(weak)))
        if out is not None:
            a = parse_word(out)
            rec.check(sorted(a) == list(range(1, L + 1)), ("nr-to-av321", L), "not a permutation")
            back = self._run(rec, ("av321-to-nr", L), ("map", "av321-to-nr", "--perm", out))
            if back is not None:
                rec.check(parse_word(back) == weak, ("av321-to-nr", L), "round trip")

    def _decompose(self, rec: Recorder, p, perm_text: str) -> None:
        out = self._run(rec, ("decompose", len(p)), ("decompose", "--perm", perm_text))
        if out is None:
            return
        lines = out.splitlines()
        minima = ltr_minima_values(p)
        core = [v for v in p if v not in set(minima)]
        want_core = words_text(core) if core else "(empty)"
        ok = (
            lines[0] == f"perm: {words_text(p)}"
            and lines[1] == f"minima: {words_text(minima)}"
            and lines[2] == f"core: {want_core}"
            and len(lines) == 3 + len(minima)
        )
        rec.check(ok, ("decompose", len(p)), "decomposition lines")

    def _simulate(self, rec: Recorder, p, perm_text: str) -> None:
        out = self._run(rec, ("simulate", len(p)), ("simulate", "--perm", perm_text, "--trace"))
        if out is None:
            return
        lines = out.splitlines()
        want = s132_output(p)
        ok = (
            avoids_231(want)
            and lines[0] == f"s_sigma: {words_text(want)}"
            and lines[1] == "sortable: true"
            and len(lines) == 2 + 2 * len(p)
        )
        rec.check(ok, ("simulate", len(p)), "machine output")

    def cycle(self, rec: Recorder, objects=None) -> None:
        for obj in self.objects if objects is None else objects:
            try:
                self._object(rec, obj)
            except (ValueError, IndexError) as exc:  # CLI output the oracles cannot read
                rec.check(False, ("output", obj["length"]), f"unreadable output: {exc!r}")

    def trace_cycle(self, rec: Recorder) -> None:
        self.cycle(rec, self.objects[: self.TRACE_OBJECTS * len(self.LADDER)])


WORKLOADS = {"sweep": Sweep, "tree": Tree, "long": Long}
