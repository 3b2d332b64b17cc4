"""Span tracing from outside the library.

``Tracer.install`` replaces each listed library function with a wrapper
at every module attribute that binds it: the modules import each other
with ``from .x import f``, so patching only the defining module would
miss calls made through the importer's own name.  Each call (for a
generator function, each resumption) becomes one span: name, start,
end, parent span and operation id.  Spans stay in memory in flat arrays
until the run ends; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

#: The functions traced, by module.  ``sequences`` and ``checks`` are left
#: out: the first is only the benchmark's oracle, the second no workload runs.
LAYERS: dict[str, tuple[str, ...]] = {
    "perms": (
        "as_perm", "avoids", "contains_classical", "contains_mesh",
        "standardize", "ltr_minima",
    ),
    "machine": ("s_sigma", "is_sigma_sortable", "sigma_stack_pass"),
    "grid": (
        "decompose", "active_cells", "children", "insert_new_minimum",
        "insert_min", "insert_cons", "generate_sortable",
    ),
    "rgf": ("rgf_contains", "enumerate_avoiders", "validate"),
    "paths": (
        "enumerate_labeled_motzkin", "dyck_parent", "validate_dyck",
        "validate_labeled_motzkin",
    ),
    "bijections": (
        "sortable_to_rgf", "rgf_to_sortable", "rgf_to_dyck_path",
        "dyck_path_to_rgf", "labeled_motzkin_to_rgf", "rgf_to_labeled_motzkin",
        "rgf_to_av321", "av321_to_rgf", "to_12321_avoider", "to_12231_avoider",
    ),
    "cli": ("main", "build_parser"),
}

NAMES: tuple[str, ...] = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
INSERTIONS = frozenset({"grid.insert_new_minimum", "grid.insert_min", "grid.insert_cons"})

RAISED = 1  # span flag: the call ended in an exception
NESTED = 2  # span flag: an enclosing span has the same name (recursion)


class SpanLog:
    """Flat, append-only span storage; index order is start order, so a
    span's parent always has a smaller index."""

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("b")

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: int, start: float, end: float, parent: int, op: int, flags: int = 0) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        i = len(self.name)
        for arr, v in ((self.name, name), (self.start, start), (self.end, end),
                       (self.parent, parent), (self.op, op), (self.flags, flags)):
            arr.append(v)
        return i

    def write_tsv_gz(self, path, names: tuple[str, ...]) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\traised\n")
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.flags[i] & RAISED}\n"
                )


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, names: tuple[str, ...] = NAMES) -> None:
        self.names = names
        self.log = SpanLog()
        self.calls = [0] * len(names)
        self.op_id = -1
        self._stack: list[int] = []
        self._active = [0] * len(names)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, nid: int) -> int:
        log = self.log
        i = len(log.name)
        log.name.append(nid)
        log.start.append(0.0)
        log.end.append(0.0)
        log.parent.append(self._stack[-1] if self._stack else -1)
        log.op.append(self.op_id)
        log.flags.append(NESTED if self._active[nid] else 0)
        self._active[nid] += 1
        self._stack.append(i)
        log.start[i] = time.perf_counter()
        return i

    def _exit(self, i: int, raised: bool) -> None:
        self.log.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.log.name[i]] -= 1
        if raised:
            self.log.flags[i] |= RAISED

    def _wrap(self, nid: int, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = tracer._enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._exit(i, False)
                        return
                    except BaseException:
                        tracer._exit(i, True)
                        raise
                    tracer._exit(i, False)
                    yield item

            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                tracer.calls[nid] += 1
                i = tracer._enter(nid)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    tracer._exit(i, True)
                    raise
                tracer._exit(i, False)
                return out

            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "patternsort") -> None:
        for full in self.names:
            importlib.import_module(f"{package}.{full.split('.')[0]}")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for nid, full in enumerate(self.names):
            mod_name, fn_name = full.split(".")
            fn = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(nid, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


@dataclass
class LayerStats:
    """Per-function totals and the derived ratios of one traced run."""

    calls: dict[str, int]
    busy_s: dict[str, float]
    self_s: dict[str, float]
    ratios: dict[str, float]
    # (rgf_contains_s, grid_s, self_s, busy_s) of the outermost bijection
    # spans, summed per (operation id, bijection name)
    bijection_split: dict[tuple[int, str], tuple[float, ...]]


def analyse(log: SpanLog, names: tuple[str, ...], calls: list[int]) -> LayerStats:
    """Busy time, self time and the layer ratios from a span log.

    A span's self time is its duration minus the durations of its direct
    children (which are disjoint, being nested calls).  A function's busy
    time sums only its outermost spans, so recursion is not counted twice.
    """
    n = len(log)
    module = [full.split(".")[0] for full in names]
    index = {full: k for k, full in enumerate(names)}
    rgf_contains = index["rgf.rgf_contains"]
    sortable = index["machine.is_sigma_sortable"]
    decompose = index["grid.decompose"]
    insertions = {index[f] for f in INSERTIONS if f in index}

    dur = [log.end[i] - log.start[i] for i in range(n)]
    child_s = [0.0] * n
    for i in range(n):
        p = log.parent[i]
        if p >= 0:
            child_s[p] += dur[i]

    busy = [0.0] * len(names)
    selfs = [0.0] * len(names)
    # ancestor facts, propagated parent -> child in index order
    in_grid = [False] * n  # some ancestor is a grid span
    bij_root = [-1] * n  # outermost bijection span containing this one
    checks_in_grid = children = 0
    bij_busy = contains_in_bij = 0.0
    split: dict[int, list[float]] = {}
    for i in range(n):
        nid = log.name[i]
        flags = log.flags[i]
        p = log.parent[i]
        if p >= 0:
            in_grid[i] = in_grid[p] or module[log.name[p]] == "grid"
            bij_root[i] = bij_root[p]
        if not flags & NESTED:
            busy[nid] += dur[i]
        selfs[nid] += dur[i] - child_s[i]
        if nid == sortable and in_grid[i]:
            checks_in_grid += 1
        if nid in insertions and not flags & RAISED:
            children += 1
        root = bij_root[i]
        if root < 0:
            if module[nid] == "bijections":
                bij_root[i] = i
                bij_busy += dur[i]
                split[i] = [0.0, 0.0, dur[i] - child_s[i], dur[i]]
        else:
            if nid == rgf_contains and not flags & NESTED:
                contains_in_bij += dur[i]
                split[root][0] += dur[i]
            if module[nid] == "grid" and not in_grid[i]:
                split[root][1] += dur[i]

    per_op: dict[tuple[int, str], list[float]] = {}
    for i, values in split.items():
        acc = per_op.setdefault((log.op[i], names[log.name[i]]), [0.0] * 4)
        for k, v in enumerate(values):
            acc[k] += v
    ratios = {
        "grid.sortable_checks_per_child": checks_in_grid / children if children else 0.0,
        "grid.decompose_per_child": calls[decompose] / children if children else 0.0,
        "rgf.contains_share": contains_in_bij / bij_busy if bij_busy else 0.0,
    }
    return LayerStats(
        calls={full: calls[k] for k, full in enumerate(names)},
        busy_s={full: busy[k] for k, full in enumerate(names)},
        self_s={full: selfs[k] for k, full in enumerate(names)},
        ratios=ratios,
        bijection_split={key: tuple(v) for key, v in per_op.items()},
    )
