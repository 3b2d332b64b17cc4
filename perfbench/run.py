"""patternsort benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep|tree|long --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off: set-up time in fresh interpreters, then whole cycles of the workload
for the cycle count that comes nearest to ``--seconds`` (at least two).  Throughput is
the median over cycles; latency percentiles are taken over each
operation's median latency across the cycles.  Timings are scaled to a
nominal machine speed measured by reference bursts (see workloads.py).

With ``--trace 1`` it runs the workload's trace cycle twice untraced and
once with span wrappers installed, and reports the per-layer metrics.

Each run prints every metric by name with its unit, a run record, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Every output is checked against an oracle; the exit code
is 1 when any operation failed and 2 when the library sources are
missing.  The full record, and for a traced run the spans, are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import spans
from workloads import REFERENCE_NOMINAL_S, WORKLOADS, Long, Recorder, timed_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 21
MIN_CYCLES = 2
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
LOAD_MODEL = "closed loop, one caller, one thread, one process"

# phi-inverse and beta-inverse time on `long`, split per ladder length
SPLITS = {
    "phi_inverse": ("phi-inverse", "bijections.rgf_to_sortable", ("rgf_contains_s", "grid_s", "self_s")),
    "beta_inverse": ("beta-inverse", "bijections.rgf_to_labeled_motzkin", ("rgf_contains_s", "self_s")),
}
_SPLIT_INDEX = {"rgf_contains_s": 0, "grid_s": 1, "self_s": 2}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units: dict[str, str] = {}
    for full in spans.NAMES:
        units[f"{full}.calls"] = "count"
        units[f"{full}.busy_s"] = "s"
        units[f"{full}.self_s"] = "s"
    for name in ("grid.sortable_checks_per_child", "grid.decompose_per_child",
                 "rgf.contains_share", "trace.overhead_ratio"):
        units[name] = "1"
    for key, (_, _, parts) in SPLITS.items():
        for length in Long.LADDER:
            for part in parts:
                units[f"long.{key}.L{length}.{part}"] = "s"
    return units


def tail_percentile(ops_per_cycle: int) -> float:
    """The highest ladder percentile with at least ten of one cycle's
    operations beyond it; fixed per workload, so runs that complete
    different numbers of cycles report the same percentile."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if ops_per_cycle * (100.0 - q) / 100.0 >= 10:
            best = q
    return best


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """Set-up seconds in fresh interpreters, each with the machine-speed
    reference timed just before it; one unmeasured spawn first, so every
    measured one finds the bytecode cache written."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    values = []
    for i in range(repeats + 1):
        reference = statistics.median(timed_reference() for _ in range(3))
        done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if i:
            values.append((float(done.stdout.strip().splitlines()[-1]), reference))
    return values


def run_record(args, workload) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "patternsort").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "load_model": LOAD_MODEL,
        "params": workload.params,
    }


def run_untraced(args, workload) -> tuple[Recorder, dict, dict]:
    setup = measure_setup()
    workload.bind()
    q = tail_percentile(workload.params["ops_per_cycle"])
    rec = Recorder(reference=True)
    cycles: list[dict] = []
    scaled_latencies: list[array] = []  # per cycle, in operation order
    first_digest = None
    t0 = time.perf_counter()
    while True:
        attempted, failed = rec.attempted, rec.failed
        c0 = time.perf_counter()
        rec.sample_reference()
        workload.cycle(rec)
        wall = time.perf_counter() - c0
        digest, lat, refs = rec.end_cycle()
        first_digest = first_digest or digest
        rec.cycle_check(digest == first_digest, rec.attempted - attempted,
                        f"cycle {len(cycles) + 1} output digest differs from cycle 1")
        verified = (rec.attempted - attempted) - (rec.failed - failed)
        # how much slower than nominal the machine ran during this cycle
        slowdown = statistics.median(refs) / REFERENCE_NOMINAL_S
        scaled_latencies.append(array("d", (x / slowdown for x in lat)))
        if len(scaled_latencies) == 1:
            # after one cycle, so the figure does not grow with the number
            # of cycles (and of stored latencies) a faster commit completes
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ordered = sorted(lat)
        raw = {
            "throughput_ops_per_s": verified / (wall - sum(refs)),
            "latency_p50_ms": percentile(ordered, 50.0) * 1e3,
            "latency_tail_ms": percentile(ordered, q) * 1e3,
        }
        cycles.append({
            "wall_s": wall,
            "reference_bursts": len(refs),
            "slowdown": slowdown,
            "raw": raw,
            "throughput_ops_per_s": raw["throughput_ops_per_s"] * slowdown,
        })
        elapsed = time.perf_counter() - t0
        # stop at the cycle boundary nearest to the requested duration, but
        # not before every operation has been timed at least twice
        if len(cycles) >= MIN_CYCLES and elapsed + elapsed / len(cycles) / 2 >= args.seconds:
            break

    # Every cycle runs the same operations in the same order, so each
    # operation's latency is the median of its speed-scaled latencies over
    # the cycles; a stall that hits an operation in a minority of cycles
    # drops out.  p50 and the tail are taken over those medians.
    per_op = sorted(statistics.median(col) for col in zip(*scaled_latencies))
    metrics = {
        "setup_s": statistics.median(s / (r / REFERENCE_NOMINAL_S) for s, r in setup),
        "throughput_ops_per_s": statistics.median(c["throughput_ops_per_s"] for c in cycles),
        "latency_p50_ms": percentile(per_op, 50.0) * 1e3,
        "latency_tail_ms": percentile(per_op, q) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "throughput_ops_per_s": statistics.median(c["raw"]["throughput_ops_per_s"] for c in cycles),
    }
    detail = {
        "setup_runs": [{"setup_s": s, "reference_s": r} for s, r in setup],
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "raw_metrics": raw_metrics,
        "cycles": cycles,
        "timed_wall_s": time.perf_counter() - t0,
        "latency_samples": sum(len(c) for c in scaled_latencies),
        "latency_tail_percentile": q,
        "failed_ratio": rec.failed / rec.attempted,
        "output_sha256": first_digest,
    }
    return rec, metrics, detail


def run_traced(args, workload) -> tuple[Recorder, dict, dict]:
    workload.bind()
    # each pass is timed in units of a reference burst taken just before it,
    # so machine-speed drift between the passes does not enter the ratio
    untraced = []
    plain = None
    for _ in range(2):  # the first pass also warms up
        plain = Recorder()
        reference = statistics.median(timed_reference() for _ in range(3))
        t0 = time.perf_counter()
        workload.trace_cycle(plain)
        untraced.append((time.perf_counter() - t0, reference))

    tracer = spans.Tracer()
    rec = Recorder(tracer)
    originals = {full: _binding(full) for full in spans.NAMES}
    reference = statistics.median(timed_reference() for _ in range(3))
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.trace_cycle(rec)
        traced = (time.perf_counter() - t0, reference)
    finally:
        tracer.uninstall()
    leftover = [full for full in spans.NAMES if _binding(full) is not originals[full]]
    rec.cycle_check(not leftover, rec.attempted, f"wrappers left installed: {leftover}")
    plain_digest = plain.end_cycle()[0]
    rec.cycle_check(rec.end_cycle()[0] == plain_digest, rec.attempted,
                    "traced outputs differ from untraced outputs")

    stats = spans.analyse(tracer.log, tracer.names, tracer.calls)
    metrics: dict[str, float] = {}
    for full in spans.NAMES:
        metrics[f"{full}.calls"] = stats.calls[full]
        metrics[f"{full}.busy_s"] = stats.busy_s[full]
        metrics[f"{full}.self_s"] = stats.self_s[full]
    metrics.update(stats.ratios)
    metrics["trace.overhead_ratio"] = (traced[0] / traced[1]) / min(t / r for t, r in untraced)
    split_rows = []
    for key, (label, fn_name, parts) in SPLITS.items():
        for length in Long.LADDER:
            acc = [0.0] * 4  # rgf_contains_s, grid_s, self_s, busy_s
            for (op, name), values in stats.bijection_split.items():
                if name == fn_name and rec.labels[op] == (label, length):
                    acc = [a + v for a, v in zip(acc, values)]
            for part in parts:
                metrics[f"long.{key}.L{length}.{part}"] = acc[_SPLIT_INDEX[part]]
            if workload.name == "long":
                split_rows.append({
                    "map": label, "length": length, "busy_s": acc[3],
                    "rgf_contains_s": acc[0], "grid_s": acc[1], "self_s": acc[2],
                    "rgf_contains_share": acc[0] / acc[3] if acc[3] else 0.0,
                })

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.log.write_tsv_gz(spans_path, tracer.names)
    detail = {
        "untraced_passes": [{"wall_s": t, "reference_s": r} for t, r in untraced],
        "traced_pass": {"wall_s": traced[0], "reference_s": traced[1]},
        "spans": len(tracer.log),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "split": split_rows,
        "output_sha256": plain_digest,
    }
    return rec, metrics, detail


def _binding(full: str):
    mod, fn = full.split(".")
    return getattr(importlib.import_module(f"patternsort.{mod}"), fn)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "patternsort" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # inputs come from the seed alone and are made before any timing
    workload = WORKLOADS[args.workload](random.Random(args.seed))
    record = run_record(args, workload)

    if args.trace:
        rec, metrics, detail = run_traced(args, workload)
        units = per_layer_units()
    else:
        rec, metrics, detail = run_untraced(args, workload)
        units = END_TO_END_UNITS
    record.update(detail)
    record["attempted"] = rec.attempted
    record["failed"] = rec.failed
    record["problems"] = rec.problems
    result = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record["metrics"] = result

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    if not args.trace:
        print(f"failed_ratio = {detail['failed_ratio']!r} 1")
        for name, value in detail["raw_metrics"].items():
            print(f"raw {name} = {value!r} {units[name]} (wall clock, not speed-scaled)")
        print(f"latency_tail_ms is p{detail['latency_tail_percentile']:g} of "
              f"{detail['latency_samples'] // len(detail['cycles'])} per-operation medians over "
              f"{len(detail['cycles'])} cycles ({detail['latency_samples']} samples)")
    else:
        for row in detail["split"]:
            print(f"split {row['map']} L{row['length']}: busy {row['busy_s']:.4f}s = "
                  f"rgf_contains {row['rgf_contains_s']:.4f}s + grid {row['grid_s']:.4f}s + "
                  f"self {row['self_s']:.4f}s + other; rgf_contains share "
                  f"{row['rgf_contains_share']:.3f}")
    for problem in rec.problems:
        print(f"FAILED {problem}")
    print("record " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "problems")}))
    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
