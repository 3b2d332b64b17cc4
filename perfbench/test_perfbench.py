"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from patternsort import paths, rgf  # noqa: E402

SEEDS = (0, 1, 2, 3, 17)


def test_rgf_generator_yields_12231_avoiders():
    for seed in SEEDS:
        rng = random.Random(seed)
        for length in (1, 2, 5, 12, 30):
            w = gen.rgf_12231_avoider(rng, length)
            assert len(w) == length
            assert rgf.validate(w) == w
            assert not rgf.rgf_contains(w, (1, 2, 2, 3, 1)), w


def test_weak_remainder_generators():
    for seed in SEEDS:
        rng = random.Random(seed)
        for length in (1, 3, 10, 25):
            w = gen.weak_remainder_word(rng, length)
            assert len(w) == length and rgf.validate(w) == w
            assert rgf.is_weakly_increasing(rgf.strip_ltr_maxima(w)), w
    for n in range(1, 8):
        words = gen.weak_remainder_words(n)
        want = {
            w for w in rgf.enumerate_rgfs(n)
            if rgf.is_weakly_increasing(rgf.strip_ltr_maxima(w))
        }
        assert len(words) == len(set(words)) == workloads.catalan(n)
        assert set(words) == want


def test_path_generators():
    for seed in SEEDS:
        rng = random.Random(seed)
        for length in (1, 2, 7, 20):
            d = gen.dyck_path(rng, length)
            assert len(d) == 2 * length and paths.validate_dyck(d) == d
            m = gen.labeled_motzkin_path(rng, length)
            assert len(m) == length and paths.validate_labeled_motzkin(m) == m


def test_generators_are_deterministic_in_the_seed():
    def draw(seed):
        rng = random.Random(seed)
        return (
            gen.rgf_12231_avoider(rng, 20), gen.weak_remainder_word(rng, 20),
            gen.dyck_path(rng, 20), gen.labeled_motzkin_path(rng, 20),
            gen.shuffled_perms(rng, 5),
        )

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    assert sorted(draw(5)[-1]) == sorted(draw(6)[-1])


def test_independent_oracles_agree_with_the_library():
    from patternsort import machine, perms

    for p in perms.all_perms(6):
        out = workloads.s132_output(p)
        assert out == machine.s_sigma(p, (1, 3, 2))
        assert workloads.avoids_231(out) == machine.is_sigma_sortable(p)


def test_self_time_on_a_synthetic_call_tree():
    names = (
        "bijections.rgf_to_sortable", "rgf.rgf_contains", "grid.insert_min",
        "machine.is_sigma_sortable", "grid.decompose",
    )
    B, C, INS, S, D = range(5)
    log = spans.SpanLog()
    root = log.add(B, 0.0, 10.0, -1, 0)
    log.add(C, 1.0, 4.0, root, 0)
    ins = log.add(INS, 5.0, 9.0, root, 0)
    log.add(S, 5.5, 6.0, ins, 0)
    dec = log.add(D, 6.5, 8.5, ins, 0)
    log.add(D, 7.0, 7.5, dec, 0, spans.NESTED)  # recursion: not busy twice
    log.add(INS, 11.0, 11.5, -1, 1, spans.RAISED)  # a rejected insertion
    stats = spans.analyse(log, names, calls=[1, 1, 2, 1, 2])

    assert stats.self_s["bijections.rgf_to_sortable"] == 10.0 - 3.0 - 4.0
    assert stats.self_s["grid.insert_min"] == (4.0 - 0.5 - 2.0) + 0.5
    assert stats.self_s["grid.decompose"] == (2.0 - 0.5) + 0.5
    assert stats.busy_s["grid.decompose"] == 2.0
    assert stats.busy_s["grid.insert_min"] == 4.5
    assert stats.busy_s["rgf.rgf_contains"] == stats.self_s["rgf.rgf_contains"] == 3.0
    assert stats.ratios["grid.sortable_checks_per_child"] == 1.0
    assert stats.ratios["grid.decompose_per_child"] == 2.0
    assert stats.ratios["rgf.contains_share"] == 3.0 / 10.0
    assert stats.bijection_split == {(0, "bijections.rgf_to_sortable"): (3.0, 4.0, 3.0, 10.0)}


def _wrapped_bindings():
    """Module attributes of the library that hold a span wrapper."""
    found = []
    for key, module in list(sys.modules.items()):
        if key.startswith("patternsort") and module is not None:
            for attr, value in vars(module).items():
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == spans.__file__:
                    found.append(f"{key}.{attr}")
    return found


def test_wrappers_cover_every_binding_and_are_gone_afterwards():
    from patternsort import bijections, grid

    tracer = spans.Tracer()
    with tracer:
        wrapped = set(_wrapped_bindings())
        bijections.sortable_to_rgf(bijections.rgf_to_sortable((1, 2, 1, 3)))
        grid.generate_sortable(4)
    assert _wrapped_bindings() == []
    for binding in ("patternsort.bijections.rgf_contains", "patternsort.bijections.decompose",
                    "patternsort.bijections.is_sigma_sortable", "patternsort.grid.is_sigma_sortable",
                    "patternsort.machine.as_perm", "patternsort.rgf_contains",
                    "patternsort.rgf.rgf_contains"):
        assert binding in wrapped, binding
    seen = {tracer.names[i] for i in tracer.log.name}
    for full in ("rgf.rgf_contains", "grid.decompose", "machine.is_sigma_sortable",
                 "perms.as_perm", "grid.children", "grid.insert_min", "perms.ltr_minima"):
        assert full in seen, full


def test_wrappers_are_gone_after_a_traced_run():
    args = argparse.Namespace(workload="sweep", seed=3, seconds=1, trace=1)
    small = workloads.Sweep(random.Random(3), n=4, trace_ops=10)
    rec, metrics, _ = run.run_traced(args, small)
    assert rec.failed == 0 and rec.attempted == 10
    assert metrics["machine.is_sigma_sortable.calls"] == 20
    assert _wrapped_bindings() == []


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
