import random
import re
from functools import partial
from itertools import permutations
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from patternsort import machine
from patternsort.errors import InvalidInputError, ResourceLimitError
from patternsort.grid import GrowthState, generate_sortable
from patternsort.machine import (
    DEFAULT_PERM_CAP,
    _PASSES,
    _control,
    _generic_output,
    _generic_pass,
    _moves,
    _shape_holds,
    enumerate_sortable,
    is_sigma_sortable,
    s_sigma,
    sigma_stack_pass,
    stack_shape_check,
    stacksort,
    sigma_hat,
    verify_characterizations,
    witness_non_class,
)
from patternsort.perms import _contains_231, all_perms, avoids, standardize


def test_s132_known_values():
    assert s_sigma((2, 4, 1, 3), (1, 3, 2)) == (4, 3, 1, 2)
    assert s_sigma((1, 3, 2), (1, 3, 2)) == (2, 3, 1)
    assert s_sigma((1, 2, 3), (1, 3, 2)) == (3, 2, 1)
    assert s_sigma((1,), (1, 3, 2)) == (1,)


def test_stacksort_known_values():
    assert stacksort((2, 3, 1)) == (2, 1, 3)
    assert stacksort((1, 3, 2)) == (1, 2, 3)
    assert stacksort((3, 2, 1)) == (1, 2, 3)


def test_degenerate_sigma_rejected():
    with pytest.raises(InvalidInputError):
        s_sigma((1, 2), ())
    with pytest.raises(InvalidInputError):
        s_sigma((1, 2), (1,))


# controls equal to a fast one, or unhashable, whose letters are no permutation
_BAD_CONTROLS = [
    (1.0, 3.0, 2.0),
    (True, 2),
    (1, 3, 3),
    (0, 1, 2),
    (1, [3], 2),
    ([1], [2]),
    (True, 3, 2),
    (1, 3.0, 2),
    (2, True),
    (2.0, 1),
]


@pytest.mark.parametrize("sigma", _BAD_CONTROLS)
def test_sigma_validated_after_an_equal_valid_control(sigma):
    # a length-3 control of plain ints that keys a cut rule, and a plain-int
    # 21, skip validation; an equal or unhashable control of other letters
    # must still be rejected as before
    assert is_sigma_sortable((1, 2), (1, 3, 2))
    assert is_sigma_sortable((1, 2), (1, 2))
    assert is_sigma_sortable((1, 2), (2, 1))
    with pytest.raises(InvalidInputError, match="not a permutation of 1..n"):
        is_sigma_sortable((1, 2), sigma)


@pytest.mark.parametrize(
    "entry",
    [
        partial(s_sigma, (1, 2)),
        partial(sigma_stack_pass, (1, 2)),
        partial(is_sigma_sortable, (1, 2)),
        partial(enumerate_sortable, 3),
        sigma_hat,
        witness_non_class,
        partial(verify_characterizations, 3),
    ],
    ids=lambda f: getattr(f, "func", f).__name__,
)
@pytest.mark.parametrize("sigma", _BAD_CONTROLS)
def test_every_entry_validates_its_control(entry, sigma):
    with pytest.raises(InvalidInputError, match="not a permutation of 1..n"):
        entry(sigma)


# len(enumerate_sortable(n, sigma)) at n = 4..7 for every control of
# length 4; every control sorts 1, 2 and 5 permutations at n = 1..3
_CATALAN_TAIL = (14, 42, 132, 429)
_LENGTH_4_COUNTS = {
    (1, 2, 3, 4): (14, 40, 113, 319),
    (1, 2, 4, 3): (14, 41, 122, 366),
    (1, 3, 2, 4): (14, 42, 134, 455),
    (1, 3, 4, 2): _CATALAN_TAIL,
    (1, 4, 2, 3): (14, 44, 154, 588),
    (1, 4, 3, 2): (14, 43, 144, 521),
    (2, 1, 3, 4): (14, 45, 170, 740),
    (2, 1, 4, 3): (14, 44, 157, 634),
    (2, 3, 1, 4): (15, 53, 215, 972),
    (2, 3, 4, 1): _CATALAN_TAIL,
    (2, 4, 1, 3): (15, 52, 201, 842),
    (2, 4, 3, 1): _CATALAN_TAIL,
    (3, 1, 2, 4): (14, 44, 155, 603),
    (3, 1, 4, 2): _CATALAN_TAIL,
    (3, 2, 1, 4): (13, 34, 89, 233),
    (3, 2, 4, 1): _CATALAN_TAIL,
    (3, 4, 1, 2): (15, 53, 214, 954),
    (3, 4, 2, 1): (15, 53, 214, 954),
    (4, 1, 2, 3): (14, 42, 135, 467),
    (4, 1, 3, 2): (14, 43, 144, 522),
    (4, 2, 1, 3): (13, 34, 89, 233),
    (4, 2, 3, 1): _CATALAN_TAIL,
    (4, 3, 1, 2): (13, 34, 89, 233),
    (4, 3, 2, 1): (13, 34, 89, 233),
}


@pytest.mark.parametrize("sigma", sorted(_LENGTH_4_COUNTS))
def test_length_4_control_counts(sigma):
    # the generic machine's counts, pinned from an exhaustive run
    got = tuple(len(enumerate_sortable(n, sigma)) for n in range(1, 8))
    assert got == (1, 2, 5) + _LENGTH_4_COUNTS[sigma]


def test_sortability():
    assert is_sigma_sortable((2, 4, 1, 3))
    assert not is_sigma_sortable((1, 3, 2))
    # the machine with control 132 sorts some permutations containing 132
    assert is_sigma_sortable((2, 4, 1, 3)) and not avoids(
        (2, 4, 1, 3), (1, 3, 2)
    )


def test_sort3_sets():
    got = set(enumerate_sortable(3, (1, 3, 2)))
    assert got == set(all_perms(3)) - {(1, 3, 2)}
    got321 = set(enumerate_sortable(3, (3, 2, 1)))
    assert got321 == {
        p for p in all_perms(3) if avoids(p, (1, 2, 3), (1, 3, 2))
    }
    assert len(got321) == 4



def test_trace_lines():
    out, trace = sigma_stack_pass((2, 4, 1, 3), (1, 3, 2))
    assert out == (4, 3, 1, 2)
    lines = trace.as_lines()
    assert lines[0] == "PUSH 2 | stack: 2"
    assert lines[1] == "PUSH 4 | stack: 4,2"
    assert lines[-1] == "POP 2 | stack: (empty)"
    ops = [e["op"] for e in trace.as_dicts()]
    assert ops.count("PUSH") == 4 and ops.count("POP") == 4


def _joined_lines(events):
    # the reference rendering: every snapshot joined on its own
    return [
        f"{op} {value} | stack: {','.join(str(v) for v in snap) if snap else '(empty)'}"
        for op, value, snap in events
    ]


# every fast control, and two the generic machine serves
_TRACE_CONTROLS = [*_PASSES, (1, 3, 2, 4), (2, 1, 4, 3)]


@pytest.mark.parametrize("sigma", _TRACE_CONTROLS, ids=lambda s: "".join(map(str, s)))
def test_trace_lines_match_the_joined_snapshots(sigma):
    # as_lines replays the pass from its input and output; it must print
    # what joining each snapshot the generic machine records prints
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            _, trace = sigma_stack_pass(p, sigma)
            assert trace.as_lines() == _joined_lines(_generic_pass(p, sigma)[1]), p
    # random stacks stay shallow; the identity and its reverse do not
    long = [tuple(random.Random(n).sample(range(1, n + 1), n)) for n in (100, 300, 1000)]
    long += [tuple(range(1, 101)), tuple(range(100, 0, -1))]
    for p in long:
        _, trace = sigma_stack_pass(p, sigma)
        assert trace.as_lines() == _joined_lines(_generic_pass(p, sigma)[1]), p


@pytest.mark.parametrize("sigma", _TRACE_CONTROLS, ids=lambda s: "".join(map(str, s)))
def test_trace_dicts_match_the_generic_snapshots(sigma):
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            _, trace = sigma_stack_pass(p, sigma)
            assert trace.as_dicts() == [
                {"op": op, "value": value, "stack": list(snap)}
                for op, value, snap in _generic_pass(p, sigma)[1]
            ], p


@settings(max_examples=200)
@given(
    st.integers(1, 40).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
)
def test_fast_matches_generic(lst):
    p = tuple(lst)
    # traces are replayed from the output, so every control's must match
    for sigma in _TRACE_CONTROLS:
        generic = _generic_pass(p, sigma)
        assert s_sigma(p, sigma) == generic[0]
        out, trace = sigma_stack_pass(p, sigma)
        assert (out, trace.events) == generic
        assert list(_moves(p, out)) == [(op, v, len(snap)) for op, v, snap in generic[1]]


def test_no_threshold_on_x_decides_the_231_pops():
    # on the stack 5 7 1 3 the top pops for an incoming 2 or 6 but stays
    # for 4, so 231 cannot pop from the top while a per-level value exceeds x
    for last, pops in ((2, True), (6, True), (4, False)):
        _, events = _generic_pass(standardize((5, 7, 1, 3, last)), (2, 3, 1))
        assert [op for op, _, _ in events[:5]] == ["PUSH"] * 4 + ["POP" if pops else "PUSH"]


def _nearest_scan(pi, sigma):
    """The first pass under 132 or 312 by the bottom-to-top cut scan: the
    cut is the lowest y above x that lies farther from x than the nearest
    earlier value above x."""
    if sigma == (3, 1, 2):
        pi = tuple(-v for v in pi)
    stack, output = [], []
    for x in pi:
        y = None  # the cut value
        low = inf  # nearest z-side value so far; none yet
        for v in stack:
            if v > x:
                if v > low:
                    y = v
                    break
                low = v
        if y is not None:
            cut = stack.index(y)
            output.extend(reversed(stack[cut:]))
            del stack[cut:]
        stack.append(x)
    output.extend(reversed(stack))
    return tuple(-v for v in output) if sigma == (3, 1, 2) else tuple(output)


def _farthest_scan(pi, sigma):
    """The first pass under 123 or 321 by the bottom-to-top cut scan: the
    cut is the lowest y above x that lies below an earlier value above x."""
    if sigma == (3, 2, 1):
        pi = tuple(-v for v in pi)
    stack, output = [], []
    for x in pi:
        y = None  # the cut value
        high = x  # farthest z-side value so far; none yet
        for v in stack:
            if v > x:
                if v < high:
                    y = v
                    break
                high = v
        if y is not None:
            cut = stack.index(y)
            output.extend(reversed(stack[cut:]))
            del stack[cut:]
        stack.append(x)
    output.extend(reversed(stack))
    return tuple(-v for v in output) if sigma == (3, 2, 1) else tuple(output)


def _short_and_long_inputs():
    """All of S_<=8, 300 seeded permutations up to length 300, the identity
    of length 300, its reverse, and 1 ... 150 300 ... 151."""
    for n in range(9):
        yield from permutations(range(1, n + 1))
    rng = random.Random(123321)
    for _ in range(300):
        n = rng.randint(1, 300)
        yield tuple(rng.sample(range(1, n + 1), n))
    ident = tuple(range(1, 301))
    yield from (ident, ident[::-1], ident[:150] + ident[:149:-1])


def _check_against_scan(sigma, scan):
    for p in _short_and_long_inputs():
        assert s_sigma(p, sigma) == scan(p, sigma), p


@pytest.mark.parametrize("sigma", [(1, 3, 2), (3, 1, 2)], ids=["132", "312"])
def test_nearest_pass_matches_the_cut_scan(sigma):
    # the pass that pops from the top while m > x against the scan it replaced
    _check_against_scan(sigma, _nearest_scan)


@pytest.mark.parametrize("sigma", [(1, 2, 3), (3, 2, 1)], ids=["123", "321"])
def test_farthest_pass_matches_the_cut_scan(sigma):
    # the pass that pops from the top while q > x against the scan it replaced
    _check_against_scan(sigma, _farthest_scan)


@pytest.mark.parametrize("sigma", [(1, 3, 2), (1, 2, 3)], ids=["132", "123"])
def test_decide_matches_the_generic_machine(sigma):
    # the 132 and 123 decides stop at the first letter the second stack
    # cannot take, and must give the generic machine's verdict
    sorts = _control(sigma)[2]
    for p in _short_and_long_inputs():
        assert sorts(p) is (not _contains_231(_generic_output(p, sigma))), p


_REFERRED = [s for s in _PASSES if s not in ((1, 3, 2), (1, 2, 3))] + [(1, 3, 2, 4)]


@pytest.mark.parametrize("sigma", _REFERRED, ids=lambda s: "".join(map(str, s)))
def test_other_controls_decide_by_the_reference(sigma):
    # whether the control's pass (the generic machine for 1324) outputs a
    # 231-avoider; test_fast_matches_generic checks each pass's output
    _, run, sorts = _control(sigma)
    assert sorts.func is machine._reference and sorts.args == (run,)


@pytest.mark.parametrize("sigma", [(1, 3, 2), (1, 2, 3)], ids=["132", "123"])
def test_decide_stops_at_a_pop_above_the_pop_before(sigma, monkeypatch):
    # a letter popped before the input ends, above the one popped before
    # it, rejects pi without the flush and its 231 test
    rising = []
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            events = _generic_pass(p, sigma)[1]
            last_push = max((i for i, (op, _, _) in enumerate(events) if op == "PUSH"), default=0)
            pops = [v for op, v, _ in events[:last_push] if op == "POP"]
            if any(a < b for a, b in zip(pops, pops[1:])):
                rising.append(p)
    assert len(rising) > 100
    monkeypatch.setattr(machine, "_contains_231", lambda w: pytest.fail("the 231 test ran"))
    sorts = _control(sigma)[2]
    assert not any(map(sorts, rising))


@pytest.mark.parametrize("sigma", [*_PASSES, (1, 3, 2, 4)], ids=lambda s: "".join(map(str, s)))
def test_the_empty_permutation_is_sortable(sigma):
    assert is_sigma_sortable((), sigma)
    assert enumerate_sortable(0, sigma) == [()]


@pytest.mark.parametrize("sigma", [(1, 3, 3), (1.0, 3.0, 2.0), (1,), ()])
def test_an_invalid_pi_is_reported_before_an_invalid_sigma(sigma):
    with pytest.raises(InvalidInputError, match=re.escape("not a permutation of 1..n: (2, 2)")):
        is_sigma_sortable((2, 2), sigma)


def test_stack_shape_on_sortables():
    assert stack_shape_check((2, 4, 1, 3))
    with pytest.raises(InvalidInputError):
        stack_shape_check((1, 3, 2))
    # seeded length-300 sortables, read off the generic machine's snapshots too
    rng = random.Random(300)
    for _ in range(3):
        s = GrowthState()
        for _ in range(300):
            _, s = rng.choice(s.children())
        assert stack_shape_check(s.perm)
        assert _shape_by_snapshots(s.perm, _generic_pass(s.perm, (1, 3, 2))[1])


def _shape_by_snapshots(p, events):
    # the reference: the shape law read off each snapshot in full; the
    # stack x meets is the one left by the previous PUSH, read bottom-to-top
    pushed = [snap for op, _, snap in events if op == "PUSH"]
    minima = []
    block = {}  # non-minimum -> 1-based index of its block
    for x, snap in zip(p, [()] + pushed):
        if not minima or x < minima[-1]:
            minima.append(x)
            continue
        i = block[x] = len(minima)
        stack = snap[::-1]
        floor = stack[:i]
        rest = stack[i:]
        if floor != tuple(minima):
            return False
        if any(a >= b for a, b in zip(rest, rest[1:])):
            return False
        if any(block[v] != i for v in rest):
            return False
    return True


@pytest.mark.parametrize("sigma", _PASSES, ids=lambda s: "".join(map(str, s)))
def test_shape_holds_matches_the_snapshot_reading(sigma):
    # passes under other controls, and unsortables, reach the False branch
    verdicts = set()
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            out, events = _generic_pass(p, sigma)
            got = _shape_holds(p, out)
            assert got == _shape_by_snapshots(p, events), p
            verdicts.add(got)
    assert verdicts == {True, False}


def test_sigma_hat():
    assert sigma_hat((1, 3, 2)) == (3, 1, 2)
    assert sigma_hat((3, 2, 1)) == (2, 3, 1)


def test_witnesses():
    assert witness_non_class((1, 3, 2), 4) == ((2, 4, 1, 3), (1, 3, 2))
    assert witness_non_class((1, 2, 3), 4) == ((4, 1, 3, 2), (1, 3, 2))
    # the class case has no witness at all
    assert witness_non_class((3, 2, 1), 5) is None


def test_verify_characterizations_kinds():
    rep = verify_characterizations(5, (1, 3, 2))
    assert rep.kind == "mesh-basis" and rep.holds
    rep = verify_characterizations(5, (3, 2, 1))
    assert rep.kind == "class" and rep.holds
    rep = verify_characterizations(5, (2, 3, 1))
    assert rep.kind == "non-class" and rep.holds
    assert rep.counterexamples


@pytest.mark.parametrize("sigma", [*permutations((1, 2, 3)), (1, 2, 3, 4)])
def test_verify_characterizations_rejects_negative_length(sigma):
    # every kind of control, the witness search included, refuses n < 0
    with pytest.raises(InvalidInputError):
        verify_characterizations(-1, sigma)


def test_enumeration_cap():
    # a negative length is refused before the cap, with the cap in the message
    cap = DEFAULT_PERM_CAP
    n = cap + 1
    for call, refusing in (
        (partial(enumerate_sortable, sigma=(1, 3, 2)), f"enumeration of S_{n}"),
        (partial(verify_characterizations, sigma=(1, 3, 2)), f"verification at n={n}"),
        (generate_sortable, f"generation at n={n}"),
    ):
        with pytest.raises(InvalidInputError, match="^length must be nonnegative$"):
            call(-1, cap=-5)
        with pytest.raises(ResourceLimitError, match=re.escape(f"refusing {refusing} (cap {cap})")):
            call(n)
    with pytest.raises(ResourceLimitError, match=re.escape("refusing enumeration of S_7 (cap 6)")):
        enumerate_sortable(7, (1, 3, 2), cap=6)
    # the control is validated before the length
    for call in (enumerate_sortable, verify_characterizations):
        with pytest.raises(InvalidInputError, match="not a permutation"):
            call(n, (1, 1, 2))
        with pytest.raises(InvalidInputError, match="control pattern must have length >= 2"):
            call(n, (1,))
