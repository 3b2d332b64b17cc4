import random
from functools import partial
from itertools import combinations, product
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from patternsort.bijections import (
    TripleIndex,
    av321_to_rgf,
    dyck_path_to_rgf,
    labeled_motzkin_to_rgf,
    rgf_to_av321,
    rgf_to_dyck_path,
    rgf_to_labeled_motzkin,
    rgf_to_sortable,
    sortable_to_rgf,
    to_12231_avoider,
    to_12321_avoider,
)
from patternsort import bijections
from patternsort.errors import InvalidInputError, MalformedInputError
from patternsort.grid import children
from patternsort.machine import enumerate_sortable
from patternsort.paths import (
    LABELED_STEPS,
    dyck_children,
    enumerate_dyck,
    enumerate_labeled_motzkin,
    final_descent_length,
    validate_dyck,
    validate_labeled_motzkin,
)
from patternsort.perms import _contains_321
from patternsort.rgf import (
    _contains_12231,
    active_sites_1221,
    enumerate_avoiders,
    enumerate_rgfs,
    rgf_contains,
    validate,
)

WORKED_PERM = (13, 14, 15, 10, 12, 6, 7, 8, 11, 9, 3, 1, 4, 5, 2)
WORKED_RGF = (1, 1, 1, 2, 2, 3, 3, 3, 2, 3, 4, 5, 4, 4, 5)
WORKED_PATH = ("H0", "H1", "U", "U", "D", "H2", "H0", "D", "H0", "H0")
WORKED_MOTZKIN_RGF = (1, 2, 1, 3, 4, 4, 3, 5, 3, 6, 7)


# -- strip-word map ---------------------------------------------------------

def test_phi_golden():
    assert sortable_to_rgf(WORKED_PERM) == WORKED_RGF
    assert rgf_to_sortable(WORKED_RGF) == WORKED_PERM


def test_phi_small():
    assert sortable_to_rgf((2, 1)) == (1, 2)
    assert sortable_to_rgf(tuple(range(1, 6))) == (1,) * 5
    assert rgf_to_sortable((1, 2)) == (2, 1)


def test_phi_rejects():
    with pytest.raises(InvalidInputError):
        sortable_to_rgf((1, 3, 2))
    # relaxed mode drops the sortability gate
    assert sortable_to_rgf((1, 3, 2), relaxed=True) == (1, 1, 1)
    assert sortable_to_rgf((3, 1, 2), relaxed=True) == (1, 2, 2)
    with pytest.raises(InvalidInputError):
        rgf_to_sortable((1, 2, 2, 3, 1))


def test_phi_inverse_matches_bruteforce():
    # each 12231-avoider is the strip word of exactly one sortable
    # permutation, which the replay returns; every other RGF is refused as
    # invalid input (a MalformedInputError, a replay gone wrong, is not one)
    for n in range(1, 9):
        by_word: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for p in enumerate_sortable(n, (1, 3, 2)):
            by_word.setdefault(sortable_to_rgf(p), []).append(p)
        for w in enumerate_rgfs(n):
            if rgf_contains(w, (1, 2, 2, 3, 1)):
                with pytest.raises(InvalidInputError):
                    rgf_to_sortable(w)
            else:
                assert [rgf_to_sortable(w)] == by_word[w], w



# -- peak-insertion map -----------------------------------------------------

def test_psi_small_goldens():
    assert rgf_to_dyck_path((1,)) == "UD"
    assert rgf_to_dyck_path((1, 1)) == "UDUD"
    assert rgf_to_dyck_path((1, 2)) == "UUDD"
    assert rgf_to_dyck_path((1, 2, 1)) == "UUDUDD"
    assert rgf_to_dyck_path((1, 2, 2)) == "UUDDUD"
    assert rgf_to_dyck_path((1, 2, 3)) == "UUUDDD"
    assert dyck_path_to_rgf("UUDUDD") == (1, 2, 1)


def test_psi_rejects_1221():
    with pytest.raises(InvalidInputError):
        rgf_to_dyck_path((1, 2, 2, 1))


def test_psi_walks_the_dyck_generating_tree():
    # appending j makes child q: 0 for a new maximum, run + j - max otherwise
    cases = 0
    for n in range(9):
        for r in enumerate_avoiders(n, (1, 2, 2, 1)):
            path = rgf_to_dyck_path(r)
            run, mx = final_descent_length(path), max(r, default=0)
            kids = dyck_children(path)
            for j in active_sites_1221(r):
                q = 0 if j > mx else run + j - mx
                assert rgf_to_dyck_path(r + (j,)) == kids[q], (r, j)
                cases += 1
    assert cases == 6917  # the empty word included


def test_psi_walks_the_dyck_generating_tree_at_length_300():
    # seeded 1221-avoiders up to length 300, built as psi-inverse of
    # seeded Dyck paths, replayed letter by letter through dyck_children
    rng = random.Random(1221)
    for n in (9, 17, 40, 123, 300):
        path, h = "", 0
        for rest in range(2 * n - 1, -1, -1):
            # rest steps follow this one; a D needs h > 0, a U room to return
            step = rng.choice([t for t in "UD" if 0 <= h + (t == "U") - (t == "D") <= rest])
            path += step
            h += (step == "U") - (step == "D")
        r = dyck_path_to_rgf(path)
        assert len(r) == n
        replay, mx = "", 0
        for j in r:
            q = 0 if j > mx else final_descent_length(replay) + j - mx
            replay, mx = dyck_children(replay)[q], max(mx, j)
        assert rgf_to_dyck_path(r) == replay == path
        assert dyck_path_to_rgf(replay) == r



# -- container map ----------------------------------------------------------

def test_beta_golden():
    assert labeled_motzkin_to_rgf(WORKED_PATH, "stack") == WORKED_MOTZKIN_RGF
    assert rgf_to_labeled_motzkin(WORKED_MOTZKIN_RGF, "stack") == WORKED_PATH


def test_beta_modes_differ():
    steps = ("U", "U", "D", "D")
    stack_word = labeled_motzkin_to_rgf(steps, "stack")
    queue_word = labeled_motzkin_to_rgf(steps, "queue")
    assert stack_word == (1, 2, 3, 3, 2)
    assert queue_word == (1, 2, 3, 2, 3)
    with pytest.raises(InvalidInputError):
        labeled_motzkin_to_rgf(steps, "deque")



def test_beta_reduced():
    # H1-free paths drop to words one letter shorter
    steps = ("H0", "U", "D")
    w = labeled_motzkin_to_rgf(steps, "stack", reduced=True)
    assert w == (1, 2, 2)
    assert rgf_to_labeled_motzkin(w, "stack", reduced=True) == steps
    with pytest.raises(InvalidInputError):
        labeled_motzkin_to_rgf(("H1",), "stack", reduced=True)


# -- refusals by construction -----------------------------------------------

# Each map that refuses a word by its construction, with a word of length n
# whose one occurrence of the forbidden pattern ends at its last letter,
# and what the refusal says the (unreduced) word contains.
_REFUSALS = {
    "psi": (rgf_to_dyck_path, lambda n: (*range(1, n - 1), n - 2, 1), "1221"),
    "phi-inverse": (
        rgf_to_sortable, lambda n: (*range(1, n - 2), n - 3, n - 2, 1), "12231"
    ),
    "beta-inverse-stack": (
        partial(rgf_to_labeled_motzkin, mode="stack"),
        lambda n: (*range(1, n - 1), 2, 3),
        "12323 (stack mode)",
    ),
    "beta-inverse-queue": (
        partial(rgf_to_labeled_motzkin, mode="queue"),
        lambda n: (*range(1, n - 1), n - 2, 2),
        "12332 (queue mode)",
    ),
    # reduced words contain 1212 (stack) or 1221 (queue)
    "beta-inverse-stack-reduced": (
        partial(rgf_to_labeled_motzkin, mode="stack", reduced=True),
        lambda n: (*range(1, n - 1), 1, 2),
        "12323 (stack mode)",
    ),
    "beta-inverse-queue-reduced": (
        partial(rgf_to_labeled_motzkin, mode="queue", reduced=True),
        lambda n: (*range(1, n - 1), n - 2, 1),
        "12332 (queue mode)",
    ),
}


@pytest.mark.parametrize("n", [5, 10_000])
@pytest.mark.parametrize("name", _REFUSALS)
def test_refusal_at_the_last_letter_names_the_pattern(name, n):
    call, build, contains = _REFUSALS[name]
    w = build(n)
    assert len(w) == n
    call(w[:-1])  # the prefix is in the domain
    with pytest.raises(InvalidInputError) as exc:  # not a MalformedInputError
        call(w)
    named = (1, *(v + 1 for v in w)) if "reduced" in name else w
    assert str(exc.value) == f"{named} contains {contains}"
    assert exc.value.__context__ is None and exc.value.__cause__ is None



def _refusal(call):
    """The type and message of what the call raises, or None if it returns."""
    try:
        call()
    except InvalidInputError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("mode", ["stack", "queue"])
def test_beta_refuses_exactly_as_its_reference(mode, reduced):
    # the oracle: the path validator, then reduced form's H1 rule
    def oracle(p):
        validate_labeled_motzkin(p)
        if reduced and "H1" in p:
            raise InvalidInputError("reduced form is only defined for H1-free paths")

    tokens = (*LABELED_STEPS, "H", ["U"])  # a Motzkin step and an unhashable token
    mapped = 0
    for n in range(6):
        for p in product(tokens, repeat=n):
            want = _refusal(lambda: oracle(p))
            if want is not None:
                assert _refusal(lambda: labeled_motzkin_to_rgf(p, mode, reduced)) == want, p
                continue
            w = labeled_motzkin_to_rgf(p, mode, reduced)
            assert rgf_to_labeled_motzkin(w, mode, reduced) == p
            mapped += 1
    paths = (p for n in range(6) for p in enumerate_labeled_motzkin(n))
    assert mapped == sum(1 for p in paths if not (reduced and "H1" in p))


def test_psi_inverse_refuses_exactly_as_its_reference():
    strings = ("".join(t) for n in range(9) for t in product("UDx ", repeat=n))
    mapped = 0
    for path in (*strings, ["U", "D"], ("U", "D"), b"UD", None):
        want = _refusal(lambda: validate_dyck(path))
        if want is not None:
            assert _refusal(lambda: dyck_path_to_rgf(path)) == want, path
            continue
        assert rgf_to_dyck_path(dyck_path_to_rgf(path)) == path
        mapped += 1
    assert mapped == 1 + 1 + 2 + 5 + 14  # the Dyck paths of semilength <= 4


def test_psi_inverse_needs_no_output_check():
    # the proof in dyck_path_to_rgf's docstring, which replaced its checks of
    # its own output: every Dyck path maps to a 1221-free RGF that psi maps back
    mapped = 0
    for n in range(11):
        for path in enumerate_dyck(n):
            r = dyck_path_to_rgf(path)
            assert validate(r) == r and not rgf_contains(r, (1, 2, 2, 1)), path
            assert rgf_to_dyck_path(r) == path
            mapped += 1
    assert mapped == 23714  # the Catalan numbers C_0 .. C_10


def test_the_references_sit_only_on_the_refusal_path(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a reference ran on input in the domain")

    beta = bijections.labeled_motzkin_to_rgf
    for name in ("labeled_motzkin_to_rgf", "validate_labeled_motzkin", "validate_dyck"):
        monkeypatch.setattr(bijections, name, fail)
    for n in range(8):
        for p in enumerate_labeled_motzkin(n):
            for mode, reduced in product(("stack", "queue"), (False, True)):
                if not (reduced and "H1" in p):
                    w = beta(p, mode, reduced)
                    assert rgf_to_labeled_motzkin(w, mode, reduced) == p
        for path in enumerate_dyck(n):
            assert rgf_to_dyck_path(dyck_path_to_rgf(path)) == path


@pytest.mark.parametrize(
    "word, mode, reduced, back",
    [
        ((1, 2, 3, 2, 3), "stack", False, (1, 2, 3, 3, 2)),
        ((1, 2, 3, 3, 2), "queue", False, (1, 2, 3, 2, 3)),
        ((1, 2, 1, 2), "stack", True, (1, 2, 3, 3, 2)),
        ((1, 2, 1, 3, 1, 2, 3), "stack", False, (1, 2, 1, 3, 1, 3, 2)),
        # only an H2 letter misses the accessible element; every D takes its own
        ((1, 2, 3, 2, 3, 2), "stack", False, (1, 2, 3, 3, 3, 2)),
        ((1, 2, 3, 3, 2, 3), "queue", False, (1, 2, 3, 2, 2, 3)),
    ],
)
def test_beta_inverse_without_its_scan_reports_the_replay(monkeypatch, word, mode, reduced, back):
    # with the pattern scan blind, a crossing or nesting word is a replay
    # gone wrong, and the message names the word the path replays to
    for name in ("_contains_12323", "_contains_12332"):
        monkeypatch.setattr(bijections, name, lambda r: False)
    r = (1, *(v + 1 for v in word)) if reduced else word
    with pytest.raises(MalformedInputError) as exc:
        rgf_to_labeled_motzkin(word, mode, reduced)
    assert str(exc.value) == f"replay of {r} diverged at {back}"


# -- weak-remainder map onto 321-avoiders -----------------------------------

def test_av321_golden():
    assert rgf_to_av321((1, 2, 1, 3, 1, 4, 2, 3, 4)) == (3, 5, 1, 7, 2, 9, 4, 6, 8)
    assert av321_to_rgf((3, 5, 1, 7, 2, 9, 4, 6, 8)) == (1, 2, 1, 3, 1, 4, 2, 3, 4)


def test_av321_domain_errors():
    with pytest.raises(InvalidInputError):
        rgf_to_av321((1, 2, 2, 3, 1))  # non-maxima leftovers 2 1 decrease
    with pytest.raises(InvalidInputError):
        av321_to_rgf((3, 2, 1))



# -- swap maps between the two Catalan-transform families --------------------

# The reference for both swap maps: full scans for the next triple, and
# loops that rescan the whole word after every swap.

def rightmost_321(word):
    """Lexicographically largest positions of a strictly decreasing triple,
    or None."""
    r = tuple(word)
    n = len(r)
    # right to left: low is the least letter seen, mid the least one with
    # a smaller letter after it; the first letter above mid starts the triple
    low = mid = inf
    for a in range(n - 1, -1, -1):
        v = r[a]
        if mid < v:
            break
        if low < v:
            mid = v
        else:
            low = v
    else:
        return None
    # the middle entry: the rightmost letter below v with a smaller one after it
    low = inf
    for b in range(n - 1, a, -1):
        if low < r[b] < v:
            break
        if r[b] < low:
            low = r[b]
    c = next(k for k in range(n - 1, b, -1) if r[k] < r[b])
    return TripleIndex(a + 1, b + 1, c + 1)


def leftmost_repeat_231(word):
    """Lexicographically least 231 occurrence whose first letter is a
    repeat (not the first occurrence of its value), or None."""
    r = tuple(word)
    n = len(r)
    after = [inf] * n  # after[k]: least letter right of index k
    low = inf
    for k in range(n - 1, -1, -1):
        after[k] = low
        if r[k] < low:
            low = r[k]
    seen = set()
    for a, v in enumerate(r):
        if v in seen:
            # after[] only grows to the right, so once no smaller letter
            # follows a candidate 3, none follows any later one either
            for b in range(a + 1, n):
                if after[b] >= v:
                    break
                if r[b] > v:
                    c = next(k for k in range(b + 1, n) if r[k] < v)
                    return TripleIndex(a + 1, b + 1, c + 1)
        seen.add(v)
    return None


def _rescan(r, scan):
    """Swap at each triple that scan finds in the whole word until none."""
    steps = []
    while (t := scan(r)) is not None:
        steps.append(t)
        w = list(r)
        w[t.i1 - 1], w[t.i2 - 1] = w[t.i2 - 1], w[t.i1 - 1]
        r = tuple(w)
    return r, steps


def _assert_swap_maps_match_oracle(r):
    """gamma on r, and its inverse on the image, swap as the rescans do."""
    g, steps = _rescan(r, rightmost_321)
    assert to_12321_avoider(r, with_steps=True) == (g, steps), r
    assert to_12231_avoider(g, with_steps=True) == _rescan(g, leftmost_repeat_231), g


def test_triple_scans():
    assert rightmost_321((1, 2, 3, 2, 1)) == (3, 4, 5)
    assert rightmost_321((1, 2, 2, 1)) is None
    assert leftmost_repeat_231((1, 2, 2, 3, 1)) == (3, 4, 5)
    w = (1, 2, 3)
    assert leftmost_repeat_231(w) is None


def test_triple_scans_match_bruteforce():
    # every word over 1..4, not only RGFs: the swap scans see the words
    # between two swaps too, and _contains_321 gates both swap maps
    for n in range(8):
        triples = list(combinations(range(1, n + 1), 3))
        for w in product(range(1, 5), repeat=n):
            repeat = [v in w[:i] for i, v in enumerate(w)]
            dec = [t for t in triples if w[t[0] - 1] > w[t[1] - 1] > w[t[2] - 1]]
            assert rightmost_321(w) == max(dec, default=None), w
            assert _contains_321(w) == bool(dec), w
            led = [
                (a, b, c)
                for a, b, c in triples
                if repeat[a - 1] and w[b - 1] > w[a - 1] > w[c - 1]
            ]
            assert leftmost_repeat_231(w) == min(led, default=None), w


def test_repeat_231_is_12231_on_rgfs():
    # rgf_to_sortable and to_12321_avoider gate on _contains_12231,
    # to_12231_avoider swaps only where it holds, and the oracle for
    # to_12231_avoider swaps at leftmost_repeat_231; the generic matcher is
    # the reference for both
    for n in range(10):
        for r in enumerate_rgfs(n):
            found = rgf_contains(r, (1, 2, 2, 3, 1))
            assert _contains_12231(r) == found, r
            assert (leftmost_repeat_231(r) is not None) == found, r


def _as_rgf(letters: list[int]) -> tuple[int, ...]:
    """Clamp each letter to 1 + the running maximum, which gives an RGF."""
    out, mx = [], 0
    for v in letters:
        v = min(v, mx + 1)
        out.append(v)
        mx = max(mx, v)
    return tuple(out)


@settings(deadline=None)
@given(st.lists(st.integers(1, 61), max_size=60).map(_as_rgf))
def test_12231_scan_matches_matcher(r):
    assert _contains_12231(r) == rgf_contains(r, (1, 2, 2, 3, 1))


def test_gamma_golden():
    assert to_12321_avoider((1, 2, 3, 2, 1)) == (1, 2, 2, 3, 1)
    assert to_12231_avoider((1, 2, 2, 3, 1)) == (1, 2, 3, 2, 1)
    assert to_12321_avoider((1, 2, 2, 1)) == (1, 2, 2, 1)


def test_gamma_steps():
    out, steps = to_12321_avoider((1, 2, 3, 2, 1), with_steps=True)
    assert out == (1, 2, 2, 3, 1)
    assert list(steps) == [(3, 4, 5)]


def test_gamma_domain_gates():
    with pytest.raises(InvalidInputError):
        to_12321_avoider((1, 2, 2, 3, 1))  # contains a repeat-led 231
    with pytest.raises(InvalidInputError):
        to_12231_avoider((1, 2, 3, 2, 1))  # contains 321


def test_gamma_rejects_a_repeated_triple(monkeypatch):
    # each direction checks that its triples move strictly, down for
    # gamma and up for its inverse, which bounds both loops; a swap scan
    # that yields the same triple twice must trip that check
    def twice(w):
        yield from [TripleIndex(3, 4, 5)] * 2

    with monkeypatch.context() as m:
        m.setattr(bijections, "_swap_321s", twice)
        with pytest.raises(MalformedInputError, match="did not decrease"):
            to_12321_avoider((1, 2, 3, 2, 1))
    monkeypatch.setattr(bijections, "_swap_repeat_231s", twice)
    with pytest.raises(MalformedInputError, match="did not increase"):
        to_12231_avoider((1, 2, 2, 3, 1))


def test_gamma_inverse_undoes_gamma_in_reverse_order():
    # on every 12321-avoider, the inverse swaps at gamma's (i1, i2) in
    # reverse order, so its triples strictly increase
    for n in range(9):
        for w in enumerate_avoiders(n, (1, 2, 3, 2, 1)):
            r, back = to_12231_avoider(w, with_steps=True)
            _, steps = to_12321_avoider(r, with_steps=True)
            assert [t[:2] for t in back] == [t[:2] for t in reversed(steps)], w


def test_swap_maps_match_the_rescan_oracle():
    for n in range(10):
        for r in enumerate_avoiders(n, (1, 2, 2, 3, 1)):
            assert to_12321_avoider(r, with_steps=True) == _rescan(r, rightmost_321), r
        for g in enumerate_avoiders(n, (1, 2, 3, 2, 1)):
            back = _rescan(g, leftmost_repeat_231)
            assert to_12231_avoider(g, with_steps=True) == back, g


@pytest.mark.parametrize("k", [50, 100, 150])
def test_swap_maps_match_the_rescan_oracle_on_palindromes(k):
    # 1 2 ... k k ... 2 1 has the most decreasing triples of its length
    _assert_swap_maps_match_oracle((*range(1, k + 1), *range(k, 0, -1)))



# -- every map on one long seeded object ------------------------------------

def test_every_map_round_trips_at_length_300():
    # objects grown by seeded walks, the sortable one as in
    # test_grid.test_seeded_walk_round_trips_at_length_200
    rng = random.Random(300)
    p = (1,)
    while len(p) < 300:
        _, p = rng.choice(children(p))
    r = sortable_to_rgf(p)
    assert rgf_to_sortable(r) == p
    g, swaps = to_12321_avoider(r, with_steps=True)
    assert swaps and to_12231_avoider(g) == r
    _assert_swap_maps_match_oracle(r)

    path = ""
    while len(path) < 600:
        path = rng.choice(dyck_children(path))
    w = dyck_path_to_rgf(path)
    assert rgf_to_dyck_path(w) == path

    steps: list[str] = []
    h = 0
    for rest in range(298, -1, -1):
        # rest steps follow this one, so the height must stay within reach of 0
        options = [
            t
            for t in LABELED_STEPS
            if (h > 0 or t not in ("D", "H2"))
            and h + (t == "U") - (t == "D") <= rest
        ]
        s = rng.choice(options)
        steps.append(s)
        h += (s == "U") - (s == "D")
    for mode in ("stack", "queue"):
        w = labeled_motzkin_to_rgf(steps, mode)
        assert len(w) == 300 and rgf_to_labeled_motzkin(w, mode) == tuple(steps)

    # non-maxima weakly increasing: each letter is a new maximum or >= low
    w = [1]
    mx = low = 1
    while len(w) < 300:
        x = rng.randint(low, mx + 1)
        if x > mx:
            mx = x
        else:
            low = x
        w.append(x)
    assert av321_to_rgf(rgf_to_av321(w)) == tuple(w)
