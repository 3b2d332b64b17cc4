import random
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, seed, settings, strategies as st

from patternsort import perms
from patternsort.bijections import av321_to_rgf, sortable_to_rgf
from patternsort.checks import _REGISTRY
from patternsort.errors import InvalidInputError
from patternsort.grid import GridDecomposition, _is_colayered_word, active_cells, decompose
from patternsort.perms import (
    MU,
    MeshPattern,
    all_perms,
    as_perm,
    avoids,
    contains_classical,
    contains_mesh,
    first_occurrence,
    format_perm,
    is_perm,
    ltr_minima,
    parse_perm,
    parse_word,
    reverse,
    standardize,
    _TABLE_SIZE,
    _contains_231,
    _contains_2314,
    _contains_mu,
    _kernel,
)
from patternsort.rgf import all_words_standardized, enumerate_rgfs, format_rgf

# every pattern of length at most 4, ties included
SHORT_PATTERNS = [p for k in range(1, 5) for p in all_words_standardized(k)]
CHECKS = {c.name: c for c in _REGISTRY}


def test_is_perm():
    assert is_perm((2, 1, 3))
    assert is_perm(())
    assert not is_perm((1, 1, 2))
    assert not is_perm((0, 1))
    assert not is_perm((2, 3))
    assert not is_perm((True,))
    assert not is_perm((2, True))
    with pytest.raises(InvalidInputError):
        as_perm((True,))


class Letter(IntEnum):
    ONE = 1
    TWO = 2


@pytest.mark.parametrize("w", [(2.0, 1.0), (Fraction(1),), (1, True)])
@pytest.mark.parametrize(
    "call", [as_perm, decompose, sortable_to_rgf, active_cells, av321_to_rgf]
)
def test_entries_must_be_ints(call, w):
    with pytest.raises(InvalidInputError, match="not a permutation of 1..n"):
        call(w)


def test_int_subclass_entries_are_kept():
    assert as_perm((Letter.TWO, Letter.ONE)) == (2, 1)
    assert sortable_to_rgf((Letter.ONE,)) == (1,)


def test_parse_word():
    for text in ("2 4 1 3", "2,4,1,3", "2, 4 ,1,3", "2\t4\t1\t3", " 2413 ", "+2 4 1 3"):
        assert parse_word(text) == (2, 4, 1, 3), text
    assert parse_word("1 1 10") == (1, 1, 10)
    assert parse_word("1121") == (1, 1, 2, 1)
    for text in ("", " ", ",", " , ", "\t,\t", "1 2 x", "1a", "1.5", "0", "1 -2", "10"):
        with pytest.raises(InvalidInputError):
            parse_word(text)


def _parse_word_by_int(text):
    # the reference reader: every token through int(), no letter table
    s = text.strip()
    parts = s.replace(",", " ").split() if "," in s or any(c.isspace() for c in s) else s
    if not parts:
        raise InvalidInputError(f"no letter in {text!r}")
    try:
        word = tuple(map(int, parts))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse word {text!r}") from exc
    if min(word) < 1:
        raise InvalidInputError(f"word letters must be positive: {text!r}")
    return word


def _outcome(read, text):
    try:
        return read(text)
    except InvalidInputError as exc:
        return type(exc.__cause__), str(exc)


_TOP = _TABLE_SIZE - 1  # the largest letter the table spells
_TOKENS = st.sampled_from(
    ["1", "2", "9", "10", "48", str(_TOP), str(_TOP + 1), str(10**6), "0", "05",
     "+5", "1_0", "-3", "\u0663", "\uff15", "x", "1.5", "", "312"]
) | st.integers(1, 2 * _TABLE_SIZE).map(str)
_SEPARATORS = st.sampled_from([" ", ",", "\t", ", ", " ,", "  ", "\n"])


@st.composite
def _word_texts(draw):
    if draw(st.booleans()):  # compact digits, some of them not ASCII
        body = draw(st.text(alphabet="0123456789\u0663\uff15_+", max_size=12))
    else:
        tokens = draw(st.lists(_TOKENS, max_size=8))
        body = "".join(t + draw(_SEPARATORS) for t in tokens[:-1]) + "".join(tokens[-1:])
    lead = draw(st.sampled_from(["", " ", "\t", ","]))
    return lead + body + draw(st.sampled_from(["", " ", "\n", ","]))


@seed(1)
@settings(max_examples=600, deadline=None)
@given(_word_texts())
def test_parse_word_reads_as_int_does(text):
    # the letter table reads a token or leaves it to int(): the same word,
    # or the same error with the same message and cause
    assert _outcome(parse_word, text) == _outcome(_parse_word_by_int, text), repr(text)


def test_parse_word_reads_letters_on_both_sides_of_the_table_top():
    text = " ".join(map(str, range(1, 2 * _TABLE_SIZE)))
    assert parse_word(text) == tuple(range(1, 2 * _TABLE_SIZE))
    assert parse_word(f"{_TOP},{_TOP + 1}") == (_TOP, _TOP + 1)
    assert parse_word("\u0663 05 +5 1_0 \uff15") == (3, 5, 5, 10, 5)


class Shout(int):
    # an int subclass with its own text, which no table may print
    def __str__(self):
        return f"<{int(self)}>"


_LETTERS = st.one_of(
    st.integers(-3, _TABLE_SIZE + 3),
    st.just(10**6),
    st.booleans(),
    st.floats(-4, 300, allow_nan=False),
    st.integers(0, _TABLE_SIZE + 3).map(Shout),
    st.sampled_from(list(Letter)),
)


@seed(1)
@settings(max_examples=300, deadline=None)
@given(st.lists(_LETTERS, max_size=10), st.lists(st.integers(0, _TABLE_SIZE + 3), max_size=10))
def test_printing_matches_str(mixed, plain):
    for w in (mixed, plain):
        t = tuple(w)
        assert format_perm(t) == " ".join(map(str, t))
        assert format_rgf(t) == (" " if t and max(t) > 9 else "").join(map(str, t))
        cells = {(1, 1): t[:2], (1, 2): t[2:]}  # describe spells every cell at once
        d = GridDecomposition((), ((1, 1),), ((),), ((),), cells, ())
        want = " | ".join(f"C(1,{j})=" + ",".join(map(str, c)) for (_, j), c in cells.items())
        assert d.describe() == [f"row 1 (1..inf): {want}"]


def test_parse_perm_forms():
    assert parse_perm("2 4 1 3") == (2, 4, 1, 3)
    assert parse_perm("2,4,1,3") == (2, 4, 1, 3)
    assert parse_perm("2413") == (2, 4, 1, 3)
    with pytest.raises(InvalidInputError):
        parse_perm("")
    with pytest.raises(InvalidInputError):
        parse_perm("1 2 x")
    with pytest.raises(InvalidInputError):
        parse_perm("1 1 2")


def test_format_roundtrip():
    assert format_perm((2, 4, 1, 3)) == "2 4 1 3"
    p = tuple(range(1, 13))
    assert parse_perm(format_perm(p)) == p


def test_standardize():
    assert standardize((5, 9, 2)) == (2, 3, 1)
    assert standardize(()) == ()
    with pytest.raises(InvalidInputError):
        standardize((1, 1))



def _word_standardize(word):
    """Tie-aware standardization: the i-th smallest distinct value becomes i."""
    rank = {v: i + 1 for i, v in enumerate(sorted(set(word)))}
    return tuple(rank[v] for v in word)


def test_first_occurrence_matches_bruteforce():
    # oracle: every position subset in lex order, grouped by the word it
    # standardizes to, so each pattern's occurrences come out lex-sorted
    hosts = [w for n in range(7) for w in enumerate_rgfs(n)]
    hosts += [p for n in range(1, 7) for p in all_perms(n)]
    for w in hosts:
        n = len(w)
        occs: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for k in range(1, 5):
            for pos in combinations(range(n), k):
                occs.setdefault(_word_standardize([w[q] for q in pos]), []).append(pos)
        for pat in SHORT_PATTERNS:
            for head in (False, True):
                for tail in (False, True):
                    want = [
                        o for o in occs.get(pat, ())
                        if (not head or o[0] == 0) and (not tail or o[-1] == n - 1)
                    ]
                    got = first_occurrence(w, pat, head=head, tail=tail)
                    assert got == (want[0] if want else None), (w, pat, head, tail)


@given(st.lists(st.integers(-40, 40), max_size=9, unique=True))
def test_classical_matching_is_order_only(lst):
    # hosts of distinct letters with gaps and negatives match as their
    # standardization does, which is what lets the grid and the trace
    # check hand unstandardized words to the matcher; mesh matching is
    # left out, since its box sentinels 0 and n+1 depend on the letters
    w = tuple(lst)
    std = standardize(w)
    for pat in SHORT_PATTERNS:
        for head in (False, True):
            for tail in (False, True):
                got = first_occurrence(w, pat, head, tail)
                assert got == first_occurrence(std, pat, head, tail), (w, pat, head, tail)


def _boxes_empty(w, occ, shaded):
    # 1-based positions and sorted values, with sentinels 0 and n+1
    n = len(w)
    pos = (0,) + tuple(q + 1 for q in occ) + (n + 1,)
    vals = (0,) + tuple(sorted(w[q] for q in occ)) + (n + 1,)
    return not any(
        pos[a] < q + 1 < pos[a + 1] and vals[b] < w[q] < vals[b + 1]
        for a, b in shaded
        for q in range(n)
    )


def test_mesh_kernel_matches_bruteforce():
    # oracle: the first position subset, in lex order, that is a classical
    # occurrence with every shaded box empty
    rng = random.Random(13)
    meshes = [MU]
    for _ in range(24):
        tau = standardize(rng.sample(range(1, 4), rng.randint(0, 3)))
        k = len(tau)
        boxes = {(rng.randint(0, k), rng.randint(0, k)) for _ in range(rng.randint(0, 5))}
        meshes.append(MeshPattern(tau, frozenset(boxes)))
    # MU, the shaded 132 of the characterization, also on all of S_7 and
    # S_8, where contains_mesh answers it with its own scan
    cases = [(w, mp) for n in range(7) for w in all_perms(n) for mp in meshes]
    cases += [(w, MU) for n in (7, 8) for w in all_perms(n)]
    # the same few hundred letter tuples recur across hosts
    shape = lru_cache(maxsize=None)(standardize)
    for w, mp in cases:
        want = next(
            (
                occ
                for occ in combinations(range(len(w)), len(mp.tau))
                if shape(tuple(w[q] for q in occ)) == mp.tau
                and _boxes_empty(w, occ, mp.shaded)
            ),
            None,
        )
        got = _kernel(mp.tau, False, False, mp.shaded)(w)
        assert got == want, (w, mp)
        assert contains_mesh(w, mp) == (want is not None)


def _planted(rng, pattern, extra):
    """A word holding the pattern, letters doubled, among ``extra`` distinct odd letters."""
    word = [2 * v for v in pattern]
    for v in rng.sample(range(1, 2 * len(pattern) + 2, 2), extra):
        word.insert(rng.randint(0, len(word)), v)
    return tuple(word)


def test_long_patterns_match_bruteforce():
    # past _LOOPS_PER_PART letters a kernel hands its deeper letters to a
    # second generated function; permutations and words with ties, each in
    # hosts that hold a planted copy and in random hosts
    rng = random.Random(17)
    for k in range(17, 21):
        for pat in (standardize(rng.sample(range(1, k + 1), k)),
                    _word_standardize(rng.choices(range(1, 6), k=k))):
            assert "def _part1(" in perms._kernel_source(pat, False, False, frozenset())
            hosts = [_planted(rng, pat, extra) for extra in (0, 1, 2, 3, 3)]
            hosts += [tuple(rng.choices(range(1, max(pat) + 1), k=k + 2)) for _ in range(2)]
            for w in hosts:
                n = len(w)
                occs = [
                    o for o in combinations(range(n), k)
                    if _word_standardize([w[q] for q in o]) == pat
                ]
                for head in (False, True):
                    for tail in (False, True):
                        want = next(
                            (o for o in occs
                             if (not head or o[0] == 0) and (not tail or o[-1] == n - 1)),
                            None,
                        )
                        got = first_occurrence(w, pat, head=head, tail=tail)
                        assert got == want, (w, pat, head, tail)


def test_mesh_box_on_a_long_pattern_matches_bruteforce():
    # box (17, 0), right of the last letter and below the lowest, is tested
    # at depth 16, in the kernel's second part; a letter 0 put last fills
    # it for every occurrence, since the pattern does not end in 1
    rng = random.Random(18)
    mp = MeshPattern(standardize(rng.sample(range(1, 18), 17)), frozenset({(17, 0)}))
    assert mp.tau[-1] != 1
    source = perms._kernel_source(mp.tau, False, False, mp.shaded)
    assert "_occupied" in source.split("def _part1(")[1]
    verdicts = set()
    for i in range(12):
        w = standardize(_planted(rng, mp.tau, 2) + (0,) * (i % 2))
        want = next(
            (
                occ
                for occ in combinations(range(len(w)), 17)
                if standardize(tuple(w[q] for q in occ)) == mp.tau
                and _boxes_empty(w, occ, mp.shaded)
            ),
            None,
        )
        assert _kernel(mp.tau, False, False, mp.shaded)(w) == want, w
        assert contains_mesh(w, mp) == (want is not None)
        verdicts.add(want is not None)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "shaded",
    [
        {(4, 0)},  # past len(tau)
        {(0, -1)},  # negative
        {(0, True)},  # a bool, equal to 1
        {(0, 1.0)},  # a float, equal to 1
        {(0, 1, 2)},  # not a pair
        {"01"},
        [[0, 1]],  # unhashable
        5,  # not a set of boxes
        {(0, 2), (2, 0), (2, True)},  # equal to MU's shading, which has its own scan
    ],
)
def test_mesh_boxes_must_be_int_pairs_in_range(shaded):
    # the valid (0, 1) kernel is cached first, so an equal key must not reuse it
    assert contains_mesh((1, 3, 2), MeshPattern((1, 3, 2), frozenset({(0, 1)})))
    built = _kernel.cache_info().currsize
    with pytest.raises(InvalidInputError, match="shaded box"):
        contains_mesh((1, 3, 2), MeshPattern((1, 3, 2), shaded))
    assert _kernel.cache_info().currsize == built


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 12), max_size=40),  # repeated letters, 0 and negatives
    st.lists(st.integers(0, 60), max_size=40, unique=True),  # distinct, with gaps
)
def test_basis_scans_match_the_kernel_on_words(word, gapped):
    # the public calls accept any word of ints, so the scans behind them
    # must answer as the kernel does on every one; on the first word this
    # checks that MU's scan hands words with repeats or letters <= 0 to the
    # kernel, on the second mostly its stack on distinct positive letters
    for w in (tuple(word), tuple(gapped)):
        assert _contains_2314(w) == (first_occurrence(w, (2, 3, 1, 4)) is not None)
        assert _contains_mu(w) == (_kernel(MU.tau, False, False, MU.shaded)(w) is not None)


def test_basis_patterns_route_to_their_scans(monkeypatch):
    monkeypatch.setattr(perms, "_contains_2314", lambda w: "2314 scan")
    monkeypatch.setattr(perms, "_contains_mu", lambda w: "mu scan")
    w = (2, 3, 1, 4)
    assert contains_classical(w, (2, 3, 1, 4)) == "2314 scan"
    assert contains_classical(w, [2, 3, 1, 4]) == "2314 scan"
    assert contains_classical(w, (2, 3, 1)) is True
    assert contains_mesh(w, MeshPattern([1, 3, 2], {(0, 2), (2, 0), (2, 1)})) == "mu scan"
    assert contains_mesh(w, MU) == "mu scan"
    assert contains_mesh((1, 3, 2), MeshPattern((1, 3, 2), frozenset({(0, 2), (2, 0)}))) is True


def test_contains_classical_basics():
    assert contains_classical((2, 4, 1, 3), (2, 1))
    assert not contains_classical((1, 2, 3), (3, 2, 1))
    assert avoids((1, 2, 3), (2, 1), (3, 1, 2))
    assert not avoids((3, 1, 2), (2, 1))


def test_mesh_mu_examples():
    # 3142 contains classical 132 but every occurrence is killed by shading
    assert contains_classical((3, 1, 4, 2), (1, 3, 2))
    assert not contains_mesh((3, 1, 4, 2), MU)
    assert contains_mesh((1, 3, 2), MU)


def test_fast_scans_match_contains_classical():
    # test_checks runs the registry at nmax 6; the scans need longer words
    result = CHECKS["machine-perm-fast-patterns"].run(7)
    assert result.passed, result.counterexample


def test_ltr_extrema():
    assert ltr_minima((3, 4, 1, 7, 6, 2, 5)) == [(1, 3), (3, 1)]


def test_symmetries():
    p = (2, 4, 1, 3)
    assert reverse(p) == (3, 1, 4, 2)


def test_colayered_word_avoids_213_and_132():
    # the colayered test of the grid's structural check, on permutations
    # and on words of other distinct letters
    for n in range(1, 6):
        for p in all_perms(n):
            want = avoids(p, (2, 1, 3), (1, 3, 2))
            assert _is_colayered_word(p) == want
            assert _is_colayered_word(tuple(3 * v + 7 for v in p)) == want


@given(
    st.integers(0, 30).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
)
def test_contains_231_stack_test_matches_matcher(lst):
    p = tuple(lst)
    assert _contains_231(p) == contains_classical(p, (2, 3, 1))
