import re

import pytest

from patternsort import rgf
from patternsort.checks import _REGISTRY
from patternsort.errors import InvalidInputError, ResourceLimitError
from patternsort.perms import parse_word
from patternsort.rgf import (
    DEFAULT_RGF_CAP,
    active_sites_1221,
    alpha,
    all_words_standardized,
    enumerate_avoiders,
    enumerate_rgfs,
    format_rgf,
    is_rgf,
    is_weakly_increasing,
    max_distribution,
    partition_to_rgf,
    repeated_ltr_maxima,
    rgf_avoids,
    rgf_contains,
    rgf_to_partition,
    strip_ltr_maxima,
    validate,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
CHECKS = {c.name: c for c in _REGISTRY}


def test_is_rgf():
    assert is_rgf((1,))
    assert is_rgf((1, 1, 2, 1, 3))
    assert is_rgf(())
    assert not is_rgf((2,))
    assert not is_rgf((1, 3))
    assert not is_rgf((1, 2, 4))
    assert not is_rgf((True,))
    assert not is_rgf((1, True))
    with pytest.raises(InvalidInputError):
        validate((True, 2))


def test_validate_reports_position():
    with pytest.raises(InvalidInputError) as e:
        validate((1, 2, 4, 3))
    assert "position 3" in str(e.value)


def test_validate_letter_types_and_messages():
    # plain ints take a fast path; every other letter gets the full check
    class Letter(int):
        pass

    word = validate((Letter(1), Letter(2), 1, Letter(3)))
    assert word == (1, 2, 1, 3) and type(word[0]) is Letter
    head = "not a restricted growth function: letter"
    for bad, text in (
        ((True,), "True at position 1 exceeds 1 + running maximum 0"),
        ((1, True), "True at position 2 exceeds 1 + running maximum 1"),
        ((1, False), "False at position 2 exceeds 1 + running maximum 1"),
        ((0,), "0 at position 1 exceeds 1 + running maximum 0"),
        ((-1,), "-1 at position 1 exceeds 1 + running maximum 0"),
        ((1, 2.0), "2.0 at position 2 exceeds 1 + running maximum 1"),
        ((1, "2"), "'2' at position 2 exceeds 1 + running maximum 1"),
        ((1, None), "None at position 2 exceeds 1 + running maximum 1"),
        ((1, 2, 4, 3), "4 at position 3 exceeds 1 + running maximum 2"),
        ((1, Letter(2), 4), "4 at position 3 exceeds 1 + running maximum 2"),
        ((1, Letter(3)), "3 at position 2 exceeds 1 + running maximum 1"),
    ):
        with pytest.raises(InvalidInputError) as e:
            validate(bad)
        assert str(e.value) == f"{head} {text}", bad


def test_parse_format():
    assert parse_word("111223332345445") == (1,1,1,2,2,3,3,3,2,3,4,5,4,4,5)
    assert parse_word("1 2 1 3") == (1, 2, 1, 3)
    assert format_rgf((1, 2, 1)) == "121"
    big = validate(tuple(range(1, 11)))
    assert " " in format_rgf(big)
    assert parse_word(format_rgf(big)) == big


def test_rgf_contains():
    assert rgf_contains((1, 2, 2, 1), (1, 2, 2, 1))
    assert rgf_contains((1, 1, 2, 2, 1), (1, 2, 2, 1))
    assert not rgf_contains((1, 2, 3, 1), (1, 2, 2, 1))
    # pattern letters are standardized before matching
    assert rgf_contains((1, 2, 3, 1), (2, 3, 1)) == rgf_contains(
        (1, 2, 3, 1), (1, 2, 3)
    ) is True
    with pytest.raises(InvalidInputError):
        rgf_contains((1, 2), ())


def test_fast_scans_match_rgf_contains():
    # test_checks runs the registry at nmax 6; the scans need longer words
    result = CHECKS["rgf-fast-patterns"].run(8)
    assert result.passed, result.counterexample


def test_counts_are_bell():
    for n, count in enumerate(BELL):
        words = list(enumerate_rgfs(n))
        assert len(words) == count
        # lexicographic order: each word is larger than the one before
        assert all(a < b for a, b in zip(words, words[1:]))


def test_avoiders_lex_and_pruned():
    words = enumerate_avoiders(3, (1, 2, 2, 1))
    assert words == sorted(words)
    naive = [w for w in enumerate_rgfs(6) if rgf_avoids(w, (1, 2, 3, 2, 1))]
    assert enumerate_avoiders(6, (1, 2, 3, 2, 1)) == naive
    # the empty word avoids every nonempty pattern; no other word avoids 1
    assert enumerate_avoiders(0, (1,)) == [()]
    assert enumerate_avoiders(2, (1,)) == []


def test_tree_patterns_match_the_naive_filter(monkeypatch):
    # every spelling of 1221 and 12231 grows by its generating tree, and the
    # near misses by the pruned walk; both equal the naive filter
    trees = ((1, 2, 2, 1), (2, 3, 3, 2), (1, 5, 5, 1), (1, 2, 2, 3, 1), (2, 4, 4, 6, 2))
    misses = ((1, 2, 1, 2), (2, 1, 1, 2), (1, 2, 2, 1, 1), (1, 2, 3, 3, 1))
    for patterns, nmax in ((trees, 9), (misses, 8)):
        for n in range(nmax + 1):
            words = list(enumerate_rgfs(n))
            for q in patterns:
                naive = [w for w in words if not rgf_contains(w, q)]
                assert enumerate_avoiders(n, q) == naive, (q, n)
    # only the near misses reach the matcher's walk
    monkeypatch.setattr(rgf, "_walk", None)
    for q in trees:
        assert len(enumerate_avoiders(6, q)) == (132 if len(q) == 4 else 188), q
    for q in misses:
        with pytest.raises(TypeError):
            enumerate_avoiders(6, q)


def test_enumeration_caps():
    # the lazy walk checks its length only once it is iterated
    cap = DEFAULT_RGF_CAP
    for n, error, message in (
        (-1, InvalidInputError, "length must be nonnegative"),
        (cap + 1, ResourceLimitError, f"refusing RGF enumeration at n={cap + 1} (cap {cap})"),
    ):
        words = enumerate_rgfs(n)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            next(words)
    # the list form checks its pattern before its length
    with pytest.raises(InvalidInputError, match="empty pattern"):
        enumerate_avoiders(-1, ())
    with pytest.raises(ResourceLimitError, match=re.escape("at n=5 (cap 4)")):
        enumerate_avoiders(5, (1, 2, 2, 1), cap=4)


def test_deep_first_rgf_passes_the_recursion_limit():
    assert next(enumerate_rgfs(2000, cap=2000)) == (1,) * 2000


def test_partition_duality():
    # 12132 encodes the partition 13-25-4
    word = (1, 2, 1, 3, 2)
    blocks = rgf_to_partition(word)
    assert blocks == ((1, 3), (2, 5), (4,))
    assert partition_to_rgf(blocks) == word


def test_partition_roundtrip_exhaustive():
    for n in range(1, 8):
        for w in enumerate_rgfs(n):
            assert partition_to_rgf(rgf_to_partition(w)) == w


def test_w_subword():
    # on an RGF, strip_ltr_maxima is the w-subword: drop the first
    # occurrence of each letter, keep the rest in order
    assert strip_ltr_maxima((1, 2, 1, 2, 3, 2)) == (1, 2, 2)
    assert strip_ltr_maxima((1, 2, 3)) == ()


def test_1221_iff_weakly_increasing_leftovers():
    for n in range(1, 8):
        for w in enumerate_rgfs(n):
            assert rgf_avoids(w, (1, 2, 2, 1)) == is_weakly_increasing(
                strip_ltr_maxima(w)
            )


def test_strip_and_repeated_maxima():
    w = (1, 2, 1, 3, 1, 4, 2, 3, 4)
    assert strip_ltr_maxima(w) == (1, 1, 2, 3, 4)
    assert repeated_ltr_maxima(w) == (9,)
    # the first letter is never a repeated maximum
    assert repeated_ltr_maxima((1, 1)) == (2,)
    assert repeated_ltr_maxima((1, 2, 3)) == ()


def test_alpha():
    assert alpha((1, 1, 2, 3)) == (1, 2, 3)
    assert alpha((1, 2, 3)) == (1, 2, 3)


def test_active_sites():
    assert active_sites_1221((1,)) == range(1, 3)
    assert active_sites_1221((1, 2, 3)) == range(1, 5)
    assert active_sites_1221((1, 2, 3, 2)) == range(2, 5)
    assert active_sites_1221((1, 1, 2, 3, 3, 4)) == range(3, 6)
    assert active_sites_1221(()) == range(1, 2)
    with pytest.raises(InvalidInputError, match="contains 1221"):
        active_sites_1221((1, 2, 2, 1))


def test_max_distribution_matches_narayana():
    from patternsort.sequences import narayana

    for n in range(1, 7):
        dist = max_distribution(n, (1, 2, 2, 1))
        for k in range(1, n + 1):
            assert dist.get(k, 0) == narayana(n, k)


def test_all_words_standardized():
    words = all_words_standardized(2)
    assert set(words) == {(1, 1), (1, 2), (2, 1)}
