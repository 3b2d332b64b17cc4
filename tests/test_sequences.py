import pytest

from patternsort.errors import InvalidInputError
from patternsort.sequences import (
    a007317,
    a007317_terms,
    bell,
    catalan,
    catalan_double_partial_sums,
    cf_series,
    max_distribution_formula,
    _series_reciprocal,
    motzkin,
    narayana,
    narayana_row,
)


def test_catalan():
    assert [catalan(n) for n in range(10)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862,
    ]


def test_narayana():
    assert [narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]
    assert sum(narayana(6, k) for k in range(1, 7)) == catalan(6)
    with pytest.raises(InvalidInputError):
        narayana(4, 0)
    with pytest.raises(InvalidInputError):
        narayana(4, 5)


def test_narayana_row_matches_the_closed_form():
    for n in range(1, 301):
        assert narayana_row(n) == [narayana(n, k) for k in range(1, n + 1)], n
    for n in (0, -1):
        with pytest.raises(InvalidInputError, match="narayana_row needs n >= 1"):
            narayana_row(n)


def test_motzkin():
    assert [motzkin(n) for n in range(9)] == [1, 1, 2, 4, 9, 21, 51, 127, 323]


def test_bell():
    assert [bell(n) for n in range(1, 10)] == [
        1, 2, 5, 15, 52, 203, 877, 4140, 21147,
    ]
    assert bell(0) == 1


def test_a007317():
    assert [a007317(n) for n in range(9)] == [
        1, 2, 5, 15, 51, 188, 731, 2950, 12235,
    ]
    # binomial transform of the Catalan numbers
    from math import comb

    for n in range(9):
        assert a007317(n) == sum(comb(n, k) * catalan(k) for k in range(n + 1))


def test_catalan_double_partial_sums():
    assert [catalan_double_partial_sums(n) for n in range(8)] == [
        0, 1, 4, 12, 34, 98, 294, 919,
    ]
    # agrees with the literal double sum
    for n in range(8):
        want = sum(
            catalan(k) for m in range(1, n + 1) for k in range(1, m + 1)
        )
        assert catalan_double_partial_sums(n) == want


def test_max_distribution_formula():
    assert max_distribution_formula(2, 0) == 1
    assert max_distribution_formula(2, 1) == 3
    assert max_distribution_formula(2, 2) == 1
    assert sum(max_distribution_formula(4, k) for k in range(5)) == a007317(4)
    with pytest.raises(InvalidInputError):
        max_distribution_formula(3, 4)
    with pytest.raises(InvalidInputError):
        max_distribution_formula(3, -1)


def test_a007317_terms_match_closed_form():
    assert a007317_terms(200) == [a007317(n) for n in range(200)]
    assert a007317_terms(0) == []
    assert a007317_terms(1) == [1]
    with pytest.raises(InvalidInputError):
        a007317_terms(-1)


def test_cf_series_heads():
    assert cf_series(1, "a007317", terms=4) == [1, 2, 4, 8]
    assert cf_series(10, "a007317", terms=9) == [a007317(n) for n in range(9)]
    assert cf_series(10, "catalan", terms=9) == [catalan(n) for n in range(9)]
    # deepening the fraction never changes already-converged coefficients
    assert cf_series(11, "a007317", terms=9) == cf_series(10, "a007317", terms=9)
    with pytest.raises(InvalidInputError):
        cf_series(0, "a007317")
    for terms in (0, -1, -5):
        with pytest.raises(InvalidInputError):
            cf_series(3, "a007317", terms=terms)
        with pytest.raises(InvalidInputError):
            cf_series(1, "catalan", terms=terms)
    with pytest.raises(InvalidInputError):
        cf_series(3, "golden")
    with pytest.raises(InvalidInputError):
        _series_reciprocal([2, -1], 4)
