"""Counting sequences and series used by the verification harness.

Everything here is exact integer arithmetic; no floats, no rounding.
"""

from __future__ import annotations

from math import comb

from .errors import InvalidInputError


def catalan(n: int) -> int:
    if n < 0:
        raise InvalidInputError("catalan is defined for n >= 0")
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Dyck paths of semilength n with exactly k - 1 double rises."""
    if n < 1 or k < 1 or k > n:
        raise InvalidInputError(f"narayana needs 1 <= k <= n, got n={n}, k={k}")
    return comb(n, k) * comb(n, k - 1) // n


def narayana_row(n: int) -> list[int]:
    """narayana(n, 1), ..., narayana(n, n) by the ratio of neighbours

        N(n, k + 1) = N(n, k) (n - k)(n - k + 1) / (k (k + 1)),

    from N(n, 1) = 1.  Each division is exact.  An entry costs two small
    multiplications and one division here, where the closed form takes
    two binomials per entry.
    """
    if n < 1:
        raise InvalidInputError(f"narayana_row needs n >= 1, got n={n}")
    row = [1]
    for k in range(1, n):
        row.append(row[-1] * ((n - k) * (n - k + 1)) // (k * (k + 1)))
    return row


def motzkin(n: int) -> int:
    if n < 0:
        raise InvalidInputError("motzkin is defined for n >= 0")
    m = [1] * (n + 1)
    for i in range(2, n + 1):
        m[i] = m[i - 1] + sum(m[j] * m[i - 2 - j] for j in range(i - 1))
    return m[n]


def bell(n: int) -> int:
    """Set partitions of an n-element set, by the Bell triangle."""
    if n < 0:
        raise InvalidInputError("bell is defined for n >= 0")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def a007317(n: int) -> int:
    """Binomial transform of the Catalan numbers, offset 0: 1, 2, 5, 15, 51, ..."""
    if n < 0:
        raise InvalidInputError("a007317 is defined for n >= 0")
    return sum(comb(n, k) * catalan(k) for k in range(n + 1))


def a007317_terms(count: int) -> list[int]:
    """a007317(0), ..., a007317(count - 1) by the P-recurrence

        (n + 1) a(n) = (6n - 2) a(n - 1) - 5(n - 1) a(n - 2),

    with a(0) = 1 and a(1) = 2.  Each division is exact.  A term costs a
    few big-int operations here, where the closed form sums n + 1
    binomial products for term n.
    """
    if count < 0:
        raise InvalidInputError("a007317_terms needs count >= 0")
    terms = [1, 2][:count]
    for n in range(2, count):
        terms.append(((6 * n - 2) * terms[n - 1] - 5 * (n - 1) * terms[n - 2]) // (n + 1))
    return terms


def catalan_double_partial_sums(n: int) -> int:
    """Twice-iterated partial sums of Catalan numbers starting at c_1.

    Gives 0, 1, 4, 12, 34, 98, 294, 919 for n = 0..7.
    """
    if n < 0:
        raise InvalidInputError("defined for n >= 0")
    return sum((n - m + 1) * catalan(m) for m in range(1, n + 1))


def max_distribution_formula(n: int, k: int) -> int:
    """Closed form sum(C(n, j) * narayana(j, k) for j >= k)."""
    if not 0 <= k <= n:
        raise InvalidInputError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        return 1  # only the all-ones word has maximum 1
    return sum(comb(n, j) * narayana(j, k) for j in range(k, n + 1))


def max_distribution_row(n: int) -> list[int]:
    """Closed-form counts at length n by maximum k = 1..n, or sortables by ltr-minima."""
    return [max_distribution_formula(n - 1, k - 1) for k in range(1, n + 1)]


def _series_reciprocal(d: list[int], terms: int) -> list[int]:
    # 1 / (d[0] + d[1] x + ...) with d[0] == 1, as integer coefficients
    if d[0] != 1:
        raise InvalidInputError(f"series constant term must be 1, got {d[0]}")
    f = [0] * terms
    f[0] = 1
    for n in range(1, terms):
        f[n] = -sum(d[k] * f[n - k] for k in range(1, n + 1) if k < len(d))
    return f


def cf_series(depth: int, variant: str, terms: int | None = None) -> list[int]:
    """Coefficients of a truncated continued fraction.

    variant "a007317": 1/(1 - 2x - x^2/(1 - 3x - x^2/(1 - 3x - ...)));
    variant "catalan": 1/(1 - x - x^2/(1 - 2x - x^2/(1 - 2x - ...))).
    Level 1 uses the head linear coefficient, deeper levels the tail one.
    The innermost level drops the x^2 term.  Truncation at depth d agrees
    with the full series through order d (and typically further).
    """
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    if terms is not None and terms < 1:
        raise InvalidInputError("terms must be >= 1")
    if variant == "a007317":
        head, tail = 2, 3
    elif variant == "catalan":
        head, tail = 1, 2
    else:
        raise InvalidInputError(f"unknown variant {variant!r}")
    if terms is None:
        terms = max(depth, 4)

    # build from the innermost level outward
    level: list[int] = []
    for lvl in range(depth, 0, -1):
        a = head if lvl == 1 else tail
        denom = [1, -a] + [0] * max(0, terms - 2)
        if lvl < depth:
            # denom -= x^2 * inner
            for i, c in enumerate(level):
                if i + 2 < len(denom):
                    denom[i + 2] -= c
        level = _series_reciprocal(denom[:terms], terms)
    return level
