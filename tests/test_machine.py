from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from patternsort.errors import InvalidInputError, ResourceLimitError
from patternsort.machine import (
    DEFAULT_PERM_CAP,
    _generic_pass,
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
from patternsort.perms import all_perms, avoids


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


@pytest.mark.parametrize(
    "sigma",
    [(1.0, 3.0, 2.0), (True, 2), (1, 3, 3), (0, 1, 2), (1, [3], 2), ([1], [2])],
)
def test_sigma_validated_after_an_equal_valid_control(sigma):
    # validated controls are remembered; an equal or unhashable control of
    # other letters must still be rejected as before
    assert is_sigma_sortable((1, 2), (1, 3, 2))
    assert is_sigma_sortable((1, 2), (1, 2))
    with pytest.raises(InvalidInputError, match="not a permutation of 1..n"):
        is_sigma_sortable((1, 2), sigma)


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


@settings(max_examples=200)
@given(
    st.integers(1, 40).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
)
def test_fast_matches_generic(lst):
    p = tuple(lst)
    for sigma in permutations((1, 2, 3)):
        generic = _generic_pass(p, sigma)
        assert s_sigma(p, sigma) == generic[0]
        assert sigma_stack_pass(p, sigma) == generic
    # traces are replayed from the output, so every control's must match
    for sigma in ((2, 1), (1, 3, 2, 4), (2, 1, 4, 3)):
        generic = _generic_pass(p, sigma)
        assert s_sigma(p, sigma) == generic[0]
        assert sigma_stack_pass(p, sigma) == generic


def test_stack_shape_on_sortables():
    assert stack_shape_check((2, 4, 1, 3))
    with pytest.raises(InvalidInputError):
        stack_shape_check((1, 3, 2))


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
    with pytest.raises(ResourceLimitError):
        enumerate_sortable(DEFAULT_PERM_CAP + 1, (1, 3, 2))
    with pytest.raises(ResourceLimitError):
        enumerate_sortable(7, (1, 3, 2), cap=6)
