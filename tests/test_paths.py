import random
import re
from itertools import accumulate, product

import pytest

from patternsort.errors import InvalidInputError, MalformedInputError, ResourceLimitError, walk
from patternsort.paths import (
    DEFAULT_LABELED_CAP,
    DEFAULT_PATH_CAP,
    double_rises,
    dyck_children,
    dyck_parent,
    enumerate_dyck,
    enumerate_labeled_motzkin,
    enumerate_motzkin,
    final_descent_length,
    format_steps,
    is_dyck,
    parse_steps,
    validate_labeled_motzkin,
)
from patternsort.sequences import catalan, motzkin


def test_is_dyck():
    assert is_dyck("")
    assert is_dyck("UD")
    assert is_dyck("UUDUDD")
    assert not is_dyck("DU")
    assert not is_dyck("UDD")
    assert not is_dyck("UDU")
    assert not is_dyck(["U", "D"]) and not is_dyck(("U", "D"))  # a path is a str


def test_parse_steps():
    assert parse_steps("H0 H1 U U D H2 H0 D H0 H0") == (
        "H0", "H1", "U", "U", "D", "H2", "H0", "D", "H0", "H0"
    )
    assert parse_steps("UUDD") == ("U", "U", "D", "D")
    assert parse_steps("UH1D") == ("U", "H1", "D")
    with pytest.raises(MalformedInputError):
        parse_steps("UX")
    with pytest.raises(MalformedInputError):
        parse_steps("H3")


def _parse_steps_by_loop(text):
    """The character loop parse_steps used before it read the step tables."""
    s = text.strip()
    if any(c.isspace() for c in s):
        toks = tuple(s.split())
        known = {"D", "H", "U", "H0", "H1", "H2"}
        for t in toks:
            if t not in known:
                raise MalformedInputError(f"unknown step {t!r} in {text!r}")
        return toks
    toks = []
    i = 0
    while i < len(s):
        c = s[i]
        if c in ("U", "D"):
            toks.append(c)
            i += 1
        elif c == "H":
            if i + 1 < len(s) and s[i + 1] in "012":
                toks.append("H" + s[i + 1])
                i += 2
            else:
                toks.append("H")
                i += 1
        else:
            raise MalformedInputError(f"unknown step character {c!r} in {text!r}")
    return tuple(toks)


def _parsed(parse, text):
    try:
        return parse(text)
    except MalformedInputError as exc:
        return "error", str(exc)


def test_parse_steps_matches_the_character_loop():
    # every string of length <= 3 over step letters, labels, near misses
    # and whitespace (an ideographic space too), then seeded longer ones;
    # results and messages agree
    alphabet = "UDH0123hXé\u0660 \t\n\u3000"
    texts = ["".join(t) for n in range(4) for t in product(alphabet, repeat=n)]
    rng = random.Random(32)
    texts += ["".join(rng.choices(alphabet, k=rng.randint(4, 12))) for _ in range(20000)]
    outcomes = set()
    for text in texts:
        want = _parsed(_parse_steps_by_loop, text)
        assert _parsed(parse_steps, text) == want, text
        outcomes.add(want[:1] == ("error",))
    assert outcomes == {True, False}


def test_format_steps():
    assert format_steps(("U", "D")) == "UD"
    assert format_steps(("H0", "U", "D")) == "H0 U D"
    steps = parse_steps("H0 H1 U U D H2 H0 D H0 H0")
    assert parse_steps(format_steps(steps)) == steps


def test_labeled_validation():
    validate_labeled_motzkin(("H0", "H1"))
    validate_labeled_motzkin(("U", "H2", "D"))
    for steps, message in (
        (("H2",), "H2 at height zero at position 1; H2 needs height >= 1"),
        (("U", "D", "H2"), "H2 at height zero at position 3; H2 needs height >= 1"),
        (("D",), "path dips below the axis at position 1"),
        (("U", "D", "D", "U"), "path dips below the axis at position 3"),
        (("U",), "path ends at height 1, not 0"),
        (("U", "U", "H2", "D"), "path ends at height 1, not 0"),
        (("U", "H3", "D"), "unknown labeled step 'H3' at position 2"),
        (("H",), "unknown labeled step 'H' at position 1"),
        (("U", ["x"]), "unknown labeled step ['x'] at position 2"),
        (("H0", 1), "unknown labeled step 1 at position 2"),
    ):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            validate_labeled_motzkin(steps)


def test_enumerate_dyck():
    assert list(enumerate_dyck(0)) == [""]
    assert list(enumerate_dyck(1)) == ["UD"]
    for n in range(1, 8):
        ps = list(enumerate_dyck(n))
        assert len(ps) == catalan(n)
        assert ps == sorted(ps)
        assert all(is_dyck(p) for p in ps)


def test_enumerate_motzkin():
    # brute force: every D/H/U word whose heights stay >= 0 and end at 0,
    # in the order D < H < U
    rise = {"D": -1, "H": 0, "U": 1}
    for n in range(0, 8):
        want = [
            w for w in product("DHU", repeat=n)
            if min(accumulate((rise[t] for t in w), initial=0)) == 0
            and sum(rise[t] for t in w) == 0
        ]
        assert len(want) == motzkin(n)
        assert list(enumerate_motzkin(n)) == want


def test_enumerate_labeled():
    # 1, 2, 5, 15, 51: one fewer than the word length they encode
    counts = [sum(1 for _ in enumerate_labeled_motzkin(n)) for n in range(5)]
    assert counts == [1, 2, 5, 15, 51]


def test_caps():
    # the lazy walks check their length only once they are iterated, and a
    # negative length is refused before the cap
    for walk, cap, what, refusing in (
        (enumerate_dyck, DEFAULT_PATH_CAP, "semilength", "Dyck enumeration at semilength"),
        (enumerate_motzkin, DEFAULT_PATH_CAP, "length", "Motzkin enumeration at length"),
        (
            enumerate_labeled_motzkin,
            DEFAULT_LABELED_CAP,
            "length",
            "labeled Motzkin enumeration at length",
        ),
    ):
        lazy = walk(-1, cap=-5)
        with pytest.raises(InvalidInputError, match=f"^{what} must be nonnegative$"):
            next(lazy)
        lazy = walk(cap + 1)
        with pytest.raises(
            ResourceLimitError, match=re.escape(f"refusing {refusing} {cap + 1} (cap {cap})")
        ):
            next(lazy)


def test_walk_lists_one_level_depth_first():
    def halves(word):
        return (word + "0", word + "1")

    # depth 0 is the root alone; children are never asked for
    assert list(walk("", None, 0)) == [""]
    assert list(walk("", halves, 1)) == ["0", "1"]
    assert list(walk("", halves, 3)) == ["".join(w) for w in product("01", repeat=3)]
    assert list(walk("", lambda w: (), 2)) == []


def test_deep_first_paths_pass_the_recursion_limit():
    # the walk keeps its own stack, so a path thousands of steps long is
    # listed as readily as a short one
    assert next(enumerate_dyck(2000, cap=2000)) == "UD" * 2000
    assert next(enumerate_labeled_motzkin(2000, cap=2000)) == ("U",) * 1000 + ("D",) * 1000


def test_double_rises():
    assert double_rises("UD") == 0
    assert double_rises("UUDD") == 1
    assert double_rises("UUUDDD") == 2
    assert double_rises("UDUDUD") == 0


def test_final_descent_length():
    assert final_descent_length("UUDD") == 2
    assert final_descent_length("UUDDUD") == 1


def test_children_parent_inverse():
    for n in range(1, 7):
        for p in enumerate_dyck(n):
            kids = dyck_children(p)
            assert len(kids) == final_descent_length(p) + 1
            for q in kids:
                assert dyck_parent(q) == p
    with pytest.raises(InvalidInputError):
        dyck_parent("")


def test_every_path_has_unique_parent():
    for n in range(2, 8):
        for q in enumerate_dyck(n):
            p = dyck_parent(q)
            assert is_dyck(p) and len(p) == 2 * (n - 1)
            assert q in dyck_children(p)
