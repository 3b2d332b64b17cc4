"""Seeded input generators for the benchmark.

Everything here is plain Python over ``random.Random``; nothing imports
the library under test, so two commits given the same seed see the same
inputs.  Words are restricted growth functions (RGFs): positive letters,
first letter 1, each letter at most one more than the maximum before it.
"""

from __future__ import annotations

import itertools
import random

LABELED_STEPS = ("U", "D", "H0", "H1", "H2")


def rgf_12231_avoider(rng: random.Random, length: int) -> tuple[int, ...]:
    """A random RGF avoiding 12231.

    On an RGF, 12231 is a repeated letter b followed later by a larger
    letter and after that by a letter smaller than b (a "repeat-led 231").
    So each appended letter must be at least as large as the largest
    repeated letter that already has a larger letter after it.
    """
    word: list[int] = []
    mx = 0
    seen: set[int] = set()
    repeats: list[tuple[int, int]] = []  # (position, letter) of repeat occurrences
    for _ in range(length):
        floor = 1
        for pos, b in repeats:
            if b > floor and any(v > b for v in word[pos + 1:]):
                floor = b
        x = rng.randint(floor, mx + 1) if word else 1
        if x in seen:
            repeats.append((len(word), x))
        seen.add(x)
        word.append(x)
        mx = max(mx, x)
    return tuple(word)


def weak_remainder_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """A random RGF whose letters other than the strict left-to-right
    maxima form a weakly increasing word (the domain of nr-to-av321)."""
    word: list[int] = []
    mx = 0
    low = 1  # last non-maximum letter; the next one may not go below it
    for _ in range(length):
        if not word or rng.random() < 0.5:
            mx += 1
            word.append(mx)
        else:
            low = rng.randint(low, mx)
            word.append(low)
    return tuple(word)


def weak_remainder_words(length: int) -> list[tuple[int, ...]]:
    """Every weak-remainder word of the given length, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def extend(word: list[int], mx: int, low: int) -> None:
        if len(word) == length:
            out.append(tuple(word))
            return
        for x in range(low, mx + 2):
            word.append(x)
            if x == mx + 1:
                extend(word, x, low)
            else:
                extend(word, mx, x)
            word.pop()

    extend([], 0, 1)
    return out


def dyck_path(rng: random.Random, semilength: int) -> str:
    """A uniformly random Dyck path, by the cycle lemma."""
    steps = ["U"] * semilength + ["D"] * (semilength + 1)
    rng.shuffle(steps)
    # rotate to start just after the first lowest point, then drop the final D
    h = low = 0
    cut = 0
    for i, s in enumerate(steps):
        h += 1 if s == "U" else -1
        if h < low:
            low, cut = h, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def labeled_motzkin_path(rng: random.Random, length: int) -> tuple[str, ...]:
    """A random labeled Motzkin path: each step is drawn uniformly from the
    steps that keep the path able to return to height 0 in time.  H2 needs
    height at least 1."""
    steps: list[str] = []
    h = 0
    for i in range(length):
        rest = length - i - 1
        allowed = [
            s
            for s in LABELED_STEPS
            if not (s in ("D", "H2") and h == 0)
            and h + (s == "U") - (s == "D") <= rest
        ]
        s = rng.choice(allowed)
        steps.append(s)
        h += (s == "U") - (s == "D")
    return tuple(steps)


def shuffled_perms(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Every permutation of 1..n, in a seeded random order."""
    perms = list(itertools.permutations(range(1, n + 1)))
    rng.shuffle(perms)
    return perms
