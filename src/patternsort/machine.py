"""Two-stack sorting machine with a pattern-avoiding first stack.

The machine scans the input left to right.  The next element is pushed
whenever the stack content, read top to bottom with the new element on
top, still avoids the control pattern; otherwise the top is popped to
the output and the test repeats.  After the input is exhausted the
stack is flushed.  A permutation is sortable when a classical
increasing stack can finish the job, i.e. when the first pass output
avoids 231.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, NamedTuple

from .errors import InvalidInputError, ResourceLimitError
from .perms import (
    Perm,
    _contains_231,
    as_perm,
    avoids,
    first_occurrence,
    ltr_minima,
    standardize,
)

DEFAULT_PERM_CAP = 10


def _check_sigma(sigma: Perm) -> Perm:
    s = as_perm(sigma)
    if len(s) < 2:
        raise InvalidInputError(
            "control pattern must have length >= 2 (a shorter one would "
            "freeze or trivialize the stack)"
        )
    return s


class MachineTrace(NamedTuple):
    """Event log of one first-stack pass.

    Each event is (op, value, snapshot) where op is "PUSH" or "POP" and
    the snapshot is the stack content read top-to-bottom just after the
    event.
    """

    events: tuple[tuple[str, int, tuple[int, ...]], ...]
    output: Perm

    def as_lines(self) -> list[str]:
        out = []
        for op, value, snap in self.events:
            shown = ",".join(str(v) for v in snap) if snap else "(empty)"
            out.append(f"{op} {value} | stack: {shown}")
        return out

    def as_dicts(self) -> list[dict]:
        return [
            {"op": op, "value": value, "stack": list(snap)}
            for op, value, snap in self.events
        ]


def _generic_pass(pi: Perm, sigma: Perm) -> tuple[Perm, MachineTrace]:
    stack: list[int] = []  # bottom to top
    output: list[int] = []
    events: list[tuple[str, int, tuple[int, ...]]] = []

    def snap() -> tuple[int, ...]:
        return tuple(reversed(stack))

    for x in pi:
        # the stack already avoids sigma, so a new occurrence must start
        # at the incoming element, which tops the top-to-bottom word
        while stack and first_occurrence((x,) + snap(), sigma, head=True) is not None:
            v = stack.pop()
            output.append(v)
            events.append(("POP", v, snap()))
        stack.append(x)
        events.append(("PUSH", x, snap()))
    while stack:
        v = stack.pop()
        output.append(v)
        events.append(("POP", v, snap()))
    out = tuple(output)
    return out, MachineTrace(tuple(events), out)


def _s132_output(pi: Perm) -> Perm:
    # Pushing x is illegal iff some s_i < s_j sit above x's value window:
    # i < j bottom-to-top with x < s_i < s_j.  The first such j is the cut;
    # everything from it upward pops before x enters.
    stack: list[int] = []
    output: list[int] = []
    for x in pi:
        cut = -1
        low = None  # smallest stack value above x seen so far
        for j, v in enumerate(stack):
            if v > x:
                if low is not None and v > low:
                    cut = j
                    break
                if low is None or v < low:
                    low = v
        if cut >= 0:
            output.extend(reversed(stack[cut:]))
            del stack[cut:]
        stack.append(x)
    output.extend(reversed(stack))
    return tuple(output)


def _s21_output(pi: Perm) -> Perm:
    # classical Stacksort: the stack stays decreasing bottom to top
    stack: list[int] = []
    output: list[int] = []
    for x in pi:
        while stack and stack[-1] < x:
            output.append(stack.pop())
        stack.append(x)
    output.extend(reversed(stack))
    return tuple(output)


def sigma_stack_pass(pi: Iterable[int], sigma: Iterable[int]) -> tuple[Perm, MachineTrace]:
    """One traced pass of the machine's first stack."""
    p = as_perm(pi)
    s = _check_sigma(sigma)
    return _generic_pass(p, s)


def s_sigma(pi: Iterable[int], sigma: Iterable[int]) -> Perm:
    """First-pass output, via pattern-specific fast paths when available."""
    p = as_perm(pi)
    s = _check_sigma(sigma)
    if s == (1, 3, 2):
        return _s132_output(p)
    if s == (2, 1):
        return _s21_output(p)
    return _generic_pass(p, s)[0]


def stacksort(pi: Iterable[int]) -> Perm:
    return _s21_output(as_perm(pi))


def is_sigma_sortable(pi: Iterable[int], sigma: Iterable[int] = (1, 3, 2)) -> bool:
    return not _contains_231(s_sigma(pi, sigma))


def enumerate_sortable(
    n: int, sigma: Iterable[int] = (1, 3, 2), cap: int = DEFAULT_PERM_CAP
) -> list[Perm]:
    """All sortable permutations of length n, lexicographically sorted."""
    if n < 0:
        raise InvalidInputError("length must be nonnegative")
    if n > cap:
        raise ResourceLimitError(f"refusing enumeration of S_{n} (cap {cap})")
    s = _check_sigma(sigma)
    return [p for p in permutations(range(1, n + 1)) if is_sigma_sortable(p, s)]


def stack_shape_check(pi: Iterable[int], cap: int = DEFAULT_PERM_CAP) -> bool:
    """Verify the stack stays "minima floor + one increasing block" shaped.

    For a 132-sortable permutation, whenever the next input value lies in
    block B_i, the stack read bottom-to-top must be m_1 ... m_i followed
    by an increasing run of elements of B_i.
    """
    p = as_perm(pi)
    if not is_sigma_sortable(p, (1, 3, 2)):
        raise InvalidInputError("shape law only applies to sortable permutations")
    minima = ltr_minima(p)
    min_positions = [pos for pos, _ in minima]
    min_values = tuple(val for _, val in minima)
    min_set = set(min_values)

    def block_of(q: int) -> int:
        # 1-based index of the block holding the non-minimum at position q
        i = 0
        while i < len(min_positions) and min_positions[i] < q:
            i += 1
        return i

    block_idx = {
        x: block_of(q) for q, x in enumerate(p, start=1) if x not in min_set
    }

    # the stack x meets is the one left by the previous PUSH, read bottom-to-top
    _, trace = sigma_stack_pass(p, (1, 3, 2))
    pushed = [snap for op, _, snap in trace.events if op == "PUSH"]
    for q, (x, snap) in enumerate(zip(p, [()] + pushed), start=1):
        if x not in min_set:
            stack = snap[::-1]
            i = block_of(q)
            floor = stack[:i]
            rest = stack[i:]
            if floor != min_values[:i]:
                return False
            if any(a >= b for a, b in zip(rest, rest[1:])):
                return False
            if any(block_idx[v] != i for v in rest):
                return False
    return True


def sigma_hat(sigma: Perm) -> Perm:
    """The control pattern with its first two entries swapped."""
    s = _check_sigma(sigma)
    return (s[1], s[0]) + s[2:]


def witness_non_class(
    sigma: Iterable[int], max_n: int = 6
) -> tuple[Perm, Perm] | None:
    """Smallest (host, pattern) with host sortable but the pattern not.

    Scans hosts by length then lexicographic order, and inside each host
    scans contained patterns by length then position order.  Returns None
    when no witness exists up to max_n, as happens when the sortable set
    is closed under containment.
    """
    from itertools import combinations

    s = _check_sigma(sigma)
    for m in range(2, max_n + 1):
        for host in permutations(range(1, m + 1)):
            if not is_sigma_sortable(host, s):
                continue
            for plen in range(2, m):
                for posns in combinations(range(m), plen):
                    pat = standardize(tuple(host[i] for i in posns))
                    if not is_sigma_sortable(pat, s):
                        return host, pat
    return None


class CharacterizationReport(NamedTuple):
    sigma: Perm
    kind: str  # "mesh-basis", "class", or "non-class"
    holds: bool
    detail: str
    counterexamples: tuple[Perm, ...]


def verify_characterizations(
    n: int, sigma: Iterable[int], cap: int = DEFAULT_PERM_CAP
) -> CharacterizationReport:
    """Check the sortable set against its predicted description at length n.

    For control 132 the prediction is the two-element basis (one classical,
    one mesh).  Otherwise, when swapping the first two control entries
    yields something containing 231, the sortable set must be the class
    avoiding 132 and the reversed control; when it does not, the sortable
    set is not closed under containment and a witness pair is produced.
    """
    from .perms import MU, contains_mesh, reverse

    s = _check_sigma(sigma)
    if n > cap:
        raise ResourceLimitError(f"refusing verification at n={n} (cap {cap})")

    if s == (1, 3, 2):
        sortable = set(enumerate_sortable(n, s, cap))
        predicted = {
            p
            for p in permutations(range(1, n + 1))
            if avoids(p, (2, 3, 1, 4)) and not contains_mesh(p, MU)
        }
        bad = tuple(sorted(sortable.symmetric_difference(predicted)))
        return CharacterizationReport(
            s,
            "mesh-basis",
            not bad,
            f"sortable set vs avoiders of 2314 and the shaded 132, n={n}",
            bad,
        )

    if _contains_231(sigma_hat(s)):
        sortable = set(enumerate_sortable(n, s, cap))
        rev = reverse(s)
        predicted = {
            p
            for p in permutations(range(1, n + 1))
            if avoids(p, (1, 3, 2), rev)
        }
        bad = tuple(sorted(sortable.symmetric_difference(predicted)))
        return CharacterizationReport(
            s,
            "class",
            not bad,
            f"sortable set vs avoiders of 132 and the reversed control, n={n}",
            bad,
        )

    # length-3 control cases all have witnesses by host length 6
    hosts = max(n, 6) if len(s) == 3 else n
    w = witness_non_class(s, max_n=hosts)
    if w is None:
        return CharacterizationReport(
            s, "non-class", False, f"no witness found up to n={hosts}", ()
        )
    host, pat = w
    return CharacterizationReport(
        s,
        "non-class",
        True,
        f"sortable {host} contains unsortable {pat}",
        (host, pat),
    )
