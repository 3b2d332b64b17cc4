"""Two-stack sorting machine with a pattern-avoiding first stack.

The machine scans the input left to right.  The next element is pushed
whenever the stack content, read top to bottom with the new element on
top, still avoids the control pattern; otherwise the top is popped to
the output and the test repeats.  After the input is exhausted the
stack is flushed.  A permutation is sortable when a classical
increasing stack can finish the job, i.e. when the first pass output
avoids 231.

For a control sigma of length 3 no matcher is needed.  Pushing x is
illegal iff some y sits above some z in the stack with (x, y, z)
order-isomorphic to sigma; the lowest such y is the cut, and everything
from the cut upward pops before x enters.  One bottom-to-top scan finds
the cut, keeping one running statistic of the values seen on z's side
of x:

    sigma   y's side   statistic of the z-side values, cut at
    132     above x    nearest to x,    a y farther from x than it
    312     below x    nearest to x,    a y farther from x than it
    123     above x    farthest from x, a y nearer to x than it
    321     below x    farthest from x, a y nearer to x than it
    231     above x    whether any lies below x, a y after one
    213     below x    whether any lies above x, a y after one

Controls whose y lies below x run on complemented values (n + 1 - v),
which puts y above x and keeps the statistic.  The farthest rule needs
no scan: its cut is the lowest level j with x < S[j] < max S[:j], so
the levels that pop are those where the largest value below an earlier
one, at or under the level, exceeds x (`_farthest_output`).  The generic
machine (`_generic_output`) serves longer controls and is the reference
the cut scan is cross-checked against; Stacksort serves 21.

A pass is fixed by its input and its output, so a trace (`MachineTrace`)
holds just those two and the fast passes record nothing: the top of the
stack pops exactly when it is the next output letter, since pushing over
it would bury it.  `_moves` replays a pass by that rule, yielding each
event with the stack depth after it, to the text trace, the event log and
the shape check.  `_generic_pass` has the generic machine record its own
events and is the reference the replay is cross-checked against.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidInputError, check_size
from .perms import (
    MU,
    Perm,
    _contains_231,
    all_perms,
    as_perm,
    avoids,
    contains_mesh,
    first_occurrence,
    reverse,
    standardize,
)

DEFAULT_PERM_CAP = 10

_Event = tuple[str, int, tuple[int, ...]]  # (op, value, snapshot) of one trace event


def _check_sigma(sigma: Iterable[int]) -> Perm:
    s = tuple(sigma)
    # a plain-int 3-tuple that keys a cut rule, or a plain-int 21, is a permutation;
    # bools, floats and int subclasses fail the type test and are validated in full
    if len(s) == 3 and type(s[0]) is type(s[1]) is type(s[2]) is int and s in _CUT_RULES:
        return s
    if s == (2, 1) and type(s[0]) is type(s[1]) is int:
        return s
    s = as_perm(s)
    if len(s) < 2:
        raise InvalidInputError(
            "control pattern must have length >= 2 (a shorter one would "
            "freeze or trivialize the stack)"
        )
    return s


class MachineTrace(NamedTuple):
    """One first-stack pass, held as its input and its output.

    The pass pops the top of the stack exactly when it is the next output
    letter, so these two fix every event, and `_moves` replays them.  An
    event is (op, value, snapshot) where op is "PUSH" or "POP" and the
    snapshot is the stack content read top-to-bottom just after the event.
    """

    perm: Perm
    output: Perm

    @property
    def events(self) -> tuple[_Event, ...]:
        """The events of the pass; a POP reuses the snapshot its level's PUSH built."""
        snaps = [()] * (len(self.perm) + 1)  # snaps[d]: the stack of depth d
        events = []
        for op, v, d in _moves(self.perm, self.output):
            if op == "PUSH":
                snaps[d] = (v,) + snaps[d - 1]
            events.append((op, v, snaps[d]))
        return tuple(events)

    def as_lines(self) -> list[str]:
        """One text line per event, each stack text built from the one below it."""
        name = list(map(str, range(len(self.output) + 1)))  # name[v] == str(v)
        texts = ["(empty)"] * len(name)  # texts[d]: the stack of depth d, top first
        lines = []
        for op, v, d in _moves(self.perm, self.output):
            if op == "PUSH":
                texts[d] = f"{name[v]},{texts[d - 1]}" if d > 1 else name[v]
            lines.append(f"{op} {name[v]} | stack: {texts[d]}")
        return lines

    def as_dicts(self) -> list[dict]:
        return [{"op": op, "value": v, "stack": list(s)} for op, v, s in self.events]


def _generic_pass(pi: Perm, sigma: Perm) -> tuple[Perm, tuple[_Event, ...]]:
    """The generic machine's output and the events it records."""
    events: list[_Event] = []
    out = _generic_output(pi, sigma, events)
    return out, tuple(events)


def _generic_output(pi: Perm, sigma: Perm, events: list | None = None) -> Perm:
    """The generic machine's output; its events go to ``events`` if given."""
    stack: tuple[int, ...] = ()  # top to bottom
    output: list[int] = []
    for x in pi:
        # the stack already avoids sigma, so a new occurrence must start
        # at the incoming element, which tops the top-to-bottom word
        while stack and first_occurrence((x,) + stack, sigma, head=True) is not None:
            v, stack = stack[0], stack[1:]
            output.append(v)
            if events is not None:
                events.append(("POP", v, stack))
        stack = (x,) + stack
        if events is not None:
            events.append(("PUSH", x, stack))
    output.extend(stack)
    if events is not None:
        events.extend(("POP", v, stack[i + 1:]) for i, v in enumerate(stack))
    return tuple(output)


def _moves(pi: Perm, out: Perm) -> Iterator[tuple[str, int, int]]:
    """The (op, value, depth after) events of the pass turning pi into out.

    Before each push, the top pops while it is the next output letter;
    the rest of the stack flushes at the end.
    """
    stack = [0] * (len(pi) + 1)  # stack[1..d], bottom to top; stack[0] is no letter
    d = k = 0  # the depth, and the output letters popped so far
    for x in pi:
        while stack[d] == out[k]:
            d -= 1
            yield "POP", out[k], d
            k += 1
        d += 1
        stack[d] = x
        yield "PUSH", x, d
    for v in out[k:]:
        d -= 1
        yield "POP", v, d


# The cut rule of each length-3 control (see the module docstring).
_NEAREST, _FARTHEST, _ANY = range(3)
_CUT_RULES: dict[Perm, tuple[bool, int]] = {
    # sigma: (y below x, statistic of z-side values)
    (1, 3, 2): (False, _NEAREST),
    (3, 1, 2): (True, _NEAREST),
    (1, 2, 3): (False, _FARTHEST),
    (3, 2, 1): (True, _FARTHEST),
    (2, 3, 1): (False, _ANY),
    (2, 1, 3): (True, _ANY),
}


def _cut_pass(pi: Perm, sigma: Perm) -> Perm:
    """First-pass output under a length-3 control, without backtracking.

    Each push scans the stack bottom to top for the cut (see the module
    docstring); the farthest rule pops from the top instead.
    """
    flip, stat = _CUT_RULES[sigma]
    above_all = len(pi) + 1
    if flip:
        pi = tuple(map(above_all.__sub__, pi))
    if stat == _FARTHEST:
        output = _farthest_output(pi)
        return tuple(map(above_all.__sub__, output)) if flip else tuple(output)
    stack: list[int] = []  # bottom to top
    output = []
    for x in pi:
        y = None  # the cut value
        if stat == _NEAREST:
            low = above_all  # nearest z-side value so far; none yet
            for v in stack:
                if v > x:
                    if v > low:
                        y = v
                        break
                    low = v
        else:
            seen = False  # some z-side value so far
            for v in stack:
                if v < x:
                    seen = True
                elif seen:
                    y = v
                    break
        if y is not None:
            cut = stack.index(y)
            output.extend(reversed(stack[cut:]))
            del stack[cut:]
        stack.append(x)
    output.extend(reversed(stack))
    if flip:
        return tuple(map(above_all.__sub__, output))
    return tuple(output)


def _farthest_output(pi: Perm) -> list[int]:
    """The 123 pass.  q[d] is the largest value at levels 1..d that lies
    below an earlier one, h[d] the largest there, both 0 when empty."""
    n = len(pi)
    stack, qs, hs = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    output: list[int] = []
    d = q = h = 0  # the depth, and q and h of the top level
    for x in pi:
        while q > x:
            output.append(stack[d])
            d -= 1
            q, h = qs[d], hs[d]
        if x < h:
            q = x
        else:
            h = x
        d += 1
        stack[d], qs[d], hs[d] = x, q, h
    output.extend(stack[d:0:-1])
    return output


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
    p = tuple(pi)
    out = s_sigma(p, sigma)  # validates p
    return out, MachineTrace(p, out)


def s_sigma(pi: Iterable[int], sigma: Iterable[int]) -> Perm:
    """First-pass output of the machine's first stack.

    Length-3 controls run the cut scan, 21 runs Stacksort, and longer
    controls run the generic machine.
    """
    return _pass(as_perm(pi), _check_sigma(sigma))


def _pass(p: Perm, s: Perm) -> Perm:
    """``s_sigma`` of a permutation and a control already validated."""
    if len(s) == 3:
        return _cut_pass(p, s)
    if s == (2, 1):
        return _s21_output(p)
    return _generic_output(p, s)


def stacksort(pi: Iterable[int]) -> Perm:
    return _s21_output(as_perm(pi))


def is_sigma_sortable(pi: Iterable[int], sigma: Iterable[int] = (1, 3, 2)) -> bool:
    return not _contains_231(s_sigma(pi, sigma))


def enumerate_sortable(
    n: int, sigma: Iterable[int] = (1, 3, 2), cap: int = DEFAULT_PERM_CAP
) -> list[Perm]:
    """All sortable permutations of length n, lexicographically sorted."""
    check_size(n, cap, f"enumeration of S_{n}")
    s = _check_sigma(sigma)
    return [p for p in permutations(range(1, n + 1)) if not _contains_231(_pass(p, s))]


def stack_shape_check(pi: Iterable[int]) -> bool:
    """Verify the stack stays "minima floor + one increasing block" shaped.

    For a 132-sortable permutation, whenever the next input value x lies
    in block B_i, the stack read bottom-to-top must be m_1 ... m_i
    followed by an increasing run of elements of B_i.  x is checked
    against the stack the previous push left, before x's own pops.
    """
    p = tuple(pi)
    out = s_sigma(p, (1, 3, 2))
    if _contains_231(out):
        raise InvalidInputError("shape law only applies to sortable permutations")
    return _shape_holds(p, out)


def _shape_holds(p: Perm, out: Perm) -> bool:
    """The shape law on the pass turning p into out, one lookup per push.

    floor[d] is b when levels 1..b of the stack hold left-to-right minima
    and levels b+1..d an increasing run of elements of B_b, else None; x in
    B_i meets the law iff floor[d] == i at the depth d the previous push left.
    """
    floor: list[int | None] = [0] * (len(p) + 1)
    top = [0] * (len(p) + 1)  # top[d]: the value at level d
    low = len(p) + 1  # the smallest value read so far
    i = 0  # left-to-right minima read so far
    depth = 0  # the depth the previous push left
    for op, x, d in _moves(p, out):
        if op == "POP":
            continue
        if x < low:
            low, i = x, i + 1
            floor[d] = d if floor[d - 1] == d - 1 else None
        elif floor[depth] != i:
            return False
        else:
            floor[d] = i if floor[d - 1] == i and top[d - 1] < x else None
        top[d] = x
        depth = d
    return True


def sigma_hat(sigma: Perm) -> Perm:
    """The control pattern with its first two entries swapped."""
    s = _check_sigma(sigma)
    return (s[1], s[0]) + s[2:]


def witness_non_class(sigma: Iterable[int], max_n: int = 6) -> tuple[Perm, Perm] | None:
    """Smallest (host, pattern) with host sortable but the pattern not.

    Scans hosts by length then lexicographic order, and inside each host
    scans contained patterns by length then position order.  Returns None
    when no witness exists up to max_n, as happens when the sortable set
    is closed under containment.
    """
    s = _check_sigma(sigma)
    for m in range(2, max_n + 1):
        for host in permutations(range(1, m + 1)):
            if _contains_231(_pass(host, s)):
                continue
            for plen in range(2, m):
                for posns in combinations(range(m), plen):
                    pat = standardize(tuple(host[i] for i in posns))
                    if _contains_231(_pass(pat, s)):
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
    A prediction is checked by one lexicographic scan of S_n that lists
    every permutation on which it and the machine disagree.
    """
    s = _check_sigma(sigma)
    check_size(n, cap, f"verification at n={n}")
    if s == (1, 3, 2):
        kind, what = "mesh-basis", "avoiders of 2314 and the shaded 132"
        predicted = lambda p: avoids(p, (2, 3, 1, 4)) and not contains_mesh(p, MU)
    elif _contains_231(sigma_hat(s)):
        rev = reverse(s)
        kind, what = "class", "avoiders of 132 and the reversed control"
        predicted = lambda p: avoids(p, (1, 3, 2), rev)
    else:
        # length-3 control cases all have witnesses by host length 6
        hosts = max(n, 6) if len(s) == 3 else n
        w = witness_non_class(s, max_n=hosts)
        if w is None:
            detail = f"no witness found up to n={hosts}"
            return CharacterizationReport(s, "non-class", False, detail, ())
        detail = "sortable {} contains unsortable {}".format(*w)
        return CharacterizationReport(s, "non-class", True, detail, w)
    # the machine disagrees where "its output contains 231" equals "predicted sortable"
    bad = tuple(p for p in all_perms(n) if _contains_231(_pass(p, s)) == predicted(p))
    return CharacterizationReport(s, kind, not bad, f"sortable set vs {what}, n={n}", bad)
