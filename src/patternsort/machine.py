"""Two-stack sorting machine with a pattern-avoiding first stack.

The machine scans the input left to right.  The next element is pushed
whenever the stack content, read top to bottom with the new element on
top, still avoids the control pattern; otherwise the top is popped to
the output and the test repeats.  After the input is exhausted the
stack is flushed.  A permutation is sortable when a classical
increasing stack can finish the job, i.e. when the first pass output
avoids 231.  A control's decide answers that without building the
output.  The 132 and 123 decides feed each letter their pass pops to
that second stack, which rejects pi exactly when a letter arrives over
a smaller top that is not the next output value: the top, the letter
and the next value form a 231.  Under these controls that check is a
pop above the pop before it (the README shows why), and the pops and
the flushed rest then take one 231 test.  Other controls decide by
whether the output avoids 231.

For a control sigma of length 3 no matcher is needed.  Pushing x is
illegal iff some y sits above some z in the stack with (x, y, z)
order-isomorphic to sigma; the lowest such y is the cut, and everything
from the cut upward pops before x enters.  Controls whose y lies below x
run on complemented values (n + 1 - v), which puts y above x.  Reading
the stack S bottom to top, the cut is then the lowest S[j] > x with some
S[i], i < j, such that

    sigma   complement   S[i]              the pass
    132     312          x < S[i] < S[j]   pops from the top while m > x
    123     321          S[i] > S[j]       pops from the top while q > x
    231     213          S[i] < x          scans bottom to top per push
    21      -            -                 Stacksort: pops the top while it is < x

For 132 level j is cut iff P(j) > x, P(j) being the largest value under
level j smaller than S[j]; for 123 iff Q(j) > x, Q(j) being S[j] if a
value under level j exceeds it and 0 if none does.  Both are fixed when
level j is pushed, so their running maxima m and q never decrease
upward: the levels that pop are the top ones, each value pops once
(`_nearest_output`, `_farthest_output`), and a bit set of the stack's
values gives a new top's P.  231 has no such threshold: on the stack
5 7 1 3 the top pops for an incoming 2 or 6 but not for 4, so
`_any_output` scans.  `_control` resolves a control once, to its row of
`_PASSES` (its pass and its decide) or else to `_generic_output`, the
table's reference.

A pass is fixed by its input and its output, so a trace (`MachineTrace`)
holds just those two and the fast passes record nothing: the top of the
stack pops exactly when it is the next output letter, since pushing over
it would bury it.  `_moves` replays a pass by that rule, yielding each
event with the stack depth after it, to the text trace, the event log and
the shape check.  `_generic_pass` has the generic machine record its own
events and is the reference the replay is cross-checked against.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, permutations
from operator import length_hint
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InvalidInputError, check_size
from .perms import (
    MU,
    Perm,
    _contains_231,
    _kernel,
    all_perms,
    as_perm,
    avoids,
    contains_mesh,
    letter_texts,
    reverse,
    standardize,
)

DEFAULT_PERM_CAP = 10

_Event = tuple[str, int, tuple[int, ...]]  # (op, value, snapshot) of one trace event
_Pass = Callable[[Perm], Perm]


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
        name = letter_texts(len(self.output))  # name[v] == str(v)
        texts = ["(empty)"] * (len(self.output) + 1)  # texts[d]: the stack of depth d, top first
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
    match = _kernel(tuple(sigma), True, False, frozenset())  # first_occurrence, head=True
    stack: tuple[int, ...] = ()  # top to bottom
    output: list[int] = []
    for x in pi:
        # the stack already avoids sigma, so a new occurrence must start
        # at the incoming element, which tops the top-to-bottom word
        while stack and match((x,) + stack) is not None:
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


def _nearest_output(pi: Perm) -> Perm:
    """The 132 pass.  m[d] is the largest S[i] < S[j] with i < j <= d, 0
    when none; a bit set of the stack's values gives each new top's
    largest smaller value."""
    stack, ms = [0] * (len(pi) + 1), [0] * (len(pi) + 1)
    output: list[int] = []
    d = m = 0  # the depth, and m of the top level
    held = 1  # bit v for each value v on the stack, and bit 0
    for x in pi:
        while m > x:
            output.append(v := stack[d])
            held ^= 1 << v
            d -= 1
            m = ms[d]
        bit = 1 << x
        below = (held & (bit - 1)).bit_length() - 1
        if below > m:
            m = below
        held |= bit
        d += 1
        stack[d], ms[d] = x, m
    output.extend(stack[d:0:-1])
    return tuple(output)


def _farthest_output(pi: Perm) -> Perm:
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
    return tuple(output)


def _any_output(pi: Perm) -> Perm:
    """The 231 pass, by one bottom-to-top scan of the stack per push."""
    stack: list[int] = []  # bottom to top
    output: list[int] = []
    for x in pi:
        for v in (scan := iter(stack)):  # up to the lowest value below x
            if v < x:
                break
        for v in scan:  # on to the cut, the next value above x
            if v > x:
                cut = len(stack) - length_hint(scan) - 1  # the index v was read at
                output.extend(reversed(stack[cut:]))
                del stack[cut:]
                break
        stack.append(x)
    output.extend(reversed(stack))
    return tuple(output)


def _nearest_sorts(pi: Perm) -> bool:
    """`_nearest_output` stopping at the first popped letter above the one before."""
    stack, ms = [0] * (len(pi) + 1), [0] * (len(pi) + 1)
    output = [t := len(pi) + 1]  # the pops, t the last, after a sentinel no 231 can use
    d = m = 0
    held = 1
    for x in pi:
        while m > x:
            if (v := stack[d]) > t:
                return False
            output.append(t := v)
            held ^= 1 << v
            d -= 1
            m = ms[d]
        bit = 1 << x
        below = (held & (bit - 1)).bit_length() - 1
        if below > m:
            m = below
        held |= bit
        d += 1
        stack[d], ms[d] = x, m
    return not _contains_231(output + stack[d:0:-1])


def _farthest_sorts(pi: Perm) -> bool:
    """`_farthest_output` stopping at the first popped letter above the one before."""
    n = len(pi)
    stack, qs, hs = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    output = [t := n + 1]
    d = q = h = 0
    for x in pi:
        while q > x:
            if (v := stack[d]) > t:
                return False
            output.append(t := v)
            d -= 1
            q, h = qs[d], hs[d]
        if x < h:
            q = x
        else:
            h = x
        d += 1
        stack[d], qs[d], hs[d] = x, q, h
    return not _contains_231(output + stack[d:0:-1])


def _s21_output(pi: Perm) -> Perm:
    stack: list[int] = []
    output: list[int] = []
    for x in pi:
        while stack and stack[-1] < x:
            output.append(stack.pop())
        stack.append(x)
    output.extend(reversed(stack))
    return tuple(output)


def _complemented(rule: _Pass) -> _Pass:
    """The pass of the complemented control: ``rule`` on complemented values."""
    return lambda pi: tuple(map((t := len(pi) + 1).__sub__, rule(tuple(map(t.__sub__, pi)))))


def _reference(run: _Pass, pi: Perm) -> bool:
    """The reference decide: whether ``run``'s output avoids 231."""
    return not _contains_231(run(pi))


def _refer(run: _Pass) -> tuple[_Pass, Callable[[Perm], bool]]:
    return run, partial(_reference, run)


# every control with a fast pass, in lexicographic order, to its pass and its
# decide; see the module docstring
_PASSES: dict[Perm, tuple[_Pass, Callable[[Perm], bool]]] = {
    (1, 2, 3): (_farthest_output, _farthest_sorts),
    (1, 3, 2): (_nearest_output, _nearest_sorts),
    (2, 1, 3): _refer(_complemented(_any_output)),
    (2, 3, 1): _refer(_any_output),
    (3, 1, 2): _refer(_complemented(_nearest_output)),
    (3, 2, 1): _refer(_complemented(_farthest_output)),
    (2, 1): _refer(_s21_output),
}
# the row `_control` returns for each plain-int control of `_PASSES`
_ROWS = {s: (s, *row) for s, row in _PASSES.items()}


def _control(sigma: Iterable[int]) -> tuple[Perm, _Pass, Callable[[Perm], bool]]:
    """The validated control, its pass and its decide: its `_PASSES` row, else
    the generic machine's."""
    s = tuple(sigma)
    # a plain-int tuple that keys a fast pass is a permutation; bools, floats, int
    # subclasses and unhashables fail the type test first and are validated in full
    if 1 < len(s) < 4 and type(s[0]) is type(s[1]) is type(s[-1]) is int:
        if row := _ROWS.get(s):
            return row
    s = as_perm(s)
    if len(s) < 2:
        raise InvalidInputError(
            "control pattern must have length >= 2 (a shorter one would "
            "freeze or trivialize the stack)"
        )
    return s, *(_PASSES.get(s) or _refer(lambda p: _generic_output(p, s)))


def sigma_stack_pass(pi: Iterable[int], sigma: Iterable[int]) -> tuple[Perm, MachineTrace]:
    """One traced pass of the machine's first stack."""
    p = tuple(pi)
    out = s_sigma(p, sigma)  # validates p
    return out, MachineTrace(p, out)


def s_sigma(pi: Iterable[int], sigma: Iterable[int]) -> Perm:
    """First-pass output of the machine's first stack.

    pi is validated first.  A control in `_PASSES` (the six of length 3,
    and 21) runs its fast pass; any other runs the generic machine.
    """
    p = as_perm(pi)
    return _control(sigma)[1](p)


def stacksort(pi: Iterable[int]) -> Perm:
    return s_sigma(pi, (2, 1))


def is_sigma_sortable(pi: Iterable[int], sigma: Iterable[int] = (1, 3, 2)) -> bool:
    """Whether the machine sorts pi, by the control's decide; pi is validated first."""
    p = as_perm(pi)
    return _control(sigma)[2](p)


def enumerate_sortable(
    n: int, sigma: Iterable[int] = (1, 3, 2), cap: int = DEFAULT_PERM_CAP
) -> list[Perm]:
    """All sortable permutations of length n, lexicographically sorted."""
    sorts = _control(sigma)[2]
    check_size(n, cap, f"enumeration of S_{n}")
    return list(filter(sorts, permutations(range(1, n + 1))))


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
    s = _control(sigma)[0]
    return (s[1], s[0]) + s[2:]


def witness_non_class(sigma: Iterable[int], max_n: int = 6) -> tuple[Perm, Perm] | None:
    """Smallest (host, pattern) with host sortable but the pattern not.

    Scans hosts by length then lexicographic order, and inside each host
    scans contained patterns by length then position order.  Returns None
    when no witness exists up to max_n, as happens when the sortable set
    is closed under containment.
    """
    sorts = _control(sigma)[2]
    for m in range(2, max_n + 1):
        for host in permutations(range(1, m + 1)):
            if not sorts(host):
                continue
            for plen in range(2, m):
                for posns in combinations(range(m), plen):
                    pat = standardize(tuple(host[i] for i in posns))
                    if not sorts(pat):
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
    one mesh), tested through ``avoids`` and ``contains_mesh``, which answer
    2314 and ``MU`` with the dedicated scans of :mod:`patternsort.perms`;
    the registry checks those scans against the matcher kernel, so this
    check and that one together tie the machine to the kernel's reading
    of the basis.  Otherwise, when swapping the first two control entries
    yields something containing 231, the sortable set must be the class
    avoiding 132 and the reversed control; when it does not, the sortable
    set is not closed under containment and a witness pair is produced.
    A prediction is checked by one lexicographic scan of S_n that lists
    every permutation on which it and the machine disagree.
    """
    s, _, sorts = _control(sigma)
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
    bad = tuple(p for p in all_perms(n) if sorts(p) != predicted(p))
    return CharacterizationReport(s, kind, not bad, f"sortable set vs {what}, n={n}", bad)
