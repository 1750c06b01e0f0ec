"""Vertex orderings and hamiltonian colorings of block graphs.

A hamiltonian coloring assigns a non-negative color c(v) to every vertex
so that D(u, v) + |c(u) - c(v)| >= p - 1 for all distinct u, v.  The
constructor here walks an ordering u_0..u_{p-1} and applies the gap
recurrence

    c(u_{i+1}) = c(u_i) + p - 1 - level(u_i) - level(u_{i+1}) - omega + 1,

which telescopes to span = (p-1)(p-omega) - 2*total_level + level(u_0)
+ level(u_{p-1}).  When the ordering satisfies the three conditions
checked by :func:`check_ordering_conditions`, the result is a valid
coloring meeting the general lower bound.

The forced coloring along an ordering instead gives each next vertex
the smallest color that keeps it valid against every placed vertex, so
it is valid for any ordering.  :func:`color_graph` is the one place
that chooses between the two and the ordering they follow.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detour import (
    RELATION_DIFFERENT,
    RELATION_OPPOSITE,
    DetourProfile,
    branch_relation,
    detour_profile,
    tree_metric,
)
from .errors import (
    InvalidSpecError,
    NegativeGapError,
    NotAPermutationError,
    NotSymmetricError,
    SizeMismatchError,
)
from .families import SymmetricCoordinates, symmetric_coordinates
from .formulas import lower_bound
from .graphs import BlockGraph

VertexOrdering = Sequence[int]


@dataclass(frozen=True)
class HamColoring:
    """Per-vertex colors, normalized so the minimum color is 0."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if not self.colors:
            raise SizeMismatchError("a coloring needs at least one vertex")
        low = min(self.colors)
        if low:
            object.__setattr__(self, "colors", tuple(c - low for c in self.colors))

    @property
    def span(self) -> int:
        return max(self.colors)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three ordering conditions, with witnesses.

    ``cond3_violations`` lists (index, D(u_i, u_{i+1})) for every
    consecutive pair whose detour distance exceeds p/2.
    """

    cond1_endpoints: bool
    endpoint_levels: tuple[int, int]
    cond2_branches: bool
    cond2_first_violation: int | None
    cond3_halfp: bool
    cond3_violations: tuple[tuple[int, int], ...]

    @property
    def all_ok(self) -> bool:
        return self.cond1_endpoints and self.cond2_branches and self.cond3_halfp


def _as_permutation(p: int, ordering: VertexOrdering) -> np.ndarray:
    order = np.asarray(ordering)
    if (
        order.shape != (p,)
        or order.dtype.kind not in "iu"
        or not np.array_equal(np.sort(order), np.arange(p))
    ):
        raise NotAPermutationError(f"ordering is not a permutation of 0..{p - 1}")
    return order


def check_ordering_conditions(
    g: BlockGraph, profile: DetourProfile, ordering: VertexOrdering
) -> ConditionReport:
    """Check endpoint levels, branch alternation and the half-order gap cap.

    Condition 1: level(u_0) = 0 and level(u_{p-1}) = xi when omega is 1,
    both levels 0 when omega >= 2.  Condition 2: consecutive non-central
    vertices sit in different branches (omega = 1) or opposite branches
    (omega >= 2); pairs touching a central vertex are exempt.  Condition 3:
    2*D(u_i, u_{i+1}) <= p for every i (the exact rational comparison).
    """
    order = _as_permutation(g.p, ordering).tolist()
    level = profile.level
    first, last = order[0], order[-1]
    want_last = profile.xi if profile.omega == 1 else 0
    cond1 = level[first] == 0 and level[last] == want_last

    required = RELATION_DIFFERENT if profile.omega == 1 else RELATION_OPPOSITE
    first_violation: int | None = None
    for i in range(g.p - 1):
        u, v = order[i], order[i + 1]
        if profile.owner[u] == -1 or profile.owner[v] == -1:
            continue
        if branch_relation(g, profile, u, v) != required:
            first_violation = i
            break

    steps = tree_metric(g).distance(order[:-1], order[1:])
    halfp_violations = [(int(i), int(steps[i])) for i in np.flatnonzero(2 * steps > g.p)]

    return ConditionReport(
        cond1_endpoints=cond1,
        endpoint_levels=(level[first], level[last]),
        cond2_branches=first_violation is None,
        cond2_first_violation=first_violation,
        cond3_halfp=not halfp_violations,
        cond3_violations=tuple(halfp_violations),
    )


def coloring_from_ordering(
    g: BlockGraph, profile: DetourProfile, ordering: VertexOrdering
) -> HamColoring:
    """Apply the gap recurrence along the ordering, starting from 0.

    Raises NegativeGapError at the first negative step instead of
    clamping, so an unusable ordering cannot masquerade as a coloring.
    """
    order = _as_permutation(g.p, ordering)
    level = np.asarray(profile.level)[order]
    gaps = g.p - profile.omega - level[:-1] - level[1:]
    negative = np.flatnonzero(gaps < 0)
    if len(negative):
        raise NegativeGapError(int(negative[0]), int(gaps[negative[0]]))
    colors = np.zeros(g.p, dtype=np.int64)
    colors[order[1:]] = np.cumsum(gaps)
    return HamColoring(tuple(colors.tolist()))


def greedy_min_coloring_for_ordering(g: BlockGraph, ordering: Sequence[int]) -> HamColoring:
    """Cheapest valid coloring whose nondecreasing color order follows the ordering.

    Each next color is the maximum over placed vertices u of
    c(u) + p - 1 - D(u, next).  Colors never decrease along the ordering
    and D >= 1, so only placed vertices with c(u) >= c(last) - (p - 3)
    can raise the next color above c(last): a suffix of the placed
    prefix, whose distances come from the tree-metric core in one
    vectorized query per step.
    """
    placed = _as_permutation(g.p, ordering)
    order = placed.tolist()
    distance = tree_metric(g).distance
    need = g.p - 1
    placed_colors = np.zeros(g.p, dtype=np.int64)  # by ordering position
    colors = [0] * g.p
    lo = 0
    last = 0
    for i in range(1, g.p):
        while lo < i and colors[order[lo]] < last - (g.p - 3):
            lo += 1
        if lo < i:
            window = placed_colors[lo:i] + need - distance(placed[lo:i], order[i])
            last = max(last, int(window.max()))
        colors[order[i]] = placed_colors[i] = last
    return HamColoring(tuple(colors))


_INT64_MAX = np.iinfo(np.int64).max

# Candidate pairs checked per numpy batch.  Larger batches cost memory
# (an all-equal coloring makes every pair a candidate) without saving time.
_PAIR_CHUNK = 1 << 16


def check_colors(g: BlockGraph, colors: Sequence[int]) -> None:
    """Raise unless colors holds one integer from 0 to 2**63 - 1 per vertex."""
    if len(colors) != g.p:
        raise SizeMismatchError(f"expected {g.p} colors, got {len(colors)}")
    # whole-sequence passes: the type test first, so min and max compare integers only
    if (
        any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, colors)))
        or min(colors) < 0
        or max(colors) > _INT64_MAX
    ):
        raise InvalidSpecError("colors must be integers from 0 to 2**63 - 1")


class Violations(abc.Sequence):
    """The (u, v, deficit) triples of an invalid coloring, u < v, sorted by (u, v).

    They are held as one n x 3 int64 array, 24 bytes per violation; tuples
    are built only for the items asked for.  Compares equal to a list or
    tuple holding the same triples, so ``validate_coloring(g, c) == []``
    tests validity.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(tuple, self._rows[index].tolist()))
        return tuple(self._rows[index].tolist())

    def __iter__(self):
        for start in range(0, len(self._rows), _PAIR_CHUNK):
            yield from map(tuple, self._rows[start : start + _PAIR_CHUNK].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, Violations):
            return np.array_equal(self._rows, other._rows)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Violations(n={len(self)}, first={self[:3]!r})"


def validate_coloring(g: BlockGraph, colors: Sequence[int]) -> Violations:
    """Check every vertex pair; return the violations (u, v, deficit), sorted.

    An empty result means the coloring is a hamiltonian coloring.  Since
    D(u, v) >= 1, only pairs whose colors differ by at most p - 3 can
    fall short, so the vertices are sorted by color and each is paired
    with the later vertices inside that window.  Those candidate pairs
    are checked in batches of at most ``_PAIR_CHUNK``, with distances
    from the tree-metric core: O(p log p + candidates) time and
    O(p + violations) memory, the result taking 24 bytes per violation
    in a :class:`Violations` array.
    """
    check_colors(g, colors)
    distance = tree_metric(g).distance
    need = g.p - 1
    reach = max(g.p - 3, 0)
    c = np.asarray(colors, dtype=np.int64)
    order = np.argsort(c, kind="stable")
    sorted_colors = c[order]
    # sorted positions i + 1 .. end[i] - 1 hold the candidates for position i;
    # clipping keeps color + reach inside int64 without changing the window
    end = np.searchsorted(
        sorted_colors, np.minimum(sorted_colors, _INT64_MAX - reach) + reach, side="right"
    )
    count = end - np.arange(1, g.p + 1)
    row_end = np.cumsum(count)
    row_start = row_end - count
    total = int(row_end[-1])
    keys: list[np.ndarray] = []  # lo * p + hi per violated pair, for one sort
    deficits: list[np.ndarray] = []
    for s in range(0, total, _PAIR_CHUNK):
        k = np.arange(s, min(s + _PAIR_CHUNK, total))
        i = np.searchsorted(row_end, k, side="right")
        j = i + 1 + (k - row_start[i])
        u, v = order[i], order[j]
        deficit = need - distance(u, v) - (sorted_colors[j] - sorted_colors[i])
        bad = deficit > 0
        if bad.any():
            u, v = u[bad], v[bad]
            keys.append(np.minimum(u, v) * g.p + np.maximum(u, v))
            deficits.append(deficit[bad])
    if not keys:
        return Violations(np.empty((0, 3), dtype=np.int64))
    # each concatenation frees its parts, and sorting before the rows are
    # allocated keeps the peak at 40 bytes per violation
    key = np.concatenate(keys)
    del keys
    deficit = np.concatenate(deficits)
    del deficits
    by_pair = np.argsort(key)
    key, deficit = key[by_pair], deficit[by_pair]
    del by_pair
    rows = np.empty((len(key), 3), dtype=np.int64)
    np.divmod(key, g.p, out=(rows[:, 0], rows[:, 1]))
    rows[:, 2] = deficit
    return Violations(rows)


def sym_ordering(g: BlockGraph, coords: SymmetricCoordinates) -> list[int]:
    """The bound-achieving ordering of a symmetric block graph.

    Every branch's descendants are renamed 1..S, deepest depth group
    first and child tuples in radix order with the first index least
    significant (``coords.rename``).  The ordering then cycles the
    branches round-robin, taking the s-th renamed element of each in
    turn, and closes with the depth-1 list (even diameter) or the
    remaining central vertices (odd).  At diameter 2 there are no
    descendants, so the ordering is the hub followed by the depth-1 list.

    The middle part is one sort of the descendants by the slot
    (s - 1) * streams + (branch - 1), which must fill the slots one to one.
    """
    spec = coords.spec
    if coords.parity == "even":
        head, tail = coords.roots[0], coords.top_list
        streams = spec.cut_degree * spec.n
    else:
        head, tail = coords.roots[-1], coords.roots[:-1]
        streams = spec.n + 1
    descendants = np.flatnonzero(coords.rename)
    slot = (coords.rename[descendants] - 1) * streams + coords.branch[descendants] - 1
    by_slot = np.argsort(slot)
    if not np.array_equal(slot[by_slot], np.arange(g.p - 1 - len(tail))):
        raise AssertionError("renaming does not fill the stream slots one to one")
    return [head, *descendants[by_slot].tolist(), *tail]


def union_coloring(n: int, k: int) -> HamColoring:
    """Direct optimal coloring of the one-point union of k copies of K_n.

    Uses the vertex layout of :func:`hamcolor.families.gen_union`.  For
    k = 2 the two blocks mirror each other; for k >= 3 the non-central
    vertices take round-robin block order with uniform steps of
    (k-2)(n-1) after an initial (k-1)(n-1).
    """
    if n < 2 or k < 2:
        raise InvalidSpecError(f"union coloring needs n, k >= 2, got ({n}, {k})")
    p = k * (n - 1) + 1
    colors = [0] * p
    if k == 2:
        for i in range(1, n):
            colors[i] = i * (n - 1)
            colors[(n - 1) + i] = i * (n - 1)
    else:
        value = (k - 1) * (n - 1)
        step = (k - 2) * (n - 1)
        for s in range(k * (n - 1)):
            member = s // k + 1
            block = s % k
            colors[block * (n - 1) + member] = value
            value += step
    return HamColoring(tuple(colors))


def greedy_ordering(g: BlockGraph, profile: DetourProfile) -> list[int]:
    """Best-effort ordering for arbitrary block graphs; no optimality claim.

    Starts at the lowest-id central vertex, then repeatedly appends the
    highest-level unused vertex whose branch differs from (or opposes)
    the previous vertex's branch when any such vertex exists, breaking
    ties by vertex id; remaining central vertices come last.
    """
    start = min(profile.center)
    order = [start]
    used = [False] * g.p
    used[start] = True
    remaining = [v for v in range(g.p) if profile.owner[v] != -1]
    remaining.sort(key=lambda v: (-profile.level[v], v))
    while any(not used[v] for v in remaining):
        prev = order[-1]
        best = None
        fallback = None
        for v in remaining:
            if used[v]:
                continue
            if fallback is None:
                fallback = v
            if branch_relation(g, profile, prev, v) in (RELATION_DIFFERENT, RELATION_OPPOSITE):
                best = v
                break
        pick = best if best is not None else fallback
        order.append(pick)
        used[pick] = True
    for v in sorted(profile.center):
        if not used[v]:
            order.append(v)
            used[v] = True
    return order


@dataclass(frozen=True)
class ColorResult:
    """A coloring from :func:`color_graph`, with what it was built from.

    ``method`` is "symmetric", "union" or "greedy"; ``ordering`` is the
    vertex ordering the coloring follows; ``bound`` is the general lower
    bound computed from ``profile``.
    """

    method: str
    ordering: tuple[int, ...]
    coloring: HamColoring
    profile: DetourProfile
    bound: int

    @property
    def status(self) -> str:
        """Whether the span is certified optimal, and by what."""
        if self.coloring.span == self.bound:
            return "optimal (matches lower bound)"
        if self.method == "union":
            return "optimal (family closed form)"
        return "upper bound (uncertified)"


def color_graph(g: BlockGraph) -> ColorResult:
    """Color g by the best construction that applies to it.

    A symmetric block graph with kn >= 2 is colored along its
    bound-achieving ordering: by the gap recurrence when its diameter is
    at least 3 ("symmetric"), the paper's construction, and by the forced
    coloring at diameter 2 ("union"), a one-point union of cliques, where
    the forced coloring is optimal.  Every other graph, paths included,
    gets the forced coloring along the greedy ordering ("greedy"); forced
    colorings are valid by construction.  The recurrence is not tried
    there: D(u, v) <= level(u) + level(v) + omega - 1 makes each forced
    step at least the recurrence's, so a recurrence coloring that is
    valid, and hence nondecreasing, equals the forced one.
    """
    profile = detour_profile(g)
    try:
        coords = symmetric_coordinates(g, profile)
    except NotSymmetricError:
        coords = None
    if coords is not None and coords.spec.k * coords.spec.n >= 2:
        ordering = sym_ordering(g, coords)
        method = "symmetric" if coords.spec.diameter >= 3 else "union"
    else:
        ordering = greedy_ordering(g, profile)
        method = "greedy"
    if method == "symmetric":
        coloring = coloring_from_ordering(g, profile, ordering)
    else:
        coloring = greedy_min_coloring_for_ordering(g, ordering)
    return ColorResult(method, tuple(ordering), coloring, profile, lower_bound(g, profile))
