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
it is valid for any ordering.  :func:`color_graph` colors every graph
by it, computed from the recurrence wherever the graph is shallow.
"""

from __future__ import annotations

import operator
from collections import abc, deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .detour import DetourProfile, _check_profile, branch_keys, detour_profile, tree_metric
from .errors import (
    InvalidSpecError,
    NegativeGapError,
    NotAPermutationError,
    NotSymmetricError,
    SizeMismatchError,
)
from .families import SymmetricSpec, symmetric_coordinates
from .formulas import lower_bound
from .graphs import _ID_DTYPE, BlockGraph

VertexOrdering = Sequence[int]

_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


class HamColoring:
    """Per-vertex colors, normalized so the minimum color is 0.

    Held as one read-only int64 array.  ``colors`` is its tuple of Python
    ints, built on first read and kept.  Colors must be integers, bool
    excluded, whose span fits in int64; anything else raises
    InvalidSpecError.  Colorings compare and hash by value.
    """

    __slots__ = ("_array", "_colors")

    def __init__(self, colors: Sequence[int]):
        if isinstance(colors, np.ndarray):
            if colors.ndim != 1 or colors.dtype.kind not in "iu":
                raise InvalidSpecError("colors must be integers")
            colors = colors.tolist()
        elif not isinstance(colors, (list, tuple)):
            colors = list(colors)
        if not colors:
            raise SizeMismatchError("a coloring needs at least one vertex")
        if not _all_integers(colors):
            raise InvalidSpecError("colors must be integers")
        low, high = int(min(colors)), int(max(colors))
        if high - low > _INT64_MAX:
            raise InvalidSpecError("the span of the colors must fit in int64")
        if _INT64_MIN <= low and high <= _INT64_MAX:
            array = np.array(colors, dtype=np.int64)
            array -= low
        else:  # shifted while the values are unbounded Python ints
            array = np.array([int(c) - low for c in colors], dtype=np.int64)
        self._adopt(array)

    @classmethod
    def _from_array(cls, array: np.ndarray) -> "HamColoring":
        """A coloring that takes over ``array``: int64, one-dimensional, minimum 0."""
        coloring = cls.__new__(cls)
        coloring._adopt(array)
        return coloring

    def _adopt(self, array: np.ndarray) -> None:
        array.flags.writeable = False
        self._array = array
        self._colors = None

    @property
    def colors(self) -> tuple[int, ...]:
        if self._colors is None:
            self._colors = tuple(self._array.tolist())
        return self._colors

    @property
    def span(self) -> int:
        return int(self._array.max())

    def __eq__(self, other) -> bool:
        if isinstance(other, HamColoring):
            return np.array_equal(self._array, other._array)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"HamColoring(colors={self.colors!r})"


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
    if order.shape == (p,) and order.dtype.kind in "iu" and 0 <= order.min() <= order.max() < p:
        # p counts summing to p are all 1 exactly when none is 0
        if np.bincount(order.astype(np.intp, copy=False), minlength=p).all():
            return order
    raise NotAPermutationError(f"ordering is not a permutation of 0..{p - 1}")


def check_ordering_conditions(
    g: BlockGraph, profile: DetourProfile, ordering: VertexOrdering
) -> ConditionReport:
    """Check endpoint levels, branch alternation and the half-order gap cap.

    Condition 1: level(u_0) = 0 and level(u_{p-1}) = xi when omega is 1,
    both levels 0 when omega >= 2.  Condition 2: consecutive non-central
    vertices sit in different branches (omega = 1) or opposite branches
    (omega >= 2), that is, their :func:`~hamcolor.detour.branch_keys`
    differ; pairs touching a central vertex are exempt.  Condition 3:
    2*D(u_i, u_{i+1}) <= p for every i (the exact rational comparison).
    """
    _check_profile(g, profile)
    order = _as_permutation(g.p, ordering)
    ends = profile.level[order[[0, -1]]].tolist()
    want_last = profile.xi if profile.omega == 1 else 0
    cond1 = ends == [0, want_last]

    keys = branch_keys(profile)[order]
    branched = profile.owner[order] >= 0  # not central
    clash = np.flatnonzero((keys[:-1] == keys[1:]) & branched[:-1] & branched[1:])
    first_violation = int(clash[0]) if len(clash) else None

    steps = tree_metric(g).distance(order[:-1], order[1:])
    halfp_violations = [(int(i), int(steps[i])) for i in np.flatnonzero(2 * steps > g.p)]

    return ConditionReport(
        cond1_endpoints=cond1,
        endpoint_levels=tuple(ends),
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
    _check_profile(g, profile)
    order = _as_permutation(g.p, ordering)
    level = profile.level[order]
    gaps = np.add(level[:-1], level[1:], dtype=np.int64)
    del level
    np.subtract(g.p - profile.omega, gaps, out=gaps)
    negative = np.flatnonzero(gaps < 0)
    if len(negative):
        raise NegativeGapError(int(negative[0]), int(gaps[negative[0]]))
    colors = np.zeros(g.p, dtype=np.int64)
    colors[order[1:]] = np.cumsum(gaps, out=gaps)
    del gaps
    return HamColoring._from_array(colors)


def greedy_min_coloring_for_ordering(g: BlockGraph, ordering: Sequence[int]) -> HamColoring:
    """Cheapest valid coloring whose nondecreasing color order follows the ordering.

    Each next color is the maximum of c(last) and, over placed vertices
    u, of c(u) + p - 1 - D(u, next).  By the lemma of
    :func:`~hamcolor.detour.branch_keys`, D(u, v) <= L(u) + L(v) + omega - 1,
    with equality when the keys of u and v differ.

    On a shallow graph, 4 maxL <= p - 2 omega + 2, this is
    :func:`coloring_from_ordering`'s recurrence, each consecutive pair that
    shares a key adding its slack L(u) + L(v) + omega - 1 - D(u, v), its one
    tree-metric query, to every later color.  Proof: each forced step is at
    least p - 1 - D(u_i, u_{i+1}) >= p - omega - 2 maxL >= (p - 2) / 2 >= 0, so
    two steps sum to at least p - 2 >= p - 1 - D for any pair: only
    consecutive pairs bind, and each step is the gap plus that pair's slack.

    On a deep graph a placed u keyed apart from next gives exactly (c(u) - L(u))
    + p - omega - L(next), and one sharing next's key gives at least that.
    So the next color is the largest of c(last), M + p - omega - L(next),
    with M the running maximum of c(u) - L(u), and the exact term over
    next's own key.  Colors never decrease along the ordering and D >= 1,
    so that key's placed vertices are scanned newest first, one scalar
    tree-metric query each, and the scan stops at the first u with
    c(u) + p - 2 at most the color so far.  A step costs O(1) plus the
    vertices of its own key that can still raise its color.
    """
    order = _as_permutation(g.p, ordering)
    profile = detour_profile(g)
    if 4 * int(profile.level.max()) <= g.p - 2 * profile.omega + 2:  # shallow
        keys = branch_keys(profile)[order]
        tied = np.flatnonzero(keys[:-1] == keys[1:])  # consecutive pairs sharing a key
        del keys
        coloring = coloring_from_ordering(g, profile, order)
        if not len(tied):
            return coloring
        u, v = order[tied], order[tied + 1]
        slack = np.zeros(g.p, dtype=np.int64)
        slack[tied + 1] = profile.level[u] + profile.level[v] + profile.omega - 1
        slack[tied + 1] -= tree_metric(g).distance(u, v)
        slack[order] = np.cumsum(slack)
        return HamColoring._from_array(coloring._array + slack)
    order = order.tolist()
    level = profile.level.tolist()
    keys = branch_keys(profile).tolist()
    pair = None  # tree_metric(g).pair, built at the first distance query
    need = g.p - 1
    lift = g.p - profile.omega
    colors = [0] * g.p
    first = order[0]
    placed_by_key: dict[int, list[int]] = {keys[first]: [first]}  # in placement order
    top = -level[first]  # M, the running maximum of c(u) - L(u)
    last = 0
    for v in order[1:]:
        best = max(last, top + lift - level[v])
        same = placed_by_key.setdefault(keys[v], [])
        for u in reversed(same):
            cu = colors[u]
            if cu + need - 1 <= best:
                break
            if pair is None:
                pair = tree_metric(g).pair
            best = max(best, cu + need - pair(u, v))
        colors[v] = last = best
        top = max(top, best - level[v])
        same.append(v)
    return HamColoring(colors)


# Candidate pairs checked per numpy batch, and violations kept in the head
# of a Violations.  A batch's temporaries take over 100 bytes per pair and
# stay in cache at this size; at 2**16 an all-equal coloring, where every
# pair is a candidate, peaked about 8.7 MB higher and ran slower.
_PAIR_CHUNK = 1 << 13


def _all_integers(colors: Sequence) -> bool:
    """Whether every item is a Python or numpy integer; bool is not one."""
    return not any(
        t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, colors))
    )


def check_colors(g: BlockGraph, colors: Sequence[int]) -> None:
    """Raise unless colors holds one integer from 0 to 2**63 - 1 per vertex."""
    if len(colors) != g.p:
        raise SizeMismatchError(f"expected {g.p} colors, got {len(colors)}")
    # whole-sequence passes: the type test first, so min and max compare integers only
    if (
        not _all_integers(colors)
        or min(colors) < 0
        or max(colors) > _INT64_MAX
    ):
        raise InvalidSpecError("colors must be integers from 0 to 2**63 - 1")


def _violation_batches(g: BlockGraph, c: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Keys lo * p + hi and deficits of the violated pairs, one candidate batch at a time.

    Since D(u, v) >= 1, only pairs whose colors differ by at most p - 3
    can fall short, so the vertices are sorted by color and each is paired
    with the later vertices inside that window.  Those candidate pairs,
    numbered row by row, are checked in batches of at most ``_PAIR_CHUNK``,
    with distances from the tree-metric core; batches without a violation
    yield nothing.  A batch finds its first and last rows with two binary
    searches and repeats each row for its share of the batch.  The keys
    are unique but come in color order, not key order.
    """
    distance = tree_metric(g).distance
    need = g.p - 1
    reach = max(g.p - 3, 0)
    order = np.argsort(c, kind="stable")  # intp, so the keys u * p + v below stay exact
    sorted_colors = c[order]
    # sorted positions i + 1 .. end[i] - 1 hold the candidates for position i;
    # clipping keeps color + reach inside int64 without changing the window
    end = np.searchsorted(
        sorted_colors, np.minimum(sorted_colors, _INT64_MAX - reach) + reach, side="right"
    )
    row_end = np.cumsum(end - np.arange(1, g.p + 1))
    # candidate k of row i pairs position i with position k + shift[i]
    shift = end - row_end
    total = int(row_end[-1])
    for s in range(0, total, _PAIR_CHUNK):
        e = min(s + _PAIR_CHUNK, total)
        # rows first .. last hold candidates s .. e - 1; each row's share of
        # the batch is its candidate range clipped to the batch
        first, last = np.searchsorted(row_end, (s, e - 1), side="right").tolist()
        share = np.diff(np.minimum(row_end[first : last + 1], e), prepend=s)
        i = np.repeat(np.arange(first, last + 1), share)
        j = np.arange(s, e) + shift[i]
        u, v = order[i], order[j]
        deficit = need - distance(u, v) - (sorted_colors[j] - sorted_colors[i])
        bad = deficit > 0
        if bad.any():
            u, v = u[bad], v[bad]
            yield np.minimum(u, v) * g.p + np.maximum(u, v), deficit[bad]


def _violation_rows(g: BlockGraph, c: np.ndarray, cap: int) -> tuple[int, np.ndarray]:
    """The violation count and the ``cap`` smallest violations as (u, v, deficit) rows.

    Streams :func:`_violation_batches` into one buffer of ``cap +
    _PAIR_CHUNK`` keys and deficits.  Once it holds cap rows it admits only
    keys below the largest kept, and a buffer past cap is cut back to the
    cap smallest with a partition.  The rows are sorted by pair once, at
    the end, before they are allocated, so the peak is 40 bytes per kept
    row.  O(p log p + candidates) time and O(p + cap) memory however many
    pairs violate.
    """
    key = np.empty(cap + _PAIR_CHUNK, dtype=np.int64)
    deficit = np.empty_like(key)
    count = held = 0
    for batch_key, batch_deficit in _violation_batches(g, c):
        count += len(batch_key)
        if held == cap:  # a full buffer admits only smaller keys
            smaller = batch_key < key[:held].max()
            batch_key, batch_deficit = batch_key[smaller], batch_deficit[smaller]
        stop = held + len(batch_key)
        key[held:stop], deficit[held:stop] = batch_key, batch_deficit
        held = stop
        if held > cap:
            keep = np.argpartition(key[:held], cap - 1)[:cap]
            key[:cap], deficit[:cap] = key[keep], deficit[keep]
            held = cap
    by_pair = np.argsort(key[:held])
    key, deficit = key[by_pair], deficit[by_pair]
    del by_pair
    rows = np.empty((held, 3), dtype=np.int64)
    np.divmod(key, g.p, out=(rows[:, 0], rows[:, 1]))
    rows[:, 2] = deficit
    return count, rows


class Violations(abc.Sequence):
    """The (u, v, deficit) triples of an invalid coloring, u < v, sorted by (u, v).

    Holds the graph, the colors, the exact count and the first
    ``_PAIR_CHUNK`` (8,192) triples (the head) as an int64 array, 24 bytes
    each; the head is the whole list when there are at most that many
    violations.  Every read goes through ``__getitem__``, and the first one
    past the head re-runs :func:`_violation_rows` once with the count as
    its cap and keeps every row, 24 bytes per violation (40 at the peak of
    building them).  Tuples are built only for the items asked for.
    Compares equal, item by item, to a list, tuple or Violations holding
    the same triples, so ``validate_coloring(g, c) == []`` tests validity.
    """

    __slots__ = ("_graph", "_colors", "_count", "_rows")

    def __init__(self, g: BlockGraph, colors: np.ndarray):
        self._graph, self._colors = g, colors
        self._count, self._rows = _violation_rows(g, colors, _PAIR_CHUNK)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(self._count)[index]]
        i = range(self._count)[index]
        if i >= len(self._rows):
            self._rows = _violation_rows(self._graph, self._colors, self._count)[1]
        return tuple(self._rows[i].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (Violations, list, tuple)):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Violations(n={len(self)}, first={self[:3]!r})"


def validate_coloring(g: BlockGraph, colors: Sequence[int]) -> Violations:
    """Check every vertex pair; return the violations (u, v, deficit), sorted.

    An empty result means the coloring is a hamiltonian coloring.  One
    bounded pass over the candidate pairs (see :func:`_violation_rows`)
    counts the violations and keeps the ``_PAIR_CHUNK`` (8,192) smallest
    pairs, in O(p log p + candidates) time and O(p + ``_PAIR_CHUNK``)
    memory however many pairs violate.  The :class:`Violations` result
    answers its length and reads within the head at once; reading further
    re-runs the same pass with room for every row.
    """
    check_colors(g, colors)
    # a copy, so a later rebuild sees these colors
    return Violations(g, np.array(colors, dtype=np.int64))


def sym_ordering(g: BlockGraph, spec: SymmetricSpec) -> np.ndarray:
    """The bound-achieving ordering of a symmetric block graph, as a read-only int32 array.

    spec must be what :func:`~hamcolor.families.symmetric_coordinates`
    recognizes g as; any other spec raises InvalidSpecError.

    Every branch's descendants are renamed 1..S, deepest depth group
    first and child tuples in radix order with the first index least
    significant.  The ordering starts at the detour center (even
    diameter) or its largest vertex (odd), read from g's cached profile,
    then cycles the branches round-robin, taking the s-th renamed element
    of each in turn, and closes with the depth-1 list (even diameter) or
    the remaining central vertices (odd).
    At diameter 2 there are no descendants, so the ordering is the hub
    followed by the depth-1 list.

    Depth is level / n, and each non-central block's parent is its one
    shallowest member.  One stable sort of those blocks by parent gives the
    child table: per parent, its k child blocks without the parent, as one
    (k x n) row of ``children``; ``child_row`` maps a vertex to its row, or
    -1.  Child i of a vertex is member ``i // k`` of block ``i % k``, and
    the even-diameter hub's blocks give the depth-1 list the same way.
    From the stream roots (the depth-1 list or the central block), each
    depth group is one gather of the previous group's children, written
    straight into a (renamed position x stream) view of the output with
    the new child index as the most significant digit; the groups fill
    the rows from the last one back.
    """
    found = symmetric_coordinates(g)
    if found != spec:
        raise InvalidSpecError(f"the graph is {found}, not {spec}")
    n, k = spec.n, spec.k
    profile = detour_profile(g)
    center = profile.center
    members = g._members.reshape(-1, spec.block_size)
    rise = (profile.level // n)[members]  # depth, then depth below the block's parent
    rise -= rise.min(axis=1, keepdims=True)
    up = members[np.arange(len(members)), rise.argmin(axis=1)]
    is_child = rise.astype(bool)
    del rise
    if profile.omega == 1:
        top = up == center[0]
        roots = members[top][is_child[top]].reshape(spec.cut_degree, n).T.ravel()
        head, tail, levels = center[0], roots, spec.r - 1
    else:
        top = ~is_child.any(axis=1)
        roots = np.array(center, dtype=_ID_DTYPE)
        head, tail, levels = center[-1], center[:-1], spec.r
    blocks = np.flatnonzero(~top)
    blocks = blocks[np.argsort(up[blocks], kind="stable")]
    children = members[blocks][is_child[blocks]].reshape(-1, k, n)
    child_row = np.full(g.p, -1, dtype=_ID_DTYPE)
    child_row[up[blocks[::k]]] = np.arange(len(children))
    del up, is_child, blocks
    ordering = np.empty(g.p, dtype=_ID_DTYPE)
    ordering[0] = head
    stop = g.p - len(tail)
    ordering[stop:] = tail
    group = roots[None, :]
    for _ in range(levels):
        rows = child_row[group]
        start = stop - rows.size * k * n
        if start < 1 or (rows < 0).any():
            raise AssertionError("the child table does not cover the streams")
        out = ordering[start:stop].reshape(n, k, *rows.shape)
        out[...] = children[rows].transpose(3, 2, 0, 1)
        group, stop = out.reshape(-1, rows.shape[1]), start
    seen = np.zeros(g.p, dtype=bool)
    if stop == 1:
        seen[ordering] = True
    if not seen.all():
        raise AssertionError("the child table does not cover the streams")
    ordering.flags.writeable = False
    return ordering


def greedy_ordering(g: BlockGraph, profile: DetourProfile) -> list[int]:
    """Best-effort ordering for arbitrary block graphs; no optimality claim.

    Starts at the lowest-id central vertex, then repeatedly appends the
    highest-level unused vertex whose branch differs from (or opposes)
    the previous vertex's branch when any such vertex exists, breaking
    ties by vertex id; remaining central vertices come last.

    Two non-central vertices share a branch exactly when they share an
    ``owner_block``.  So one scan of them in (-level, id) order holds each
    vertex of the previous vertex's block in a queue, and places any other
    vertex followed at once by the oldest held one.  That is the rule:
    held vertices share one block and precede the unscanned ones, so the
    oldest is the least unused vertex, and the next one outside that
    block is the least unused vertex of another block.  Whatever is still
    held at the end follows in order.
    """
    _check_profile(g, profile)
    level, block = profile.level.tolist(), profile.owner_block.tolist()
    start = min(profile.center)
    order = [start]
    held: deque[int] = deque()
    for v in sorted((v for v in range(g.p) if block[v] >= 0), key=lambda v: (-level[v], v)):
        if block[v] == block[order[-1]]:
            held.append(v)
        else:
            order.append(v)
            if held:
                order.append(held.popleft())
    order += held
    order += [v for v in sorted(profile.center) if v != start]
    return order


@dataclass(frozen=True, eq=False)
class ColorResult:
    """A coloring from :func:`color_graph`, with what it was built from.

    ``method`` is "symmetric", "union" or "greedy"; ``ordering`` is the
    vertex ordering the coloring follows, a read-only int32 array; ``bound``
    is the general lower bound computed from ``profile``.  Results compare
    by identity.
    """

    method: str
    ordering: np.ndarray
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
    """Color g by the forced coloring along the best ordering that applies to it.

    A symmetric block graph with kn >= 2 follows its bound-achieving
    ordering: "symmetric" at diameter >= 3, the paper's construction, and
    "union" for a one-point union of cliques.  Every other graph, paths
    included, follows the greedy ordering ("greedy").  The coloring is
    valid by construction (see :func:`greedy_min_coloring_for_ordering`).
    """
    profile = detour_profile(g)
    try:
        spec = symmetric_coordinates(g)
    except NotSymmetricError:
        spec = None
    if spec is not None and spec.k * spec.n >= 2:
        ordering = sym_ordering(g, spec)
        method = "symmetric" if spec.diameter >= 3 else "union"
    else:
        ordering = np.array(greedy_ordering(g, profile), dtype=_ID_DTYPE)
        ordering.flags.writeable = False
        method = "greedy"
    coloring = greedy_min_coloring_for_ordering(g, ordering)
    return ColorResult(method, ordering, coloring, profile, lower_bound(g, profile))
