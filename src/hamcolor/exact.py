"""Independent ground truth at small scale.

``brute_longest_path`` enumerates every simple path by depth-first
search and is deliberately kept naive: it is the oracle the block-path
distance formula is checked against.

``exact_hc`` enumerates vertex orderings with branch-and-bound.  For a
fixed ordering the cheapest consistent coloring is forced (each next
color is the maximum over placed vertices of c(u) + p - 1 - D(u, next)),
and every valid coloring is consistent with the ordering induced by
sorting its colors, so the minimum over orderings is exact.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import ClassVar

from .coloring import HamColoring, greedy_min_coloring_for_ordering, greedy_ordering
from .detour import detour_matrix, detour_profile
from .errors import BudgetExceededError, InvalidSpecError
from .formulas import lower_bound
from .graphs import BlockGraph, check_integer, check_vertices


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exact search: the largest p it accepts and a time limit in seconds.

    Frozen, so the checks made at construction hold for the budget's life.
    """

    max_p: int = 10
    time_limit: float | None = None

    HARD_CAP: ClassVar[int] = 14

    def __post_init__(self):
        object.__setattr__(self, "max_p", check_integer(self.max_p, "max_p"))
        if not 1 <= self.max_p <= self.HARD_CAP:
            raise InvalidSpecError(
                f"max_p must be between 1 and {self.HARD_CAP}, got {self.max_p}"
            )
        t = self.time_limit
        if t is not None and (
            isinstance(t, bool) or not isinstance(t, numbers.Real) or math.isnan(t)
        ):
            raise InvalidSpecError(f"time_limit must be a number of seconds, got {t!r}")


def brute_longest_path(g: BlockGraph, u: int, v: int, budget: SearchBudget | None = None) -> int:
    """Exact longest simple u-v path length by exhaustive DFS."""
    check_vertices(g, u, v)
    budget = budget or SearchBudget()
    if g.p > budget.max_p:
        raise BudgetExceededError(f"p={g.p} exceeds the brute-force budget of {budget.max_p}")
    if u == v:
        return 0
    # neighbour sets from the block list alone; each holds its own vertex,
    # which is visited whenever the walk stands on it
    adj: list[set[int]] = [set() for _ in range(g.p)]
    for b in g.blocks:
        for x in b:
            adj[x].update(b)
    visited = bytearray(g.p)
    visited[u] = 1
    best = -1
    deadline = None if budget.time_limit is None else time.perf_counter() + budget.time_limit
    nodes = 0

    def walk(x: int, length: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if deadline is not None and nodes % 4096 == 1 and time.perf_counter() > deadline:
            raise BudgetExceededError("time limit exhausted during longest-path search")
        if x == v:
            if length > best:
                best = length
            return
        for y in adj[x]:
            if not visited[y]:
                visited[y] = 1
                walk(y, length + 1)
                visited[y] = 0

    walk(u, 0)
    return best


class _Done(Exception):
    pass


def _twin_groups(rows: list[list[int]], p: int) -> list[int]:
    """twin_prev[v]: the twin that must precede v in any explored ordering, or -1.

    Two vertices are twins when their distance rows agree everywhere off
    the pair; swapping twins in an ordering never changes the forced
    coloring's span, so each twin class is explored in ascending order.

    Twinship is transitive, so twin_prev[v] is the largest twin u < v.
    If u ~ v and v ~ w, the three rows agree off {u, v, w}, and u ~ v read
    at w and v ~ w read at u give D(u, v) = D(u, w) = D(v, w), so the rows
    of u and w also agree at v: u ~ w.
    """

    def twins(u: int, v: int) -> bool:
        return all(rows[u][x] == rows[v][x] for x in range(p) if x != u and x != v)

    return [next((u for u in reversed(range(v)) if twins(u, v)), -1) for v in range(p)]


def exact_hc(g: BlockGraph, budget: SearchBudget | None = None) -> tuple[int, HamColoring]:
    """Exact hamiltonian chromatic number and a witness coloring of that span.

    Enumerates orderings depth-first.  The incumbent is seeded by the
    greedy-ordering pipeline, and the search stops early when it meets
    the general lower bound, which certifies it.  Twin classes are placed
    in ascending order.  Candidates are tried by pending color, a lower
    bound on the final span, up to the first at or above the incumbent.
    A child is skipped when every completion of it has a span at or above
    the incumbent, by one of two prunings:

    * level-sum bound: D(a, b) <= L(a) + L(b) + omega - 1, so each later
      step costs at least (p - omega) - L(a) - L(b); after v is placed at
      color c with r vertices left, of level sum L_rem and least level m,
      the span is at least c + r(p - omega) - L(v) - 2 L_rem + m;
    * transposition table: D <= p - 1, so every unplaced vertex's pending
      color is at least the last color c and is the color it gets next.
      What follows therefore depends only on the placed set, which also
      fixes the twin order, and the offsets pending - c, and it adds the
      same amounts to c.  A state met again at a last color no lower than
      before is skipped: the earlier visit found its best completion or
      cut it against an incumbent at least as large, and the incumbent
      only falls.

    Only strict improvements replace the incumbent, so the value and the
    witness are those of the search without the bounds and the table.
    """
    budget = budget or SearchBudget()
    p = g.p
    if p > budget.max_p:
        raise BudgetExceededError(f"p={p} exceeds the search budget of {budget.max_p}")
    deadline = None if budget.time_limit is None else time.perf_counter() + budget.time_limit

    profile = detour_profile(g)
    lb = lower_bound(g, profile)
    rows = detour_matrix(g).tolist()

    seed = greedy_min_coloring_for_ordering(g, greedy_ordering(g, profile))
    if seed.span <= lb:
        return seed.span, seed
    best_span, best_colors = seed.span, seed.colors

    twin_prev = _twin_groups(rows, p)
    need = p - 1
    step = p - profile.omega
    level = profile.level.tolist()
    bits = need.bit_length()
    pending = [0] * p
    used = [False] * p
    colors = [0] * p
    seen: dict[int, int] = {}
    nodes = 0

    def search(depth: int, mask: int, level_rem: int) -> None:
        nonlocal best_span, best_colors, nodes
        nodes += 1
        if deadline is not None and nodes % 4096 == 1 and time.perf_counter() > deadline:
            raise BudgetExceededError("time limit exhausted during exact search")
        candidates = []
        for v in range(p):
            if used[v] or (twin_prev[v] != -1 and not used[twin_prev[v]]):
                continue
            candidates.append((pending[v], v))
        candidates.sort()
        left = p - depth - 1
        for nc, v in candidates:
            if nc >= best_span:
                break
            used[v] = True
            colors[v] = nc
            if left == 0:
                best_span = nc
                best_colors = tuple(colors)
                used[v] = False
                if best_span <= lb:
                    raise _Done
                return
            saved = []
            least = level_rem
            offsets = 0
            row = rows[v]
            for y in range(p):
                if not used[y]:
                    cand = nc + need - row[y]
                    if cand > pending[y]:
                        saved.append((y, pending[y]))
                        pending[y] = cand
                    if level[y] < least:
                        least = level[y]
                    offsets = offsets << bits | (pending[y] - nc)
            child = mask | 1 << v
            # the placed set in the low p bits fixes how many offsets sit above it
            key = offsets << p | child
            if seen.get(key, best_span) > nc:
                seen[key] = nc
                rest = level_rem - level[v]
                floor = nc + left * step - level[v] - 2 * rest + least
                if floor < best_span:
                    search(depth + 1, child, rest)
            for y, old in saved:
                pending[y] = old
            used[v] = False

    try:
        search(0, 0, profile.total_level)
    except _Done:
        pass
    return best_span, HamColoring(best_colors)
