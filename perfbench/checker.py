"""Independent checker for hamcolor's outputs.

Nothing here imports hamcolor.  A block graph is read as its vertex-block
incidence tree: vertices are nodes ``0..p-1``, blocks are nodes
``p..p+b-1``, and every (vertex, block) edge weighs ``|B| - 1``.  Walking
vertex -> block -> vertex therefore costs ``2(|B| - 1)``, twice the detour
contribution of that block, so the detour distance of two vertices is half
their weighted tree distance.  Pair queries use binary-lifting LCA over
numpy arrays; eccentricities use two farthest-point sweeps, which are exact
on a tree metric.

From the distances the checker derives eccentricities, the detour center,
levels, xi and the span lower bound ``(p-1)(p-omega) - 2L + xi``.  Validity
is checked only on vertex pairs whose colors differ by at most ``p - 3``:
D >= 1 for distinct vertices, so any pair further apart in color satisfies
D + |c(u) - c(v)| >= p - 1.

Run ``python3 perfbench/checker.py exact-values`` to recompute, by
exhaustive search over vertex orderings, the exact values that the
``exact`` workload expects (slow; not part of a benchmark run).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PAIR_CHUNK = 1 << 21


@dataclass(frozen=True)
class Bound:
    omega: int
    xi: int
    total_level: int
    lower_bound: int


class Graph:
    """A block graph given by ``p`` and its blocks, with detour queries."""

    def __init__(self, p: int, blocks: list[list[int]]):
        self.p = p
        self.blocks = [list(b) for b in blocks]
        n = p + len(self.blocks)
        adj: list[list[int]] = [[] for _ in range(n)]
        for bi, b in enumerate(self.blocks):
            for v in b:
                adj[v].append(p + bi)
                adj[p + bi].append(v)
        if sum(len(b) for b in self.blocks) != n - 1:
            raise ValueError("vertex-block incidence is not a tree")
        parent = np.full(n, -1, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        dep2 = np.zeros(n, dtype=np.int64)
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    block = y if y >= p else x
                    parent[y] = x
                    hops[y] = hops[x] + 1
                    dep2[y] = dep2[x] + len(self.blocks[block - p]) - 1
                    stack.append(y)
        if not all(seen):
            raise ValueError("graph is not connected")
        self.hops = hops
        self.dep2 = dep2
        root_parent = np.where(parent < 0, 0, parent)
        up = [root_parent]
        for _ in range(max(1, int(hops.max()).bit_length())):
            up.append(up[-1][up[-1]])
        self.up = up

    def _lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        swap = self.hops[a] < self.hops[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        diff = self.hops[a] - self.hops[b]
        for k, table in enumerate(self.up):
            step = ((diff >> k) & 1).astype(bool)
            a = np.where(step, table[a], a)
        for table in reversed(self.up):
            ta, tb = table[a], table[b]
            move = ta != tb
            a = np.where(move, ta, a)
            b = np.where(move, tb, b)
        return np.where(a == b, a, self.up[0][a])

    def distances(self, us, vs) -> np.ndarray:
        """Detour distances D(u, v) for paired vertex arrays."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lca = self._lca(us, vs)
        return (self.dep2[us] + self.dep2[vs] - 2 * self.dep2[lca]) // 2

    def distances_from(self, u: int) -> np.ndarray:
        allv = np.arange(self.p, dtype=np.int64)
        return self.distances(np.full(self.p, u, dtype=np.int64), allv)

    def block_cut_tree_is_path(self) -> bool:
        """True when no block or cut vertex touches three or more others."""
        deg = self._vertex_degree
        if any(d > 2 for d in deg):
            return False
        return all(sum(deg[v] == 2 for v in b) <= 2 for b in self.blocks)

    @cached_property
    def _vertex_degree(self) -> list[int]:
        deg = [0] * self.p
        for b in self.blocks:
            for v in b:
                deg[v] += 1
        return deg

    @cached_property
    def eccentricities(self) -> np.ndarray:
        d0 = self.distances_from(0)
        a = int(np.argmax(d0))
        da = self.distances_from(a)
        b = int(np.argmax(da))
        return np.maximum(da, self.distances_from(b))

    @cached_property
    def bound(self) -> Bound:
        ecc = self.eccentricities
        center = np.flatnonzero(ecc == ecc.min())
        omega = len(center)
        level = np.min(np.stack([self.distances_from(int(c)) for c in center]), axis=0)
        if omega == 1:
            w = int(center[0])
            xi = min(len(b) - 1 for b in self.blocks if w in b)
        else:
            xi = 0
        total = int(level.sum())
        lb = max(0, (self.p - 1) * (self.p - omega) - 2 * total + xi)
        return Bound(omega=omega, xi=xi, total_level=total, lower_bound=lb)

    def violations(self, colors) -> list[tuple[int, int, int]]:
        """(u, v, deficit) with u < v for every violated pair, sorted."""
        found: list[tuple[int, int, int]] = []
        for us, vs, deficit in self._violation_chunks(colors):
            lo, hi = np.minimum(us, vs), np.maximum(us, vs)
            found.extend(zip(lo.tolist(), hi.tolist(), deficit.tolist()))
        found.sort()
        return found

    def violation_count(self, colors) -> int:
        return sum(len(d) for _, _, d in self._violation_chunks(colors))

    def _violation_chunks(self, colors):
        p = self.p
        c = _as_colors(colors, p)
        order = np.argsort(c, kind="stable")
        cs = c[order]
        # pairs (i, j), i < j in color order, with cs[j] - cs[i] <= p - 3
        hi = np.searchsorted(cs, cs + (p - 3), side="right")
        width = np.maximum(hi - np.arange(p) - 1, 0)
        start = 0
        while start < p:
            stop = start + 1
            budget = int(width[start])
            while stop < p and budget + width[stop] <= PAIR_CHUNK:
                budget += int(width[stop])
                stop += 1
            w = width[start:stop]
            i = np.repeat(np.arange(start, stop), w)
            offs = np.arange(int(w.sum())) - np.repeat(np.cumsum(w) - w, w)
            j = i + 1 + offs
            us, vs = order[i], order[j]
            deficit = (p - 1) - self.distances(us, vs) - (cs[j] - cs[i])
            bad = deficit > 0
            yield us[bad], vs[bad], deficit[bad]
            start = stop


def _as_colors(colors, p: int) -> np.ndarray:
    if len(colors) != p:
        raise ValueError(f"expected {p} colors, got {len(colors)}")
    if any(type(x) is not int or not 0 <= x < 2**62 for x in colors):
        raise ValueError("colors must be integers in [0, 2**62)")
    return np.asarray(colors, dtype=np.int64)


def exhaustive_hc(g: Graph) -> int:
    """Minimum span over all vertex orderings, by depth-first search.

    For a fixed ordering the cheapest coloring is forced: each vertex takes
    the largest c(u) + p - 1 - D(u, v) over the vertices placed before it.
    A branch is cut once some unplaced vertex is already forced to a color
    no smaller than the best span found.  Non-cut vertices of one block are
    interchangeable (an automorphism swaps them), so they are placed in
    ascending order.
    """
    p = g.p
    iu, iv = np.triu_indices(p, 1)
    dist = np.zeros((p, p), dtype=np.int64)
    dist[iu, iv] = dist[iv, iu] = g.distances(iu, iv)
    rows = dist.tolist()
    deg = g._vertex_degree
    before = [-1] * p
    for b in g.blocks:
        free = sorted(v for v in b if deg[v] == 1)
        for a, z in zip(free, free[1:]):
            before[z] = a
    need = p - 1
    best = need * need + 1
    used = [False] * p
    pending = [0] * p

    def search(depth: int) -> None:
        nonlocal best
        cands = sorted(
            (pending[v], v)
            for v in range(p)
            if not used[v] and (before[v] < 0 or used[before[v]])
        )
        for color, v in cands:
            if color >= best:
                break
            if depth + 1 == p:
                best = color
                return
            used[v] = True
            saved = pending[:]
            worst = 0
            row = rows[v]
            for y in range(p):
                if not used[y]:
                    forced = color + need - row[y]
                    if forced > pending[y]:
                        pending[y] = forced
                    if pending[y] > worst:
                        worst = pending[y]
            if worst < best:
                search(depth + 1)
            pending[:] = saved
            used[v] = False

    search(0)
    return best


def _exact_values_main() -> int:
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from hamcolor import gen_random_block_graph  # the inputs, as gen writes them
    from workloads import EXACT_GEN_MAX_P, EXACT_GRAPHS

    ok = True
    for gen_seed, recorded in EXACT_GRAPHS.items():
        h = gen_random_block_graph(gen_seed, EXACT_GEN_MAX_P)
        g = Graph(h.p, [list(b) for b in h.blocks])
        value = exhaustive_hc(g)
        mark = "ok" if value == recorded else "MISMATCH"
        ok &= value == recorded
        print(
            f"gen random --seed {gen_seed} --max-p {EXACT_GEN_MAX_P}: p={g.p} "
            f"bound={g.bound.lower_bound} exhaustive={value} recorded={recorded} {mark}",
            flush=True,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:] != ["exact-values"]:
        sys.exit("usage: python3 perfbench/checker.py exact-values")
    sys.exit(_exact_values_main())
