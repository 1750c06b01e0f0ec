"""Detour-distance metrics on block graphs.

The detour distance D(u, v) is the length of a longest simple u-v path.
On a block graph every longest u-v path traverses exactly the blocks on
the unique u-v block path and sweeps each clique completely, so

    D(u, v) = sum over those blocks of (|B| - 1).

Equivalently D is the metric of the block-cut tree with weight
(|B| - 1)/2 on every (cut vertex, block) edge, plus an endpoint
correction of (|B_u| - 1)/2 for each non-cut endpoint.  All code below
works in doubled weights so everything stays integral.

Batched distance queries go through :class:`TreeMetric`: the block-cut
tree rooted at node 0, the doubled weighted depth of every node, and an
Euler tour with a sparse table for range minima, so that any number of
pairs costs O(1) numpy work each after an O(n log n) build (Bender and
Farach-Colton, "The LCA problem revisited", 2000).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import SameVertexError
from .graphs import BlockCutTree, BlockGraph

RELATION_SAME = "same"
RELATION_DIFFERENT = "different"
RELATION_OPPOSITE = "opposite"
RELATION_INVOLVES_CENTRAL = "involves_central"


class TreeMetric:
    """The detour metric of a block graph as a rooted block-cut tree with LCA.

    ``dep2[x]`` is the doubled weighted depth of tree node x below the
    root; every edge weighs |B| - 1 >= 1, so depth rises strictly away
    from the root and the minimum of ``dep2`` over the Euler tour between
    two nodes is ``dep2`` of their lowest common ancestor.  Per vertex,
    ``first[v]`` is the tour position of v's anchor and ``root2[v]`` is
    ``dep2[anchor(v)] + half2(v)``, so for distinct u and v

        2 D(u, v) = root2[u] + root2[v] - 2 dep2[lca(anchor(u), anchor(v))].
    """

    __slots__ = ("first", "root2", "_table")

    def __init__(self, g: BlockGraph):
        bct = g.block_cut_tree()
        n = bct.node_count
        dep2 = [0] * n
        first = [0] * n
        tour = [0]
        stack = [0]
        next_child = [0] * n
        while stack:
            x = stack[-1]
            adj = bct.adj[x]
            i = next_child[x]
            if i < len(adj) and adj[i] == bct.parent[x]:
                i += 1
            if i < len(adj):
                next_child[x] = i + 1
                y = adj[i]
                dep2[y] = dep2[x] + bct.edge_weight2(x if bct.is_block_node(x) else y)
                first[y] = len(tour)
                tour.append(y)
                stack.append(y)
            else:
                stack.pop()
                if stack:
                    tour.append(stack[-1])

        node_dep2 = np.array(dep2, dtype=np.int64)
        anchors = np.array([bct.anchor(v) for v in range(g.p)], dtype=np.intp)
        half2 = np.array([bct.half2(v) for v in range(g.p)], dtype=np.int64)
        self.first = np.array(first, dtype=np.intp)[anchors]
        self.root2 = node_dep2[anchors] + half2

        # _table[k, i] = min of dep2 over tour[i : i + 2**k]
        m = len(tour)
        table = np.zeros((m.bit_length(), m), dtype=np.int64)
        table[0] = node_dep2[tour]
        for k in range(1, len(table)):
            half = 1 << (k - 1)
            width = m - 2 * half + 1
            np.minimum(table[k - 1, :width], table[k - 1, half : half + width], out=table[k, :width])
        self._table = table

    def distance(self, u, v) -> np.ndarray:
        """D(u, v) elementwise over broadcastable vertex-id arrays; 0 where u == v."""
        u = np.asarray(u)
        v = np.asarray(v)
        fu = self.first[u]
        fv = self.first[v]
        lo = np.minimum(fu, fv)
        hi = np.maximum(fu, fv)
        k = np.frexp(hi - lo + 1)[1] - 1
        lca2 = np.minimum(self._table[k, lo], self._table[k, hi - (1 << k) + 1])
        d2 = self.root2[u] + self.root2[v] - 2 * lca2
        return np.where(u == v, 0, d2 // 2)


def tree_metric(g: BlockGraph) -> TreeMetric:
    """The detour metric core of g, built on first use and cached on the graph."""
    if g._metric is None:
        g._metric = TreeMetric(g)
    return g._metric


def detour_distance(g: BlockGraph, u: int, v: int) -> int:
    """Length of a longest simple u-v path; 0 when u == v."""
    return int(tree_metric(g).distance(u, v))


@dataclass(frozen=True)
class DetourProfile:
    """Per-vertex detour measurements plus the derived center quantities.

    ``owner[u]`` is the central vertex nearest to u in detour distance and
    ``owner_block[u]`` the first block on the path from that owner to u;
    both are -1 for central vertices.
    """

    ecc: tuple[int, ...]
    center: tuple[int, ...]
    omega: int
    xi: int
    level: tuple[int, ...]
    total_level: int
    owner: tuple[int, ...]
    owner_block: tuple[int, ...]
    diameter_d: int


def _node_dist2(bct: BlockCutTree, start: int) -> list[int]:
    """Doubled tree distance from a tree node to every tree node."""
    dist = [-1] * bct.node_count
    dist[start] = 0
    stack = [start]
    while stack:
        x = stack.pop()
        dx = dist[x]
        for y in bct.adj[x]:
            if dist[y] < 0:
                block = x if bct.is_block_node(x) else y
                dist[y] = dx + bct.edge_weight2(block)
                stack.append(y)
    return dist


def _vertex_dist2(g: BlockGraph, bct: BlockCutTree, u: int) -> list[int]:
    """Doubled detour distances from vertex u to every vertex (0 at u itself)."""
    nd = _node_dist2(bct, bct.anchor(u))
    hu = bct.half2(u)
    out = [0] * g.p
    for v in range(g.p):
        if v != u:
            out[v] = nd[bct.anchor(v)] + hu + bct.half2(v)
    return out


def detour_center(g: BlockGraph) -> tuple[tuple[int, ...], int]:
    """Vertices of minimum detour eccentricity and their count omega."""
    ecc = _eccentricities2(g)
    m = min(ecc)
    center = tuple(v for v in range(g.p) if ecc[v] == m)
    return center, len(center)


def _eccentricities2(g: BlockGraph) -> list[int]:
    """Doubled detour eccentricities via a two-sweep on the tree metric."""
    bct = g.block_cut_tree()
    if g.p == 1:
        return [0]
    d0 = _vertex_dist2(g, bct, 0)
    a = max(range(g.p), key=lambda v: (d0[v], -v))
    da = _vertex_dist2(g, bct, a)
    b = max(range(g.p), key=lambda v: (da[v], -v))
    db = _vertex_dist2(g, bct, b)
    return [max(da[v], db[v]) for v in range(g.p)]


def xi(g: BlockGraph, profile: "DetourProfile") -> int:
    """min(|B| - 1) over blocks at the central vertex when omega is 1, else 0."""
    return _xi(g, profile.center, profile.omega)


def _xi(g: BlockGraph, center: tuple[int, ...], omega: int) -> int:
    if omega != 1:
        return 0
    w = center[0]
    return min(len(g.blocks[bi]) - 1 for bi in g.vertex_blocks[w])


def detour_profile(g: BlockGraph) -> DetourProfile:
    """Compute eccentricities, center, levels, branch ownership in one pass."""
    bct = g.block_cut_tree()
    ecc2 = _eccentricities2(g)
    m = min(ecc2)
    center = tuple(v for v in range(g.p) if ecc2[v] == m)
    omega = len(center)
    central = set(center)

    common = set(g.vertex_blocks[center[0]])
    for w in center[1:]:
        common &= set(g.vertex_blocks[w])
    if not common:
        raise AssertionError("detour center does not lie in a single block")

    # Multi-source shortest paths over the tree, seeded at the centers'
    # anchors, carrying (owner, first block) labels outward.
    cost = [-1] * bct.node_count
    owner_at = [-1] * bct.node_count
    fblock_at = [-1] * bct.node_count
    pred = [-1] * bct.node_count
    ambiguous = [False] * bct.node_count
    settle_order: list[int] = []
    heap: list[tuple[int, int, int, int, int]] = []
    for w in center:
        a = bct.anchor(w)
        fb = a if bct.is_block_node(a) else -1
        heapq.heappush(heap, (bct.half2(w), w, a, fb, -1))
    while heap:
        c, w, node, fb, came_from = heapq.heappop(heap)
        if cost[node] >= 0:
            if c == cost[node] and w != owner_at[node]:
                ambiguous[node] = True
            continue
        cost[node] = c
        owner_at[node] = w
        fblock_at[node] = fb
        pred[node] = came_from
        settle_order.append(node)
        for y in bct.adj[node]:
            if cost[y] < 0:
                block = node if bct.is_block_node(node) else y
                nfb = fb if fb >= 0 else (y if bct.is_block_node(y) else -1)
                heapq.heappush(heap, (c + bct.edge_weight2(block), w, y, nfb, node))
    # a tie anywhere on the route to the winning seed makes every node
    # beyond it ambiguous too; predecessors settle first, so one sweep works
    for node in settle_order:
        if pred[node] >= 0 and ambiguous[pred[node]]:
            ambiguous[node] = True

    level = [0] * g.p
    owner = [-1] * g.p
    owner_block = [-1] * g.p
    for v in range(g.p):
        if v in central:
            continue
        a = bct.anchor(v)
        if ambiguous[a]:
            raise AssertionError(f"tied branch ownership at vertex {v}")
        lvl2 = cost[a] + bct.half2(v)
        if lvl2 % 2:
            raise AssertionError("odd doubled level")
        level[v] = lvl2 // 2
        owner[v] = owner_at[a]
        owner_block[v] = fblock_at[a]
        if owner_block[v] < 0:
            raise AssertionError(f"no owning block for vertex {v}")

    ecc = [e // 2 for e in ecc2]
    return DetourProfile(
        ecc=tuple(ecc),
        center=center,
        omega=omega,
        xi=_xi(g, center, omega),
        level=tuple(level),
        total_level=sum(level),
        owner=tuple(owner),
        owner_block=tuple(owner_block),
        diameter_d=max(ecc),
    )


def detour_level(g: BlockGraph, profile: DetourProfile, u: int) -> int:
    """Minimum detour distance from u to a central vertex."""
    return profile.level[u]


def total_detour_level(g: BlockGraph, profile: DetourProfile) -> int:
    """Sum of the detour levels over all vertices."""
    return profile.total_level


def branch_relation(g: BlockGraph, profile: DetourProfile, u: int, v: int) -> str:
    """Relation of the branches holding u and v.

    ``involves_central`` if either vertex is central; ``same`` if both hang
    off the same central vertex through the same block; ``different`` for
    the same central vertex through different blocks; ``opposite`` for
    different central vertices.
    """
    if u == v:
        raise SameVertexError("branch relation needs distinct vertices")
    if profile.owner[u] == -1 or profile.owner[v] == -1:
        return RELATION_INVOLVES_CENTRAL
    if profile.owner[u] != profile.owner[v]:
        return RELATION_OPPOSITE
    if profile.owner_block[u] != profile.owner_block[v]:
        return RELATION_DIFFERENT
    return RELATION_SAME


def detour_matrix(g: BlockGraph) -> np.ndarray:
    """All-pairs detour distances as a p x p int64 array.

    Quadratic in p by construction: meant for small graphs (the exact
    search) and for tests; larger callers query :func:`tree_metric`.
    """
    ids = np.arange(g.p)
    return tree_metric(g).distance(ids[:, None], ids[None, :])
