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
Farach-Colton, "The LCA problem revisited", 2000).  The per-vertex
:class:`DetourProfile` instead comes from four breadth-first sweeps of
the same tree, O(n) each, the last one rooted at the detour center.
"""

from __future__ import annotations

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
        anchors, half2 = _vertex_anchors(g, bct)
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


def _vertex_anchors(g: BlockGraph, bct: BlockCutTree) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex: its anchor tree node and its doubled endpoint correction.

    The anchor is v's cut node, or its unique block node; the correction
    is |B| - 1 for a non-cut vertex and 0 for a cut vertex.
    """
    anchor = np.fromiter((vb[0] for vb in g.vertex_blocks), dtype=np.intp, count=g.p)
    half2 = np.array([len(b) - 1 for b in g.blocks], dtype=np.int64)[anchor]
    cuts = np.array(bct.cut_list, dtype=np.intp)
    anchor[cuts] = bct.block_count + np.arange(len(cuts))
    half2[cuts] = 0
    return anchor, half2


def _sweep(bct: BlockCutTree, root: int) -> tuple[list[int], list[int], np.ndarray]:
    """Breadth-first order, parents and doubled distances of the tree nodes from root."""
    parent = [-1] * bct.node_count
    dist = [0] * bct.node_count
    order = [root]
    for x in order:
        for y in bct.adj[x]:
            if y != parent[x]:
                parent[y] = x
                dist[y] = dist[x] + bct.edge_weight2(x if bct.is_block_node(x) else y)
                order.append(y)
    return order, parent, np.array(dist, dtype=np.int64)


def detour_profile(g: BlockGraph) -> DetourProfile:
    """Eccentricities, center, levels and branch ownership from four tree sweeps.

    Three sweeps (from vertex 0, from the vertex a farthest from it, and
    from b, the vertex farthest from a) give every eccentricity as
    max(D(v, a), D(v, b)).  The center is then one cut vertex or one whole
    block, and a last sweep rooted there gives each vertex its level, its
    nearest central vertex and the first block on the way to it.
    """
    bct = g.block_cut_tree()
    anchor, half2 = _vertex_anchors(g, bct)

    def from_vertex(u: int) -> np.ndarray:
        # in-place updates keep extra p-sized arrays out of the peak memory
        d2 = _sweep(bct, int(anchor[u]))[2][anchor]
        d2 += half2
        d2 += half2[u]
        d2[u] = 0
        return d2

    d_a = from_vertex(int(np.argmax(from_vertex(0))))
    ecc2 = np.maximum(d_a, from_vertex(int(np.argmax(d_a))))
    center = tuple(np.flatnonzero(ecc2 == ecc2.min()).tolist())
    omega = len(center)
    w = center[0]
    if omega == 1:
        root = bct.cut_node[w]
        xi = min(len(g.blocks[bi]) - 1 for bi in g.vertex_blocks[w])
    else:
        root = next((bi for bi in g.vertex_blocks[w] if g.blocks[bi] == center), -1)
        if root < 0:
            raise AssertionError("detour center is not one whole block")
        xi = 0

    order, parent, dist = _sweep(bct, root)
    # Nodes anchoring central vertices (the root, and the cut nodes just
    # below a root block) keep owner -1.  Below a central cut vertex each
    # block starts a branch, which its whole subtree inherits.
    owner_at = [-1] * bct.node_count
    block_at = [-1] * bct.node_count
    for x in order[1:]:
        y = parent[x]
        if owner_at[y] >= 0:
            owner_at[x] = owner_at[y]
            block_at[x] = block_at[y]
        elif bct.is_block_node(x):
            owner_at[x] = bct.cut_list[y - bct.block_count]
            block_at[x] = x

    level2 = dist[anchor]
    level2 += half2
    if omega > 1:
        level2 -= omega - 1
    level2 //= 2
    ecc2 //= 2
    level = tuple(level2.tolist())
    ecc = tuple(ecc2.tolist())
    return DetourProfile(
        ecc=ecc,
        center=center,
        omega=omega,
        xi=xi,
        level=level,
        total_level=sum(level),
        owner=tuple(owner_at[a] for a in anchor),
        owner_block=tuple(block_at[a] for a in anchor),
        diameter_d=max(ecc),
    )


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
