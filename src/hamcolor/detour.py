"""Detour-distance metrics on block graphs.

The detour distance D(u, v) is the length of a longest simple u-v path.
On a block graph every longest u-v path traverses exactly the blocks on
the unique u-v block path and sweeps each clique completely, so

    D(u, v) = sum over those blocks of (|B| - 1).

Equivalently D is the metric of the block-cut tree with weight
(|B| - 1)/2 on every (cut vertex, block) edge, plus an endpoint
correction of (|B_u| - 1)/2 for each non-cut endpoint.  All code below
works in doubled weights so everything stays integral.

Every walk of the tree is :meth:`BlockCutTree.sweep`, a depth-first
preorder with doubled distances.  Batched distance queries go through
:class:`TreeMetric`, which reuses the constructor's sweep from node 0:
a sparse table for range minima over preorder positions answers any
number of pairs in O(1) numpy work each after an O(n log n) build
(Bender and Farach-Colton, "The LCA problem revisited", 2000), and one
pair in a few scalar lookups.  The per-vertex :class:`DetourProfile`
takes that same sweep plus three more, O(n) each, the last one rooted at
the detour center.  Both are built on first use and cached on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SameVertexError
from .graphs import BlockGraph, block_index, check_vertices

RELATION_SAME = "same"
RELATION_DIFFERENT = "different"
RELATION_OPPOSITE = "opposite"
RELATION_INVOLVES_CENTRAL = "involves_central"


class TreeMetric:
    """The detour metric of a block graph as a rooted block-cut tree with LCA.

    It reads the constructor's sweep from node 0, whose ``dist2`` (``dep2``
    here) rises strictly away from the root.  For nodes at preorder
    positions i < j, the shallowest node at positions i+1..j is a child of
    their LCA, so the minimum of ``dep2[parent]`` there is ``dep2[lca]``.
    Per vertex, ``pos[v]`` is the position of v's anchor and ``root2[v]``
    is ``dep2[anchor(v)] + half2(v)``, so for distinct u and v

        2 D(u, v) = root2[u] + root2[v] - 2 dep2[lca(anchor(u), anchor(v))],

    where the LCA of two equal anchors is that anchor.
    """

    __slots__ = ("pos", "root2", "_dep2", "_table")

    def __init__(self, g: BlockGraph):
        bct = g.block_cut_tree()
        order = bct.order
        n = len(order)
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n)
        self.pos = pos[bct.anchor]
        self.root2 = bct.dist2[bct.anchor] + bct.half2
        self._dep2 = bct.dist2[order]

        # _table[k, i] = min of dep2[parent] over positions i..i + 2**k - 1;
        # position 0 holds the root, which no query range includes
        table = np.zeros((n.bit_length(), n), dtype=np.int64)
        table[0, 1:] = bct.dist2[bct.parent[order[1:]]]
        for k in range(1, len(table)):
            half = 1 << (k - 1)
            width = n - 2 * half + 1
            np.minimum(table[k - 1, :width], table[k - 1, half : half + width], out=table[k, :width])
        self._table = table

    def distance(self, u, v) -> np.ndarray:
        """D(u, v) elementwise over broadcastable vertex-id arrays; 0 where u == v."""
        u = np.asarray(u)
        v = np.asarray(v)
        fu = self.pos[u]
        fv = self.pos[v]
        hi = np.maximum(fu, fv)
        # the range after the nearer anchor; one anchor shared by both gives
        # an empty range, clamped here and replaced by np.where below
        lo = np.minimum(np.minimum(fu, fv) + 1, hi)
        k = np.frexp(hi - lo + 1)[1] - 1
        lca2 = np.minimum(self._table[k, lo], self._table[k, hi - (1 << k) + 1])
        lca2 = np.where(fu == fv, self._dep2[hi], lca2)
        d2 = self.root2[u] + self.root2[v] - 2 * lca2
        return np.where(u == v, 0, d2 // 2)

    def pair(self, u: int, v: int) -> int:
        """D(u, v) for one pair of vertex ids, as a Python int; 0 when u == v.

        The same query as :meth:`distance`, read element by element, so a
        loop asking for one pair at a time pays no numpy call overhead.
        """
        fu = self.pos.item(u)
        fv = self.pos.item(v)
        if u == v:
            return 0
        if fu == fv:
            lca2 = self._dep2.item(fu)
        else:
            lo, hi = (fu + 1, fv) if fu < fv else (fv + 1, fu)
            k = (hi - lo + 1).bit_length() - 1
            table = self._table
            lca2 = min(table.item(k, lo), table.item(k, hi - (1 << k) + 1))
        return (self.root2.item(u) + self.root2.item(v) - 2 * lca2) // 2


def tree_metric(g: BlockGraph) -> TreeMetric:
    """The detour metric core of g, built on first use and cached on the graph."""
    if g._metric is None:
        g._metric = TreeMetric(g)
    return g._metric


def detour_distance(g: BlockGraph, u: int, v: int) -> int:
    """Length of a longest simple u-v path; 0 when u == v."""
    check_vertices(g, u, v)
    return tree_metric(g).pair(u, v)


@dataclass(frozen=True)
class DetourProfile:
    """The detour center and, per vertex, its level and branch.

    ``owner[u]`` is the central vertex nearest to u in detour distance and
    ``owner_block[u]`` the first block on the path from that owner to u;
    both are -1 for central vertices.
    """

    center: tuple[int, ...]
    omega: int
    xi: int
    level: tuple[int, ...]
    total_level: int
    owner: tuple[int, ...]
    owner_block: tuple[int, ...]


def detour_profile(g: BlockGraph) -> DetourProfile:
    """Center, levels and branch ownership, cached on the graph.

    The vertex a farthest from block node 0 ends a longest path, as the
    farthest point from any point of a tree does, so the constructor's
    sweep from node 0 finds it.  Two more sweeps (from a, and from b, the
    vertex farthest from a) give every eccentricity as
    max(D(v, a), D(v, b)), and the center is the vertices of least
    eccentricity.  It is one cut vertex or one whole block, and a last
    sweep rooted there gives each vertex its level, its nearest central
    vertex and the first block on the way to it.
    """
    if g._profile is None:
        g._profile = _build_profile(g)
    return g._profile


def _build_profile(g: BlockGraph) -> DetourProfile:
    bct = g.block_cut_tree()
    anchor, half2 = bct.anchor, bct.half2

    def to_vertices(node_dist2: np.ndarray) -> np.ndarray:
        # in-place updates keep extra p-sized arrays out of the peak memory
        d2 = node_dist2[anchor]
        d2 += half2
        return d2

    def from_vertex(u: int) -> np.ndarray:
        d2 = to_vertices(bct.sweep(int(anchor[u]))[2])
        d2 += half2[u]
        d2[u] = 0
        return d2

    d_a = from_vertex(int(np.argmax(to_vertices(bct.dist2))))
    ecc2 = np.maximum(d_a, from_vertex(int(np.argmax(d_a))))
    center = tuple(np.flatnonzero(ecc2 == ecc2.min()).tolist())
    omega = len(center)
    w = center[0]
    if omega == 1:
        # w is a cut vertex: a non-cut vertex ties in eccentricity with a cut
        # vertex of its block, so root is w's cut node, whose neighbours are
        # w's blocks
        root = int(anchor[w])
        xi = int(bct.weight2[bct.neighbours(root)].min())
    else:
        root = block_index(g, center)
        if root < 0:
            raise AssertionError("detour center is not one whole block")
        xi = 0

    order, parent, dist = bct.sweep(root)
    parent = parent.tolist()
    # Nodes anchoring central vertices (the root, and the cut nodes just
    # below a root block) keep owner -1.  Below a central cut vertex each
    # block starts a branch, which its whole subtree inherits.
    owner_at = [-1] * bct.node_count
    block_at = [-1] * bct.node_count
    for x in order[1:].tolist():
        y = parent[x]
        if owner_at[y] >= 0:
            owner_at[x] = owner_at[y]
            block_at[x] = block_at[y]
        elif x < bct.block_count:
            owner_at[x] = bct.cut_list[y - bct.block_count]
            block_at[x] = x

    level2 = to_vertices(dist)
    if omega > 1:
        level2 -= omega - 1
    level2 //= 2
    level = tuple(level2.tolist())
    anchors = anchor.tolist()
    return DetourProfile(
        center=center,
        omega=omega,
        xi=xi,
        level=level,
        total_level=sum(level),
        owner=tuple(map(owner_at.__getitem__, anchors)),
        owner_block=tuple(map(block_at.__getitem__, anchors)),
    )


def branch_relation(g: BlockGraph, profile: DetourProfile, u: int, v: int) -> str:
    """Relation of the branches holding u and v.

    ``involves_central`` if either vertex is central; ``same`` if both hang
    off the same central vertex through the same block; ``different`` for
    the same central vertex through different blocks; ``opposite`` for
    different central vertices.
    """
    check_vertices(g, u, v)
    if u == v:
        raise SameVertexError("branch relation needs distinct vertices")
    if profile.owner[u] == -1 or profile.owner[v] == -1:
        return RELATION_INVOLVES_CENTRAL
    if profile.owner[u] != profile.owner[v]:
        return RELATION_OPPOSITE
    if profile.owner_block[u] != profile.owner_block[v]:
        return RELATION_DIFFERENT
    return RELATION_SAME


def branch_keys(profile: DetourProfile) -> np.ndarray:
    """Per vertex, the key of its branch: vertices keyed apart are at full detour.

    The key is ``owner_block`` when omega = 1 and ``owner`` when
    omega >= 2.  The central vertex of omega = 1 keeps its
    ``owner_block`` of -1, a key of its own; a central vertex of omega >= 2
    is keyed by its own id, the key of the branches hanging from it.  Then

        D(u, v) = L(u) + L(v) + omega - 1   when the keys of u and v differ,
        D(u, v) <= L(u) + L(v) + omega - 1  when they match.

    Proof.  D is a tree metric, so it obeys the triangle inequality, and
    D(u, v) = D(u, x) + D(x, v) when every u-v path passes through x.
    When omega = 1 with central vertex w, L(u) = D(u, w).  Every path
    between vertices below w through different first blocks passes
    through w, and so does every path from a vertex to w itself: that is
    equality.  Below one first block, the triangle
    inequality through w gives the bound.  When omega >= 2 the center is
    one block C of omega vertices, every vertex u below a central w has
    L(u) = D(u, w), and a central vertex has level 0.  A path from the
    branch of w (or from w) to the branch of another central w' (or to
    w') passes through w and w' and sweeps C between them, so D(u, v) =
    L(u) + (omega - 1) + L(v).  Within the key of w, the triangle
    inequality through w gives D(u, v) <= L(u) + L(v), which is at most
    the bound.
    """
    if profile.omega == 1:
        return np.array(profile.owner_block)
    keys = np.array(profile.owner)
    central = keys < 0
    keys[central] = np.flatnonzero(central)
    return keys


def detour_matrix(g: BlockGraph) -> np.ndarray:
    """All-pairs detour distances as a p x p int64 array.

    Quadratic in p by construction: meant for small graphs (the exact
    search) and for tests; larger callers query :func:`tree_metric`.
    """
    ids = np.arange(g.p)
    return tree_metric(g).distance(ids[:, None], ids[None, :])
