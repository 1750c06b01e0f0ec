"""Detour-distance metrics on block graphs.

The detour distance D(u, v) is the length of a longest simple u-v path.
On a block graph every longest u-v path traverses exactly the blocks on
the unique u-v block path and sweeps each clique completely, so

    D(u, v) = sum over those blocks of (|B| - 1).

Equivalently D is the metric of the block-cut tree with weight
(|B| - 1)/2 on every (cut vertex, block) edge, plus an endpoint
correction of (|B_u| - 1)/2 for each non-cut endpoint.  All code below
works in doubled weights so everything stays integral.

Nothing here walks the tree: everything reads the block-cut tree
constructor's one depth-first walk from node 0, in which ``dist2`` rises
strictly away from the root.  For nodes at preorder positions i < j, the
shallowest node at positions i+1..j is a child of their LCA, so the
minimum of ``dist2[parent]`` there is ``dist2[lca]``.  Batched distance
queries go through :class:`TreeMetric`, a sparse table for these range
minima that answers any number of pairs in O(1) numpy work each after an
O(n log n) build (Bender and Farach-Colton, "The LCA problem revisited",
2000), and one pair in a few scalar lookups.  The per-vertex
:class:`DetourProfile` needs distances from only three nodes, each two
running minima from the node's position, so it is O(n) and builds no
table.  Both are built on first use and cached on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import SameVertexError, SizeMismatchError
from .graphs import _ID_DTYPE, BlockCutTree, BlockGraph, check_vertices

RELATION_SAME = "same"
RELATION_DIFFERENT = "different"
RELATION_OPPOSITE = "opposite"
RELATION_INVOLVES_CENTRAL = "involves_central"


class TreeMetric:
    """The detour metric of a block graph as a rooted block-cut tree with LCA.

    ``dep2`` is ``dist2`` by preorder position.  Per vertex, ``pos[v]`` is
    the position of v's anchor and ``root2[v]`` is ``dep2[anchor(v)] +
    weight2[anchor(v)]``, so for distinct u and v

        2 D(u, v) = root2[u] + root2[v] - 2 dep2[lca(anchor(u), anchor(v))],

    where the LCA of two equal anchors is that anchor.  Every array is
    read-only int32, and :meth:`distance` returns int32; the sparse table
    takes 4 bytes per entry, ``n.bit_length()`` entries per tree node.
    """

    __slots__ = ("pos", "root2", "_dep2", "_table")

    def __init__(self, g: BlockGraph):
        bct = g.block_cut_tree()
        pos, self._dep2, up = _preorder(bct)
        self.pos = pos[bct.anchor]
        self.root2 = (bct.dist2 + bct.weight2)[bct.anchor]

        # _table[k, i] = min of dep2[parent] over positions i..i + 2**k - 1;
        # position 0 holds the root, which no query range includes
        n = len(pos)
        table = np.zeros((n.bit_length(), n), dtype=_ID_DTYPE)
        table[0, 1:] = up[1:]
        for k in range(1, len(table)):
            half = 1 << (k - 1)
            width = n - 2 * half + 1
            np.minimum(table[k - 1, :width], table[k - 1, half : half + width], out=table[k, :width])
        self._table = table
        for a in (self.pos, self.root2, self._dep2, table):
            a.flags.writeable = False

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


def _preorder(bct: BlockCutTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node, its preorder position; per position, dist2 and the parent's (unread at 0)."""
    order = bct.order
    pos = np.empty(len(order), dtype=_ID_DTYPE)
    pos[order] = np.arange(len(order))
    return pos, bct.dist2[order], bct.dist2[bct.parent[order]]


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
    both are -1 for central vertices.  ``level``, ``owner`` and
    ``owner_block`` are read-only int32 arrays: a read-only int32 array is
    kept as given, anything else is copied into one.  Profiles compare by
    value.
    """

    center: tuple[int, ...]
    omega: int
    xi: int
    level: np.ndarray
    total_level: int
    owner: np.ndarray
    owner_block: np.ndarray

    def __post_init__(self):
        for name in ("level", "owner", "owner_block"):
            given = getattr(self, name)
            ids = isinstance(given, np.ndarray) and given.dtype == _ID_DTYPE
            if ids and not given.flags.writeable:
                continue  # kept, not copied
            array = np.array(given, dtype=_ID_DTYPE)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetourProfile):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def __hash__(self) -> int:
        return hash((self.center, self.omega, self.xi, self.total_level))


def _check_profile(g: BlockGraph, profile: DetourProfile) -> None:
    """Raise SizeMismatchError unless profile has one level per vertex of g."""
    if len(profile.level) != g.p:
        raise SizeMismatchError(f"the profile has {len(profile.level)} levels for {g.p} vertices")


def detour_profile(g: BlockGraph) -> DetourProfile:
    """Center, levels and branch ownership, cached on the graph.

    The vertex a farthest from block node 0 ends a longest path, as the
    farthest point from any point of a tree does.  Distances from a, and
    from b, the vertex farthest from a, give every eccentricity as
    max(D(v, a), D(v, b)), and the center is the vertices of least
    eccentricity.  It is one cut vertex or one whole block, and distances
    from it give the levels.  Each of these rows is two running minima over
    the constructor's preorder, one each way from the row's node.  A
    vertex's branch is the first block on the way from the center to it:
    a ``searchsorted`` of its position among the positions of the blocks
    that head a branch, for all vertices at once.
    """
    if g._profile is None:
        g._profile = _build_profile(g)
    return g._profile


def _build_profile(g: BlockGraph) -> DetourProfile:
    bct = g.block_cut_tree()
    anchor, weight2, parent, order = bct.anchor, bct.weight2, bct.parent, bct.order
    b = bct.block_count
    pos, dep, up = _preorder(bct)

    def from_node(c: int) -> np.ndarray:
        # per node x, twice the distance from node c to x plus weight2[x], so a
        # vertex anchored at x reads its own doubled distance from node c; the
        # LCAs' dist2 are running minima of up, each way from c's position
        i = pos[c]
        before, after = np.minimum.accumulate(up[i:0:-1])[::-1], np.minimum.accumulate(up[i + 1 :])
        lca2 = np.concatenate((before, dep[i : i + 1], after))
        d2 = (dep + dep[i] - 2 * lca2)[pos]
        d2 += weight2
        return d2

    def from_vertex(u: int) -> np.ndarray:
        d2 = from_node(anchor[u])[anchor]
        d2 += weight2[anchor[u]]
        d2[u] = 0
        return d2

    ecc2 = from_vertex(int(np.argmax((bct.dist2 + weight2)[anchor])))
    np.maximum(ecc2, from_vertex(int(np.argmax(ecc2))), out=ecc2)
    center = tuple(np.flatnonzero(ecc2 == ecc2.min()).tolist())
    del ecc2
    omega = len(center)
    if omega == 1:
        # a cut vertex: a non-cut vertex ties in eccentricity with a cut
        # vertex of its block; its tree row holds its blocks
        root = int(anchor[center[0]])
        xi = int(weight2[bct.indices[bct.indptr[root] : bct.indptr[root + 1]]].min())
    else:
        # a non-cut central vertex's block, else the deepest central cut node's
        # parent (only the block's own parent is above it); it must hold them all
        hub = anchor[list(center)]
        root = int(hub.min() if hub.min() < b else parent[hub[np.argmax(bct.dist2[hub])]])
        beside = (hub == root) | (parent[hub] == root) | (hub == parent[root])
        if weight2[root] != omega - 1 or not beside.all():
            raise AssertionError("detour center is not one whole block")
        xi = 0
    level = ((from_node(root) - (omega - 1)) // 2)[anchor]

    # A branch is headed by its first block h, below the central cut vertex
    # parent[h].  The heads are the root's children when omega = 1 and its
    # grandchildren otherwise, plus the child blocks of the cut vertex above
    # a root block, which is then top.  A node in top's subtree takes the
    # index of the last head at or before it in preorder, any other node the
    # index of top's parent block, and a central node -1, the last entry.
    kids = parent == root
    top = root
    if omega == 1:
        heads = kids
    else:
        heads = kids[parent] & (parent >= 0)
        if root:
            top = int(parent[root])
            heads |= parent == top
    heads = np.sort(pos[heads])
    i = pos[top]  # top's subtree ends at the first later node whose parent is above top
    end = i + 1 + int(np.append(up[i + 1 :] < dep[i], True).argmax())
    code = np.full(len(pos), len(heads), dtype=_ID_DTYPE)
    code[i + 1 : end] = np.searchsorted(heads, np.arange(i + 1, end), side="right") - 1
    code[pos[[root, top]]] = -1
    if omega > 1:
        code[pos[kids]] = -1
    first = order[heads]
    cut_ids = np.flatnonzero(anchor >= b)  # by cut node, less b
    top_owner = cut_ids[top - b] if top else -1
    owners = np.append(cut_ids[parent[first] - b], (top_owner, -1))
    firsts = np.append(first, (parent[top], -1))
    code = code[pos]  # by node
    owner = owners.astype(_ID_DTYPE)[code][anchor]
    owner_block = firsts.astype(_ID_DTYPE)[code][anchor]
    for a in (level, owner, owner_block):
        a.flags.writeable = False
    return DetourProfile(
        center=center,
        omega=omega,
        xi=xi,
        level=level,
        total_level=int(level.sum(dtype=np.int64)),
        owner=owner,
        owner_block=owner_block,
    )


def branch_relation(g: BlockGraph, profile: DetourProfile, u: int, v: int) -> str:
    """Relation of the branches holding u and v.

    ``involves_central`` if either vertex is central; ``same`` if both hang
    off the same central vertex through the same block; ``different`` for
    the same central vertex through different blocks; ``opposite`` for
    different central vertices.
    """
    _check_profile(g, profile)
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
    return tree_metric(g).distance(ids[:, None], ids[None, :]).astype(np.int64)
