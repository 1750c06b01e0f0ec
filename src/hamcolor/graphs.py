"""Block graphs, their block-cut tree, and serialization.

A block graph is described by its vertex count ``p`` and its list of blocks
(maximal cliques), each a set of vertex ids in ``0..p-1``.  Vertices and
edges are derived: two vertices are adjacent iff they share a block.  All
structures are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
from itertools import chain, combinations
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import (
    CyclicBlockStructureError,
    DanglingVertexError,
    DisconnectedError,
    InvalidSpecError,
    OverlappingBlocksError,
    SameVertexError,
)


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Sort members ascending and blocks by smallest member, then lexicographically.

    Members must be integers, numpy's included, and are stored as Python
    ints, so every graph serializes; any other member raises InvalidSpecError.
    """
    malformed = "blocks must be collections of integer vertex ids"
    try:
        raw = list(map(tuple, blocks))  # once, so blocks may be generators
    except TypeError:  # blocks, or a block, that is not iterable
        raise InvalidSpecError(malformed) from None
    # one pass over the member types at C speed, before set() merges a float
    # into an equal int; bool is a type of its own
    types = set(map(type, chain.from_iterable(raw)))
    if not all(t is int or issubclass(t, np.integer) for t in types):
        raise InvalidSpecError(malformed)
    canon = tuple(sorted(tuple(sorted(set(b))) for b in raw))
    return canon if types <= {int} else tuple(tuple(map(int, b)) for b in canon)


def _first_missing(canon: tuple[tuple[int, ...], ...]) -> int:
    """Smallest non-negative id that no block contains."""
    members = sorted(set(chain.from_iterable(canon)))
    return next((i for i, v in enumerate(members) if i != v), len(members))


def _overlapping_pair(
    canon: tuple[tuple[int, ...], ...], bct: BlockCutTree
) -> tuple[int, int] | None:
    """Ids a < b of two blocks sharing two or more vertices, or None.

    Two blocks share two vertices exactly when the vertex/block incidence
    graph has a 4-cycle, found as in Chiba and Nishizeki ("Arboricity and
    subgraph listing algorithms", 1985): nodes are taken in descending
    degree order; each walks the 2-paths through the nodes not yet taken,
    and an end reached twice closes a 4-cycle; then the node is dropped.
    An edge is walked only from its higher-degree end, so the time is
    O(a * sum(|B|)) for arboricity a <= sqrt(sum(|B|)), O(sum(|B|)) on a
    tree with a few extra edges, and the memory O(sum(|B|)).

    The walk runs over the block-cut tree, the incidence graph less its
    leaves: a vertex in one block closes no 4-cycle.  Blocks are still
    ordered by size, their degree in the incidence graph, so the pair
    named is the one a walk of the whole incidence graph names.
    """
    b, adj = len(canon), bct.adj
    taken = bytearray(len(adj))
    for x in sorted(range(len(adj)), key=lambda x: -len(canon[x] if x < b else adj[x])):
        taken[x] = 1
        first_via: dict[int, int] = {}
        for y in adj[x]:
            if taken[y]:
                continue
            for z in adj[y]:
                if taken[z]:
                    continue
                if z in first_via:
                    # blocks x and z share vertices y and first_via[z], or
                    # blocks y and first_via[z] share vertices x and z
                    pair = (x, z) if x < b else (first_via[z], y)
                    return min(pair), max(pair)
                first_via[z] = y
    return None


def _diagnose(canon: tuple[tuple[int, ...], ...], bct: BlockCutTree) -> NoReturn:
    """Raise the error that names what is wrong with a covering block list.

    Called only once the tree test has failed.  The checks run in a fixed
    order, overlapping blocks, then disconnection, then a cycle of blocks,
    so each input gets one error whichever test it failed.
    """
    pair = _overlapping_pair(canon, bct)
    if pair is not None:
        raise OverlappingBlocksError(
            f"blocks {canon[pair[0]]} and {canon[pair[1]]} share two or more vertices"
        )

    # A vertex is reachable from the smallest member of block 0 exactly
    # when the constructor's sweep from block node 0 reached its anchor.
    unreached = np.flatnonzero(bct.dist2[bct.anchor] < 0)
    if unreached.size:
        raise DisconnectedError(f"vertex {unreached[0]} is not reachable from vertex {canon[0][0]}")

    # Connected without overlaps, so sum(|B|) != p + #blocks - 1.
    raise CyclicBlockStructureError("some vertex pair is joined by two distinct block sequences")


class BlockGraph:
    """A connected graph whose blocks are all cliques.

    Construction validates the block structure and raises a
    :class:`~hamcolor.errors.GraphStructureError` subclass on failure.
    Blocks are stored in canonical order (sorted by smallest member,
    members ascending), which fixes serialization and all downstream
    tie-breaking.

    A valid input is proved so in linear time: every id is covered,
    sum(|B|) == p + #blocks - 1, and the depth-first sweep of the
    block-cut tree, which is built here and kept, reaches every node.
    Only an input failing the count or the sweep is diagnosed further,
    in a fixed order: overlapping blocks, then disconnection, then a
    cycle of blocks.
    """

    __slots__ = ("p", "blocks", "meta", "_bct", "_metric", "_profile")

    def __init__(self, p: int, blocks: Iterable[Iterable[int]], meta: dict | None = None):
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise InvalidSpecError(f"vertex count must be an integer, got {p!r}")
        if p < 1:
            raise InvalidSpecError(f"vertex count must be positive, got {p}")
        p = int(p)
        canon = _canonical_blocks(blocks)
        if not canon:
            raise InvalidSpecError("a block graph needs at least one block")
        for b in canon:
            if len(b) < 2:
                raise InvalidSpecError(f"block {b} has fewer than 2 vertices")
            if b[0] < 0 or b[-1] >= p:
                raise InvalidSpecError(f"block {b} uses ids outside 0..{p - 1}")

        # Coverage first, in time and memory proportional to the input, so a
        # huge p with few blocks is rejected before any per-vertex list exists.
        sizes = np.fromiter(map(len, canon), dtype=np.intp, count=len(canon))
        incidence = int(sizes.sum())
        if incidence >= p:
            flat = np.fromiter(chain.from_iterable(canon), dtype=np.intp, count=incidence)
            degree = np.bincount(flat, minlength=p)
        if incidence < p or not degree.all():
            raise DanglingVertexError(f"vertex {_first_missing(canon)} appears in no block")

        # Block ids grouped by vertex, ascending within each vertex; only the
        # cut vertices' groups are kept, as their tree nodes' block lists.
        block_of = np.repeat(np.arange(len(canon)), sizes)[np.argsort(flat, kind="stable")]
        start = np.cumsum(degree) - degree
        anchor = block_of[start]
        cuts = np.flatnonzero(degree >= 2)
        cut_blocks = [
            tuple(block_of[s : s + d].tolist())
            for s, d in zip(start[cuts].tolist(), degree[cuts].tolist())
        ]
        # A non-cut vertex is anchored at its one block, a cut vertex at its
        # own tree node; cut nodes follow the blocks in ascending id order.
        anchor[cuts] = len(canon) + np.arange(len(cuts))

        self.p = p
        self.blocks = canon
        self.meta = dict(meta) if meta else {}
        self._metric = None  # detour.TreeMetric, built by detour.tree_metric
        self._profile = None  # detour.DetourProfile, built by detour.detour_profile

        # The vertex/block incidence graph is a tree exactly when it is
        # connected and sum(|B|) == p + #blocks - 1; two blocks sharing two
        # vertices would close a cycle in it.  Every non-cut vertex hangs off
        # one block, so connectivity is the block-cut tree's sweep reaching
        # every node.  Only an input failing either test pays for the diagnosis.
        self._bct = BlockCutTree(canon, cut_blocks, anchor)
        if incidence != p + len(canon) - 1 or len(self._bct.order) != self._bct.node_count:
            _diagnose(canon, self._bct)

    def block_cut_tree(self) -> "BlockCutTree":
        """The block-cut tree, built and checked by the constructor."""
        return self._bct

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockGraph)
            and self.p == other.p
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.p, self.blocks))

    def __repr__(self) -> str:
        return f"BlockGraph(p={self.p}, blocks={len(self.blocks)})"


class BlockCutTree:
    """The bipartite tree of blocks and cut vertices.

    Nodes ``0..b-1`` are the blocks in canonical order; nodes ``b..b+c-1``
    are the cut vertices in ascending id order, built from ``cut_blocks``,
    each cut vertex's block ids ascending.  It is the graph's one record
    of which vertex lies in which block.  Weights are doubled to
    stay integral: ``weight2[x]`` is |B| - 1 on a block node and 0 on a cut
    node, and an edge weighs ``weight2[x] + weight2[y]``.  Per vertex v,
    ``anchor[v]`` is its cut node or its one block node, and ``half2[v]``
    is ``weight2[anchor[v]]``.  :meth:`sweep` is the one walk of the tree;
    the constructor keeps its sweep from node 0 as ``order``, ``parent``
    and ``dist2``.
    """

    __slots__ = (
        "block_count", "cut_list", "node_count", "adj", "weight2", "anchor", "half2",
        "order", "parent", "dist2",
    )

    def __init__(self, blocks: tuple, cut_blocks: list, anchor: np.ndarray):
        b = len(blocks)
        self.block_count = b
        self.cut_list = tuple(np.flatnonzero(anchor >= b).tolist())
        self.node_count = b + len(cut_blocks)
        self.weight2 = tuple([len(bl) - 1 for bl in blocks] + [0] * len(cut_blocks))

        adj: list = [[] for _ in range(b)]
        for cn, bs in enumerate(cut_blocks, start=b):
            for bi in bs:
                adj[bi].append(cn)
        self.adj = tuple(map(tuple, adj)) + tuple(cut_blocks)

        self.anchor = anchor
        self.half2 = np.array(self.weight2, dtype=np.int64)[anchor]
        self.order, self.parent, self.dist2 = self.sweep(0)
        for a in (self.anchor, self.half2, self.dist2):
            a.flags.writeable = False

    def sweep(self, root: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
        """Depth-first preorder, parents and doubled distances of the nodes from root.

        Nodes are marked when pushed, so the walk also ends on a cyclic
        structure; nodes it does not reach are left out of the order and
        keep parent -1 and distance -1.
        """
        adj, weight2 = self.adj, self.weight2
        parent = [-1] * self.node_count
        dist2 = [-1] * self.node_count
        dist2[root] = 0
        order = []
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            dx = dist2[x] + weight2[x]
            for y in adj[x]:
                if dist2[y] < 0:
                    parent[y] = x
                    dist2[y] = dx + weight2[y]
                    stack.append(y)
        return tuple(order), tuple(parent), np.array(dist2, dtype=np.int64)

    def node_path(self, a: int, b: int) -> list[int]:
        """Tree nodes from a to b inclusive."""
        left: list[int] = []
        right: list[int] = []
        dist2, parent = self.dist2, self.parent
        # of two distinct nodes, one at least as far from the root is not
        # an ancestor of the other, so its parent is still on the path
        while a != b:
            if dist2[a] >= dist2[b]:
                left.append(a)
                a = parent[a]
            else:
                right.append(b)
                b = parent[b]
        return left + [a] + right[::-1]


def check_vertices(g: BlockGraph, *ids: int) -> None:
    """Raise InvalidSpecError naming the first id that is not a vertex of g."""
    for v in ids:
        if not 0 <= v < g.p:
            raise InvalidSpecError(f"vertex id {v} is outside 0..{g.p - 1}")


def blocks_on_path(g: BlockGraph, u: int, v: int) -> list[int]:
    """Block indices every u-v path traverses, in order from u to v.

    Consecutive blocks share exactly one cut vertex; u lies in the first
    block, v in the last.
    """
    check_vertices(g, u, v)
    if u == v:
        raise SameVertexError(f"path query needs distinct endpoints, got {u} twice")
    bct = g.block_cut_tree()
    nodes = bct.node_path(int(bct.anchor[u]), int(bct.anchor[v]))
    return [x for x in nodes if x < bct.block_count]


# -- serialization ----------------------------------------------------------

def to_json(g: BlockGraph) -> str:
    """Canonical JSON form; parse -> serialize is byte-identical."""
    doc: dict = {"p": g.p, "blocks": [list(b) for b in g.blocks]}
    if g.meta:
        doc["meta"] = g.meta
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> BlockGraph:
    """Parse the JSON form.

    Text that is not JSON raises ``json.JSONDecodeError``; JSON of the
    wrong shape, nesting too deep included, raises InvalidSpecError; and a
    block list that is not a block graph raises a GraphStructureError.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        # json recurses once per nesting level, past the interpreter's limit
        raise InvalidSpecError("graph JSON is nested too deeply") from None
    if not isinstance(doc, dict) or "p" not in doc or "blocks" not in doc:
        raise InvalidSpecError('graph JSON must be an object with "p" and "blocks"')
    p = doc["p"]
    blocks = doc["blocks"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidSpecError(f'"p" must be an integer, got {p!r}')
    # JSON gives exact types, and bool is a type of its own, so set lookups
    # over the element types check every member at C speed.
    if not (
        isinstance(blocks, list)
        and set(map(type, blocks)) <= {list}
        and set(map(type, chain.from_iterable(blocks))) <= {int}
    ):
        raise InvalidSpecError('"blocks" must be a list of integer lists')
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise InvalidSpecError('"meta" must be an object when present')
    return BlockGraph(p, blocks, meta)


def to_dot(
    g: BlockGraph,
    colors: Sequence[int] | None = None,
    clusters: bool = False,
) -> str:
    """DOT export; with colors, labels show the color and the fill hue runs from 0.66 down to 0.

    The hue scales with the color's offset from the smallest color over the span.
    """
    lines = ["graph blockgraph {", "  node [shape=circle];"]
    if colors is not None:
        low = min(colors)
        span = max(colors) - low
    for v in range(g.p):
        if colors is not None:
            hue = 0.66 * (1.0 - ((colors[v] - low) / span if span else 0.0))
            lines.append(
                f'  {v} [label="{v}\\n{colors[v]}" style=filled fillcolor="{hue:.3f},0.35,1.0"];'
            )
        else:
            lines.append(f'  {v} [label="{v}"];')
    for bi, b in enumerate(g.blocks):
        edge_lines = [f"  {u} -- {v};" for u, v in combinations(b, 2)]
        if clusters:
            lines.append(f"  subgraph cluster_{bi} {{")
            lines.extend("  " + e for e in edge_lines)
            lines.append("  }")
        else:
            lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
