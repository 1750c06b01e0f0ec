"""Block graphs, their block-cut tree, and serialization.

A block graph is described by its vertex count ``p`` and its list of blocks
(maximal cliques), each a set of vertex ids in ``0..p-1``.  Vertices and
edges are derived: two vertices are adjacent iff they share a block.  All
structures are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    CyclicBlockStructureError,
    DanglingVertexError,
    DisconnectedError,
    InvalidSpecError,
    OverlappingBlocksError,
    SameVertexError,
)


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Sort members ascending and blocks by smallest member, then lexicographically."""
    return tuple(sorted(tuple(sorted(set(b))) for b in blocks))


class BlockGraph:
    """A connected graph whose blocks are all cliques.

    Construction validates the block structure and raises a
    :class:`~hamcolor.errors.GraphStructureError` subclass on failure.
    Blocks are stored in canonical order (sorted by smallest member,
    members ascending), which fixes serialization and all downstream
    tie-breaking.
    """

    __slots__ = (
        "p", "blocks", "vertex_blocks", "cut_vertices", "meta", "_adjacency", "_bct", "_metric",
    )

    def __init__(self, p: int, blocks: Iterable[Iterable[int]], meta: dict | None = None):
        if p < 1:
            raise InvalidSpecError(f"vertex count must be positive, got {p}")
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
        members = sorted(set().union(*canon))
        if len(members) < p:
            missing = next((i for i, v in enumerate(members) if i != v), len(members))
            raise DanglingVertexError(f"vertex {missing} appears in no block")

        vertex_blocks: list[list[int]] = [[] for _ in range(p)]
        for bi, b in enumerate(canon):
            for v in b:
                vertex_blocks[v].append(bi)

        # No two blocks may share >= 2 vertices: a repeated block pair in some
        # two vertices' membership lists is exactly such an overlap.
        seen_pairs: set[tuple[int, int]] = set()
        for v in range(p):
            for pair in combinations(vertex_blocks[v], 2):
                if pair in seen_pairs:
                    raise OverlappingBlocksError(
                        f"blocks {canon[pair[0]]} and {canon[pair[1]]} share two or more vertices"
                    )
                seen_pairs.add(pair)

        # Connectivity over the vertex/block incidence structure.
        seen_v = [False] * p
        seen_b = [False] * len(canon)
        stack = [canon[0][0]]
        seen_v[canon[0][0]] = True
        while stack:
            v = stack.pop()
            for bi in vertex_blocks[v]:
                if not seen_b[bi]:
                    seen_b[bi] = True
                    for w in canon[bi]:
                        if not seen_v[w]:
                            seen_v[w] = True
                            stack.append(w)
        if not all(seen_v):
            missing = seen_v.index(False)
            raise DisconnectedError(f"vertex {missing} is not reachable from vertex {canon[0][0]}")

        # For a connected block structure, acyclicity of the incidence
        # structure is the counting identity sum(|B|) == p + #blocks - 1.
        incidence = sum(len(b) for b in canon)
        if incidence != p + len(canon) - 1:
            raise CyclicBlockStructureError(
                "some vertex pair is joined by two distinct block sequences"
            )

        self.p = p
        self.blocks = canon
        self.vertex_blocks = tuple(tuple(bs) for bs in vertex_blocks)
        self.cut_vertices = frozenset(v for v in range(p) if len(vertex_blocks[v]) >= 2)
        self.meta = dict(meta) if meta else {}
        self._adjacency: tuple[tuple[int, ...], ...] | None = None
        self._bct: BlockCutTree | None = None
        self._metric = None  # detour.TreeMetric, built by detour.tree_metric

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour lists, built on first access."""
        if self._adjacency is None:
            nbrs: list[set[int]] = [set() for _ in range(self.p)]
            for b in self.blocks:
                for u, v in combinations(b, 2):
                    nbrs[u].add(v)
                    nbrs[v].add(u)
            self._adjacency = tuple(tuple(sorted(s)) for s in nbrs)
        return self._adjacency

    def block_cut_tree(self) -> "BlockCutTree":
        if self._bct is None:
            self._bct = BlockCutTree(self)
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
    are the cut vertices in ascending id order.  The tree is rooted at
    node 0 for path queries.
    """

    __slots__ = (
        "graph", "block_count", "cut_list", "cut_node", "node_count",
        "adj", "parent", "depth",
    )

    def __init__(self, g: BlockGraph):
        b = len(g.blocks)
        cuts = sorted(g.cut_vertices)
        self.graph = g
        self.block_count = b
        self.cut_list = tuple(cuts)
        self.cut_node = {v: b + i for i, v in enumerate(cuts)}
        self.node_count = b + len(cuts)

        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for v in cuts:
            cn = self.cut_node[v]
            for bi in g.vertex_blocks[v]:
                adj[bi].append(cn)
                adj[cn].append(bi)
        self.adj = tuple(tuple(a) for a in adj)

        parent = [-1] * self.node_count
        depth = [0] * self.node_count
        seen = [False] * self.node_count
        seen[0] = True
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    queue.append(y)
        self.parent = tuple(parent)
        self.depth = tuple(depth)

    def is_block_node(self, node: int) -> bool:
        return node < self.block_count

    def anchor(self, v: int) -> int:
        """Tree node carrying vertex v: its cut node, or its unique block node."""
        cn = self.cut_node.get(v)
        if cn is not None:
            return cn
        return self.graph.vertex_blocks[v][0]

    def edge_weight2(self, block_node: int) -> int:
        """Twice the weight of any tree edge incident to this block node."""
        return len(self.graph.blocks[block_node]) - 1

    def node_path(self, a: int, b: int) -> list[int]:
        """Tree nodes from a to b inclusive."""
        left: list[int] = []
        right: list[int] = []
        da, db = self.depth[a], self.depth[b]
        while da > db:
            left.append(a)
            a = self.parent[a]
            da -= 1
        while db > da:
            right.append(b)
            b = self.parent[b]
            db -= 1
        while a != b:
            left.append(a)
            right.append(b)
            a = self.parent[a]
            b = self.parent[b]
        return left + [a] + right[::-1]


def blocks_on_path(g: BlockGraph, u: int, v: int) -> list[int]:
    """Block indices every u-v path traverses, in order from u to v.

    Consecutive blocks share exactly one cut vertex; u lies in the first
    block, v in the last.
    """
    if u == v:
        raise SameVertexError(f"path query needs distinct endpoints, got {u} twice")
    bct = g.block_cut_tree()
    nodes = bct.node_path(bct.anchor(u), bct.anchor(v))
    return [x for x in nodes if bct.is_block_node(x)]


# -- serialization ----------------------------------------------------------

def to_json(g: BlockGraph) -> str:
    """Canonical JSON form; parse -> serialize is byte-identical."""
    doc: dict = {"p": g.p, "blocks": [list(b) for b in g.blocks]}
    if g.meta:
        doc["meta"] = g.meta
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> BlockGraph:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "p" not in doc or "blocks" not in doc:
        raise InvalidSpecError('graph JSON must be an object with "p" and "blocks"')
    p = doc["p"]
    blocks = doc["blocks"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidSpecError(f'"p" must be an integer, got {p!r}')
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in b)
        for b in blocks
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
    """DOT export; with colors, labels show the color and fill hue scales with color/span."""
    lines = ["graph blockgraph {", "  node [shape=circle];"]
    span = max(colors) - min(colors) if colors else 0
    for v in range(g.p):
        if colors is not None:
            hue = 0.66 * (1.0 - (colors[v] / span if span else 0.0))
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
