"""Block graphs, their block-cut tree, and serialization.

A block graph is described by its vertex count ``p`` and its list of blocks
(maximal cliques), each a set of vertex ids in ``0..p-1``.  Vertices and
edges are derived: two vertices are adjacent iff they share a block.  All
structures are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, combinations, pairwise
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import (
    CyclicBlockStructureError,
    DanglingVertexError,
    DisconnectedError,
    InvalidSpecError,
    OverlappingBlocksError,
)

# The dtype of every vertex id, block id, tree-node id and doubled tree
# distance the library keeps.  Ids are below the member count, tree nodes
# and adjacency offsets below twice it, and a doubled distance is at most
# 2(p - 1), so a sum of two stays below 4p; int32 holds them all while the
# graph has at most _MAX_MEMBERS members, 4 GiB of int64 member ids.  Colors,
# gaps and every key that multiplies an id by p are int64, formed from
# widened operands.
_ID_DTYPE = np.int32
_MAX_MEMBERS = 2**29


def check_integer(value, what: str) -> int:
    """value as a Python int; InvalidSpecError naming ``what`` unless it is a
    Python or numpy integer.  bool and floats fail, a float equal to an int too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidSpecError(f"{what} {value!r} is not an integer")
    return int(value)


def _check_member_count(count: int) -> None:
    """Raise InvalidSpecError when a graph of ``count`` block members could pass int32."""
    if count > _MAX_MEMBERS:
        raise InvalidSpecError(
            f"a block graph may have at most {_MAX_MEMBERS} block members, got {count}"
        )


def _vertex_count(p) -> int:
    if check_integer(p, "vertex count") < 1:
        raise InvalidSpecError(f"vertex count must be positive, got {p}")
    return int(p)


def _member_arrays(p: int, blocks: Iterable[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The block sizes and the members of all blocks, block after block, as intp arrays.

    Each block is iterated once, so blocks may be generators; a list of
    lists or tuples is read without a copy.  Blocks or a block that is a
    string or not iterable, or a member that is not an integer, numpy's
    included, raise InvalidSpecError; a member too large for intp goes to
    :func:`_reject`.
    """
    malformed = "blocks must be collections of integer vertex ids"
    # a string holds no ids; made a tuple it would cost a pointer per character
    if isinstance(blocks, str):
        raise InvalidSpecError(malformed)
    try:
        if not (isinstance(blocks, list) and set(map(type, blocks)) <= {list, tuple}):
            blocks = [b if isinstance(b, (list, tuple, str)) else tuple(b) for b in blocks]
    except TypeError:  # blocks, or a block, that is not iterable
        raise InvalidSpecError(malformed) from None
    # one pass over the member types at C speed, before repeats are merged,
    # so a float equal to an int is caught; bool is a type of its own
    types = set(map(type, chain.from_iterable(blocks)))
    if not all(t is int or issubclass(t, np.integer) for t in types):
        raise InvalidSpecError(malformed)
    del types  # let go before the arrays are built, the parse's peak
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    try:
        flat = np.fromiter(chain.from_iterable(blocks), dtype=np.intp, count=int(sizes.sum()))
    except OverflowError:
        _reject(p, sizes, np.fromiter(chain.from_iterable(blocks), dtype=object))
    return sizes, flat


def _canonical_members(
    p: int, sizes: np.ndarray, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Members ascending within blocks, blocks by smallest member, then lexicographically.

    Takes :func:`_member_arrays`' block sizes and members.  Returns the
    members of all blocks, block after block, and the blocks' start offsets
    followed by the member count.  On arrays, one sort of ``block * p +
    member`` orders and merges each block's members, and one sort of
    ``first * p + second`` on each block's two smallest members orders the
    blocks.  Two distinct blocks tie there only when they share two
    vertices, so the list is no block graph; its blocks are then ordered by
    their member lists, for the diagnosis.  A list the arrays show
    malformed goes to :func:`_reject`, which raises its error.  The checks
    and sort keys run on intp; once every id is proved to lie in 0..p-1 the
    members narrow to ``_ID_DTYPE``, in the final gather.
    """
    if not len(sizes) or len(flat) < p or flat.min() < 0 or flat.max() >= p:
        _reject(p, sizes, flat)
    # Both keys stay below len(flat) ** 2, as p <= len(flat).  Every sort is
    # numpy's stable argsort, which the block-cut tree uses too: the default
    # sort would touch a second routine, about 0.2 MB more RSS per process.
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    key = block_of * p
    key += flat
    key = key[np.argsort(key, kind="stable")]  # block_of, ascending, still matches it
    repeat = key[1:] == key[:-1]
    if repeat.any():
        keep = np.append(True, ~repeat)
        key, block_of = key[keep], block_of[keep]
        sizes = np.bincount(block_of, minlength=len(sizes))
    members = key
    members -= block_of * p
    if len(members) < p or sizes.min() < 2:
        _reject(p, sizes, members)
    starts = np.cumsum(sizes) - sizes
    pair = members[starts] * p + members[starts + 1]
    order = np.argsort(pair, kind="stable")
    if (pair[order[1:]] == pair[order[:-1]]).any():
        lists = _split(members, np.append(starts, len(members)))
        order = np.array(sorted(range(len(lists)), key=lists.__getitem__))
    sizes = sizes[order]
    ends = np.cumsum(sizes)
    at = np.repeat(starts[order] - (ends - sizes), sizes)
    at += np.arange(len(members))
    return members.astype(_ID_DTYPE)[at], np.append(0, ends)


def _reject(p: int, sizes: np.ndarray, flat: np.ndarray) -> NoReturn:
    """Raise the error of a malformed block list, given as its block sizes and members.

    Blocks are checked in canonical order for size and ids, then the
    smallest id that no block holds is named, in time and memory
    proportional to the input, so a huge p is rejected at once.
    """
    flat = flat.tolist()
    ends = np.cumsum(sizes).tolist()
    canon = sorted(tuple(sorted(set(flat[e - s : e]))) for s, e in zip(sizes.tolist(), ends))
    if not canon:
        raise InvalidSpecError("a block graph needs at least one block")
    for b in canon:
        if len(b) < 2:
            raise InvalidSpecError(f"block {b} has fewer than 2 vertices")
        if b[0] < 0 or b[-1] >= p:
            raise InvalidSpecError(f"block {b} uses ids outside 0..{p - 1}")
    held = set(chain.from_iterable(canon))
    missing = min(set(range(len(held) + 1)) - held)
    raise DanglingVertexError(f"vertex {missing} appears in no block")


def _split(members: np.ndarray, starts: np.ndarray) -> list[list[int]]:
    """The blocks from starts[0] to starts[-1] as lists of Python ints."""
    flat = members[starts[0] : starts[-1]].tolist()
    return [flat[s:e] for s, e in pairwise((starts - starts[0]).tolist())]


def _overlapping_pair(sizes: np.ndarray, bct: BlockCutTree) -> tuple[int, int] | None:
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
    b = bct.block_count
    ptr, nbr = bct.indptr.tolist(), bct.indices.tolist()
    degree = np.append(sizes, np.diff(bct.indptr)[b:])
    taken = bytearray(bct.node_count)
    for x in np.argsort(-degree, kind="stable").tolist():
        taken[x] = 1
        first_via: dict[int, int] = {}
        for y in nbr[ptr[x] : ptr[x + 1]]:
            if taken[y]:
                continue
            for z in nbr[ptr[y] : ptr[y + 1]]:
                if taken[z]:
                    continue
                if z in first_via:
                    # blocks x and z share vertices y and first_via[z], or
                    # blocks y and first_via[z] share vertices x and z
                    pair = (x, z) if x < b else (first_via[z], y)
                    return min(pair), max(pair)
                first_via[z] = y
    return None


def _diagnose(members: np.ndarray, starts: np.ndarray, bct: BlockCutTree) -> NoReturn:
    """Raise the error that names what is wrong with a covering block list.

    Called only once the tree test has failed.  The checks run in a fixed
    order, overlapping blocks, then disconnection, then a cycle of blocks,
    so each input gets one error whichever test it failed.
    """
    pair = _overlapping_pair(np.diff(starts), bct)
    if pair is not None:
        a, b = (tuple(members[starts[i] : starts[i + 1]].tolist()) for i in pair)
        raise OverlappingBlocksError(f"blocks {a} and {b} share two or more vertices")

    # A vertex is reachable from the smallest member of block 0 exactly
    # when the constructor's sweep from block node 0 reached its anchor.
    unreached = np.flatnonzero(bct.dist2[bct.anchor] < 0)
    if unreached.size:
        raise DisconnectedError(f"vertex {unreached[0]} is not reachable from vertex {members[0]}")

    # Connected without overlaps, so sum(|B|) != p + #blocks - 1.
    raise CyclicBlockStructureError("some vertex pair is joined by two distinct block sequences")


class BlockGraph:
    """A connected graph whose blocks are all cliques.

    Construction validates the block structure and raises a
    :class:`~hamcolor.errors.GraphStructureError` subclass on failure.
    Blocks are stored in canonical order (sorted by smallest member,
    members ascending), which fixes serialization and all downstream
    tie-breaking.  They are held as two read-only integer arrays, every
    block's members one after another (int32) and each block's start
    offset; :attr:`blocks` is their tuple view, built on first read.  A
    graph of more than 2**29 members raises InvalidSpecError, as its ids and
    doubled distances could pass int32.

    A valid input is proved so in linear time: every id is covered,
    sum(|B|) == p + #blocks - 1, and the depth-first sweep of the
    block-cut tree, which is built here and kept, reaches every node.
    Only an input failing the count or the sweep is diagnosed further,
    in a fixed order: overlapping blocks, then disconnection, then a
    cycle of blocks.
    """

    __slots__ = ("p", "meta", "_members", "_starts", "_blocks", "_bct", "_metric", "_profile")

    def __init__(self, p: int, blocks: Iterable[Iterable[int]], meta: dict | None = None):
        p = _vertex_count(p)
        self._build(p, *_canonical_members(p, *_member_arrays(p, blocks)), meta)

    @classmethod
    def _from_members(
        cls, p: int, members: np.ndarray, starts: np.ndarray, meta: dict | None
    ) -> "BlockGraph":
        """A graph from :func:`_canonical_members`' arrays."""
        g = cls.__new__(cls)
        g._build(p, members, starts, meta)
        return g

    def _build(self, p: int, members: np.ndarray, starts: np.ndarray, meta: dict | None) -> None:
        _check_member_count(len(members))
        degree = np.bincount(members, minlength=p)
        if not degree.all():
            raise DanglingVertexError(f"vertex {np.argmin(degree)} appears in no block")
        for a in (members, starts):
            a.flags.writeable = False
        self.p = p
        self.meta = dict(meta) if meta else {}
        self._members = members
        self._starts = starts
        self._blocks = None  # the tuple view, built by the blocks property
        self._metric = None  # detour.TreeMetric, built by detour.tree_metric
        self._profile = None  # detour.DetourProfile, built by detour.detour_profile

        # The vertex/block incidence graph is a tree exactly when it is
        # connected and sum(|B|) == p + #blocks - 1; two blocks sharing two
        # vertices would close a cycle in it.  Every non-cut vertex hangs off
        # one block, so connectivity is the block-cut tree's sweep reaching
        # every node.  Only an input failing either test pays for the diagnosis.
        self._bct = BlockCutTree(members, starts, degree)
        bct = self._bct
        if len(members) != p + bct.block_count - 1 or len(bct.order) != bct.node_count:
            _diagnose(members, starts, bct)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as tuples of Python ints in canonical order, built on first read."""
        if self._blocks is None:
            self._blocks = tuple(map(tuple, _split(self._members, self._starts)))
        return self._blocks

    def block_cut_tree(self) -> "BlockCutTree":
        """The block-cut tree, built and checked by the constructor."""
        return self._bct

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockGraph)
            and self.p == other.p
            and np.array_equal(self._starts, other._starts)
            and np.array_equal(self._members, other._members)
        )

    def __hash__(self) -> int:
        return hash((self.p, self._starts.tobytes(), self._members.tobytes()))

    def __repr__(self) -> str:
        return f"BlockGraph(p={self.p}, blocks={len(self._starts) - 1})"


class BlockCutTree:
    """The bipartite tree of blocks and cut vertices.

    Nodes ``0..b-1`` are the blocks in canonical order; nodes ``b..b+c-1``
    are the cut vertices in ascending id order.  It is the graph's one
    record of which vertex lies in which block.  The neighbours of node x
    are ``indices[indptr[x]:indptr[x + 1]]``, ascending: a block's cut
    nodes, and a cut vertex's blocks.  Weights are doubled to stay
    integral: ``weight2[x]`` is |B| - 1 on a block node and 0 on a cut
    node, and an edge weighs ``weight2[x] + weight2[y]``.  Per vertex v,
    ``anchor[v]`` is its cut node or its one block node, the tree's one map
    between vertices and nodes: ``anchor >= b`` marks the cut vertices, in
    node order, and a cut node's degree is its vertex's number of blocks.
    The constructor walks the tree once, depth first from node 0, and
    keeps the preorder as ``order`` and, per node, ``parent`` and the
    doubled distance ``dist2`` from node 0; no other code walks the tree.
    Every array is read-only int32.
    """

    __slots__ = (
        "block_count", "node_count", "indptr", "indices", "weight2", "anchor", "order",
        "parent", "dist2",
    )

    def __init__(self, members: np.ndarray, starts: np.ndarray, degree: np.ndarray):
        sizes = np.diff(starts)
        b = len(sizes)
        owner = np.repeat(np.arange(b, dtype=_ID_DTYPE), sizes)  # the block of each member
        # Block ids grouped by vertex, ascending within each vertex.
        block_of = owner[np.argsort(members, kind="stable")]
        cuts = np.flatnonzero(degree >= 2)
        # A non-cut vertex is anchored at its one block, a cut vertex at its
        # own tree node; cut nodes follow the blocks in ascending id order.
        anchor = block_of[np.cumsum(degree) - degree]
        anchor[cuts] = b + np.arange(len(cuts))
        # A block's cut nodes ascend with its members; a cut vertex's blocks
        # are its group of block_of.
        node = anchor[members]
        is_cut = node >= b
        rows = np.append(np.bincount(owner[is_cut], minlength=b), degree[cuts])
        del owner
        self.indices = np.append(node[is_cut], block_of[np.repeat(degree >= 2, degree)])
        del block_of, node, is_cut
        self.indptr = np.append(0, np.cumsum(rows)).astype(_ID_DTYPE)  # summed in intp

        self.block_count = b
        self.node_count = b + len(cuts)
        self.weight2 = np.zeros(self.node_count, dtype=_ID_DTYPE)
        self.weight2[:b] = sizes - 1
        self.anchor = anchor
        del sizes, rows, cuts  # intp arrays the walk does not read, freed before its lists

        # The tree's one walk: a depth-first preorder from node 0 with parents
        # and doubled distances.  Nodes are marked when pushed, so the walk
        # also ends on a cyclic structure; nodes it does not reach are left
        # out of the order and keep parent -1 and distance -1.
        ptr, nbr, weight2 = self.indptr.tolist(), self.indices.tolist(), self.weight2.tolist()
        parent = [-1] * self.node_count
        dist2 = [-1] * self.node_count
        dist2[0] = 0
        order = []
        stack = [0]
        while stack:
            x = stack.pop()
            order.append(x)
            dx = dist2[x] + weight2[x]
            for y in nbr[ptr[x] : ptr[x + 1]]:
                if dist2[y] < 0:
                    parent[y] = x
                    dist2[y] = dx + weight2[y]
                    stack.append(y)
        self.order = np.array(order, dtype=_ID_DTYPE)
        self.parent = np.array(parent, dtype=_ID_DTYPE)
        self.dist2 = np.array(dist2, dtype=_ID_DTYPE)
        for a in (self.indptr, self.indices, self.weight2, self.anchor, self.order, self.parent,
                  self.dist2):
            a.flags.writeable = False


def check_vertices(g: BlockGraph, *ids: int) -> None:
    """Raise InvalidSpecError naming the first id that is not a vertex of g."""
    for v in ids:
        if not 0 <= check_integer(v, "vertex id") < g.p:
            raise InvalidSpecError(f"vertex id {v} is outside 0..{g.p - 1}")


# -- serialization ----------------------------------------------------------

def to_json(g: BlockGraph) -> str:
    """Canonical JSON form; parse -> serialize is byte-identical.

    The bytes of one sorted, compact ``json.dumps`` of p, blocks and meta:
    the pieces of :func:`_json_parts`, joined.
    """
    return "".join(_json_parts(g))


def _json_parts(g: BlockGraph) -> Iterator[str]:
    """:func:`to_json`'s text in order, piece by piece, with the blocks 1,024 at a time.

    json.dumps makes a string per value before it joins them, so only one
    slice's lists and strings exist at a time; a writer given the pieces
    never holds the whole text.
    """
    compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    members, starts = g._members, g._starts
    step = 1024
    yield '{"blocks":['
    for i in range(0, len(starts) - 1, step):
        if i:
            yield ","
        yield compact(_split(members, starts[i : i + step + 1]))[1:-1]
    meta = f',"meta":{compact(g.meta)}' if g.meta else ""
    yield f']{meta},"p":{g.p}}}\n'


def _load_json(text: str, what: str):
    """json.loads(text); InvalidSpecError naming ``what`` when the text nests
    past the interpreter's recursion limit, as json recurses once per level."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InvalidSpecError(f"{what} JSON is nested too deeply") from None


def from_json(text: str) -> BlockGraph:
    """Parse the JSON form.

    Text that is not JSON raises ``json.JSONDecodeError``.  A document that
    nests too deeply, is no object with "p" and "blocks", or has a "meta"
    that is no object raises InvalidSpecError; "p" and "blocks" are checked
    as ``BlockGraph(p, blocks)`` checks them, with its errors.
    """
    doc = _load_json(text, "graph")
    if not isinstance(doc, dict) or "p" not in doc or "blocks" not in doc:
        raise InvalidSpecError('graph JSON must be an object with "p" and "blocks"')
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise InvalidSpecError('"meta" must be an object when present')
    # the document and its text are let go before the canonical sort, and
    # the raw block arrays before the block-cut tree is built
    p = _vertex_count(doc["p"])
    sizes, flat = _member_arrays(p, doc["blocks"])
    del text, doc
    members, starts = _canonical_members(p, sizes, flat)
    del sizes, flat
    return BlockGraph._from_members(p, members, starts, meta)


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
