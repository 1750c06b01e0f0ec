"""Generators for the graph families the package works with.

Vertex id layouts are fixed so golden tests stay stable:

* symmetric, even diameter: center is 0; the depth-1 list occupies ids
  ``1..kappa*n`` in round-robin block order; deeper vertices follow,
  grouped by branch, then depth, then child-tuple order.
* symmetric, odd diameter: the central block is ``0..m-1``; descendants
  follow per central owner, then depth, then child-tuple order.
* one-point union: the shared vertex is 0, block j holds the next n-1 ids.
* path / star: ids along the path, hub 0 for stars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .detour import DetourProfile, detour_profile
from .errors import InvalidSpecError, NotSymmetricError
from .graphs import BlockGraph


@dataclass(frozen=True)
class SymmetricSpec:
    """Parameters of a symmetric block graph.

    All blocks have ``block_size`` vertices, every cut vertex lies in
    exactly ``cut_degree`` blocks, and all end vertices share the same
    eccentricity; ``diameter`` is the ordinary diameter.
    """

    block_size: int
    cut_degree: int
    diameter: int

    def __post_init__(self):
        if self.block_size < 2:
            raise InvalidSpecError(f"block size must be >= 2, got {self.block_size}")
        if self.cut_degree < 2:
            raise InvalidSpecError(f"cut degree must be >= 2, got {self.cut_degree}")
        if self.diameter < 2:
            raise InvalidSpecError(f"diameter must be >= 2, got {self.diameter}")

    @property
    def n(self) -> int:
        """Block size minus one: new vertices added per block."""
        return self.block_size - 1

    @property
    def k(self) -> int:
        """Cut degree minus one: child blocks per internal vertex."""
        return self.cut_degree - 1

    @property
    def r(self) -> int:
        """Radius in blocks: half the diameter, rounded down."""
        return self.diameter // 2


@dataclass(frozen=True)
class SymmetricCoordinates:
    """Canonical coordinates of a symmetric block graph's vertices.

    ``roots`` are the ordering endpoints (the center for even diameter,
    the central block for odd); ``top_list`` is the even-diameter
    depth-1 list in round-robin block order (equals ``roots`` when odd).
    ``branch[v]`` is the 1-based index of the interleaving stream v
    belongs to, 0 for the even-diameter center.  ``path_tuple[v]`` holds
    the child indices from the branch root down to v.
    """

    spec: SymmetricSpec
    parity: str
    roots: tuple[int, ...]
    top_list: tuple[int, ...]
    depth: tuple[int, ...]
    branch: tuple[int, ...]
    path_tuple: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]


def _round_robin(member_lists: list[list[int]]) -> list[int]:
    """Interleave equally long lists so consecutive picks cycle the lists."""
    width = len(member_lists)
    length = len(member_lists[0])
    return [member_lists[i % width][i // width] for i in range(width * length)]


def symmetric_coordinates(
    g: BlockGraph, profile: DetourProfile | None = None
) -> SymmetricCoordinates:
    """Derive canonical coordinates from the structure of g.

    Works for any vertex labeling; raises NotSymmetricError when g is not
    a symmetric block graph with at least two blocks.  ``profile`` is g's
    detour profile when the caller already has it; otherwise it is
    computed here.
    """
    if len(g.blocks) < 2:
        raise NotSymmetricError("a symmetric block graph has at least two blocks")
    sizes = {len(b) for b in g.blocks}
    if len(sizes) != 1:
        raise NotSymmetricError(f"blocks have mixed sizes {sorted(sizes)}")
    m = sizes.pop()
    degrees = {len(g.vertex_blocks[v]) for v in g.cut_vertices}
    if len(degrees) != 1:
        raise NotSymmetricError(f"cut vertices have mixed block degrees {sorted(degrees)}")
    kappa = degrees.pop()

    if profile is None:
        profile = detour_profile(g)
    used_blocks: set[int] = set()
    depth = [-1] * g.p
    branch = [0] * g.p
    tup: list[tuple[int, ...]] = [()] * g.p
    children: list[tuple[int, ...]] = [()] * g.p
    parent = [-1] * g.p

    if profile.omega == 1:
        parity = "even"
        w = profile.center[0]
        if w not in g.cut_vertices:
            raise NotSymmetricError("even-diameter center must be a cut vertex")
        roots = (w,)
        depth[w] = 0
        top_blocks = sorted(g.vertex_blocks[w])
        members = [[v for v in g.blocks[bi] if v != w] for bi in top_blocks]
        top_list = _round_robin(members)
        for pos, v in enumerate(top_list, start=1):
            depth[v] = 1
            branch[v] = pos
            parent[v] = w
        children[w] = tuple(top_list)
        used_blocks.update(top_blocks)
        frontier = list(top_list)
    elif profile.omega == m:
        parity = "odd"
        central_set = set(profile.center)
        central_bi = next(
            (bi for bi, b in enumerate(g.blocks) if set(b) == central_set), None
        )
        if central_bi is None:
            raise NotSymmetricError("detour center is not a whole block")
        roots = tuple(sorted(profile.center))
        used_blocks.add(central_bi)
        frontier = []
        for pos, c in enumerate(roots, start=1):
            if c not in g.cut_vertices:
                raise NotSymmetricError("every central vertex must carry its own branches")
            depth[c] = 0
            branch[c] = pos
            frontier.append(c)
    else:
        raise NotSymmetricError(
            f"detour center has {profile.omega} vertices; expected 1 or {m}"
        )

    while frontier:
        nxt: list[int] = []
        for v in frontier:
            new_blocks = sorted(bi for bi in g.vertex_blocks[v] if bi not in used_blocks)
            if not new_blocks:
                continue
            if len(new_blocks) != kappa - 1:
                raise NotSymmetricError(
                    f"vertex {v} grows {len(new_blocks)} blocks; expected {kappa - 1}"
                )
            used_blocks.update(new_blocks)
            members = [[u for u in g.blocks[bi] if u != v] for bi in new_blocks]
            child_list = _round_robin(members)
            for i, u in enumerate(child_list):
                if depth[u] >= 0:
                    raise NotSymmetricError("block layers overlap")
                depth[u] = depth[v] + 1
                branch[u] = branch[v]
                tup[u] = tup[v] + (i,)
                parent[u] = v
            children[v] = tuple(child_list)
            nxt.extend(child_list)
        frontier = nxt

    if min(depth) < 0:
        raise NotSymmetricError("unreachable vertices during layering")
    r = max(depth)
    for v in range(g.p):
        is_end = v not in g.cut_vertices
        if is_end and depth[v] != r:
            raise NotSymmetricError("end vertices sit at unequal depths")
        if not is_end and depth[v] == r and r > 0:
            raise NotSymmetricError("a cut vertex sits at the outermost depth")

    d = 2 * r if parity == "even" else 2 * r + 1
    spec = SymmetricSpec(m, kappa, d)
    return SymmetricCoordinates(
        spec=spec,
        parity=parity,
        roots=roots,
        top_list=tuple(top_list) if parity == "even" else roots,
        depth=tuple(depth),
        branch=tuple(branch),
        path_tuple=tuple(tup),
        children=tuple(children),
        parent=tuple(parent),
    )


def gen_symmetric(spec: SymmetricSpec) -> tuple[BlockGraph, SymmetricCoordinates]:
    """Build the symmetric block graph for spec plus its coordinates."""
    m, kappa, d = spec.block_size, spec.cut_degree, spec.diameter
    n, k, r = spec.n, spec.k, spec.r
    blocks: list[list[int]] = []

    def grow_branch(root: int, start_depth: int, next_id: int) -> int:
        current = [root]
        for _ in range(start_depth, r + 1):
            nxt: list[int] = []
            for par in current:
                child_blocks: list[list[int]] = [[par] for _ in range(k)]
                for i in range(k * n):
                    child_blocks[i % k].append(next_id)
                    nxt.append(next_id)
                    next_id += 1
                blocks.extend(child_blocks)
            current = nxt
        return next_id

    if d % 2 == 0:
        top_blocks: list[list[int]] = [[0] for _ in range(kappa)]
        next_id = 1
        depth1: list[int] = []
        for t in range(kappa * n):
            top_blocks[t % kappa].append(next_id)
            depth1.append(next_id)
            next_id += 1
        blocks.extend(top_blocks)
        for root in depth1:
            next_id = grow_branch(root, 2, next_id)
    else:
        blocks.append(list(range(m)))
        next_id = m
        for c in range(m):
            next_id = grow_branch(c, 1, next_id)

    g = BlockGraph(
        next_id,
        blocks,
        meta={"family": "symmetric", "block_size": m, "cut_degree": kappa, "diameter": d},
    )
    coords = symmetric_coordinates(g)
    if coords.spec != spec:
        raise AssertionError(f"generator produced {coords.spec}, wanted {spec}")
    return g, coords


def gen_union(n: int, k: int) -> BlockGraph:
    """One-point union of k complete graphs K_n sharing vertex 0."""
    if n < 2 or k < 2:
        raise InvalidSpecError(f"union needs block size >= 2 and >= 2 copies, got ({n}, {k})")
    blocks = []
    nxt = 1
    for _ in range(k):
        blocks.append([0] + list(range(nxt, nxt + n - 1)))
        nxt += n - 1
    return BlockGraph(nxt, blocks, meta={"family": "union", "n": n, "k": k})


def gen_path(p: int) -> BlockGraph:
    """Path on p vertices as a chain of edge blocks."""
    if p < 2:
        raise InvalidSpecError(f"a path needs >= 2 vertices, got {p}")
    return BlockGraph(
        p, [[i, i + 1] for i in range(p - 1)], meta={"family": "path", "p": p}
    )


def gen_star(leaves: int) -> BlockGraph:
    """Star with the given number of leaves around hub 0."""
    if leaves < 2:
        raise InvalidSpecError(f"a star needs >= 2 leaves, got {leaves}")
    return BlockGraph(
        leaves + 1,
        [[0, i] for i in range(1, leaves + 1)],
        meta={"family": "star", "leaves": leaves},
    )


def gen_random_block_graph(
    seed: int,
    max_p: int,
    max_block_size: int = 5,
    max_blocks_per_cut: int = 3,
) -> BlockGraph:
    """Grow a random block-cut tree; valid by construction and seed-deterministic.

    Covers single-block graphs (first block takes everything), tree-like
    shapes (all edge blocks) and mixed shapes in between.
    """
    if max_p < 2:
        raise InvalidSpecError(f"max_p must be >= 2, got {max_p}")
    rng = random.Random(seed)
    target = rng.randint(2, max_p)
    first = rng.randint(2, min(max_block_size, target))
    blocks = [list(range(first))]
    blocks_at = [1] * first
    p = first
    while p < target:
        size = rng.randint(2, min(max_block_size, target - p + 1))
        candidates = [v for v in range(p) if blocks_at[v] < max_blocks_per_cut]
        attach = rng.choice(candidates) if candidates else rng.randrange(p)
        blocks.append([attach] + list(range(p, p + size - 1)))
        blocks_at[attach] += 1
        blocks_at.extend([1] * (size - 1))
        p += size - 1
    return BlockGraph(p, blocks, meta={"family": "random", "seed": seed})
