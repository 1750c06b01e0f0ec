from __future__ import annotations

import random
from collections import deque

import pytest

from hamcolor import (
    BlockGraph,
    NotSymmetricError,
    SymmetricSpec,
    detour_profile,
    gen_random_block_graph,
    gen_symmetric,
    sym_order_count,
)

CORPUS_SIZE = 200
CORPUS_MAX_P = 9
GRID_MAX_P = 5000


def grid_specs() -> list[SymmetricSpec]:
    """The acceptance grid: m in 3..5, kappa in 2..4, d in 3..7, plus the
    tree rows (m=2, kappa in 3..4), restricted to graphs with p <= 5000."""
    specs = []
    for m in (3, 4, 5):
        for kappa in (2, 3, 4):
            for d in range(3, 8):
                specs.append(SymmetricSpec(m, kappa, d))
    for kappa in (3, 4):
        for d in range(3, 8):
            specs.append(SymmetricSpec(2, kappa, d))
    return [s for s in specs if sym_order_count(s) <= GRID_MAX_P]


@pytest.fixture(scope="session")
def corpus():
    """The seeded random instance pool used by the oracle suites."""
    return [gen_random_block_graph(seed, max_p=CORPUS_MAX_P) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def grid_instances():
    """(spec, graph, coordinates, profile) for every grid member.

    Construction re-checks the two generator invariants everywhere: the
    closed-form order count matches the literal vertex count and the
    ordinary diameter matches the requested one.
    """
    out = []
    for spec in grid_specs():
        g, coords = gen_symmetric(spec)
        assert g.p == sym_order_count(spec), spec
        assert hop_diameter(g) == spec.diameter, spec
        out.append((spec, g, coords, detour_profile(g)))
    return out


def relabeled(g, seed: int) -> BlockGraph:
    """g with its vertex ids permuted by a seeded shuffle."""
    perm = list(range(g.p))
    random.Random(seed).shuffle(perm)
    return BlockGraph(g.p, [[perm[v] for v in b] for b in g.blocks])


def vertex_blocks(g) -> list[tuple[int, ...]]:
    """Each vertex's block ids, ascending, read from ``g.blocks`` alone."""
    out: list[list[int]] = [[] for _ in range(g.p)]
    for bi, b in enumerate(g.blocks):
        for v in b:
            out[v].append(bi)
    return list(map(tuple, out))


def block_paths(g, source: int) -> list[list[int]]:
    """Per vertex v, the ids of the blocks every source-v path traverses, in order
    from source, and [] for source itself.

    A breadth-first search over the vertex/block incidence graph, a tree on
    a block graph, read from ``g.blocks`` alone.
    """
    incidence = vertex_blocks(g)
    paths: list = [None] * g.p
    paths[source] = []
    seen: set[int] = set()
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for bi in incidence[x]:
            if bi not in seen:
                seen.add(bi)
                for y in g.blocks[bi]:
                    if paths[y] is None:
                        paths[y] = paths[x] + [bi]
                        queue.append(y)
    return paths


def blocks_on_path(g, u: int, v: int) -> list[int]:
    """The ids of the blocks every u-v path traverses, in order from u to v."""
    return block_paths(g, u)[v]


def cut_vertices(g) -> set[int]:
    """The vertices in two or more blocks, read from ``g.blocks`` alone."""
    return {v for v, bs in enumerate(vertex_blocks(g)) if len(bs) > 1}


def neighbours(g) -> list[tuple[int, ...]]:
    """Each vertex's neighbours, ascending, read from ``g.blocks`` alone."""
    out: list[set[int]] = [set() for _ in range(g.p)]
    for b in g.blocks:
        for v in b:
            out[v].update(b)
    return [tuple(sorted(s - {v})) for v, s in enumerate(out)]


def hop_diameter(g) -> int:
    """The ordinary diameter by two breadth-first sweeps, read from ``g.blocks`` alone;
    exact on block graphs, whose hop metric is a tree metric."""
    adj = neighbours(g)

    def farthest(source: int) -> tuple[int, int]:
        dist = [-1] * g.p
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        far = max(range(g.p), key=lambda v: dist[v])
        return far, dist[far]

    a, _ = farthest(0)
    return farthest(a)[1]


def reference_coordinates(g, profile) -> dict:
    """The layer-by-layer derivation the array code replaced, kept as its oracle."""
    if len(g.blocks) < 2:
        raise NotSymmetricError("fewer than two blocks")
    incidence, cuts = vertex_blocks(g), cut_vertices(g)
    sizes = {len(b) for b in g.blocks}
    degrees = {len(incidence[v]) for v in cuts}
    if len(sizes) != 1 or len(degrees) != 1:
        raise NotSymmetricError("mixed sizes or degrees")
    m, kappa = sizes.pop(), degrees.pop()

    def round_robin(member_lists):
        width = len(member_lists)
        return [member_lists[i % width][i // width] for i in range(width * len(member_lists[0]))]

    used: set[int] = set()
    depth = [-1] * g.p
    branch = [0] * g.p
    tup: list[tuple[int, ...]] = [()] * g.p
    children: list[tuple[int, ...]] = [()] * g.p
    parent = [-1] * g.p
    if profile.omega == 1:
        parity = "even"
        w = profile.center[0]
        if w not in cuts:
            raise NotSymmetricError("center is not a cut vertex")
        roots = (w,)
        depth[w] = 0
        top_blocks = sorted(incidence[w])
        top_list = round_robin([[v for v in g.blocks[bi] if v != w] for bi in top_blocks])
        for pos, v in enumerate(top_list, start=1):
            depth[v], branch[v], parent[v] = 1, pos, w
        children[w] = tuple(top_list)
        used.update(top_blocks)
        frontier = list(top_list)
    elif profile.omega == m:
        parity = "odd"
        central = [bi for bi, b in enumerate(g.blocks) if set(b) == set(profile.center)]
        if not central:
            raise NotSymmetricError("center is not a block")
        roots = tuple(sorted(profile.center))
        top_list = list(roots)
        used.add(central[0])
        for pos, c in enumerate(roots, start=1):
            if c not in cuts:
                raise NotSymmetricError("central vertex without branches")
            depth[c], branch[c] = 0, pos
        frontier = list(roots)
    else:
        raise NotSymmetricError("center size")
    while frontier:
        nxt = []
        for v in frontier:
            new_blocks = sorted(bi for bi in incidence[v] if bi not in used)
            if not new_blocks:
                continue
            if len(new_blocks) != kappa - 1:
                raise NotSymmetricError("irregular growth")
            used.update(new_blocks)
            child_list = round_robin([[u for u in g.blocks[bi] if u != v] for bi in new_blocks])
            for i, u in enumerate(child_list):
                if depth[u] >= 0:
                    raise NotSymmetricError("layers overlap")
                depth[u], branch[u], parent[u] = depth[v] + 1, branch[v], v
                tup[u] = tup[v] + (i,)
            children[v] = tuple(child_list)
            nxt.extend(child_list)
        frontier = nxt
    if min(depth) < 0:
        raise NotSymmetricError("unreachable")
    r = max(depth)
    for v in range(g.p):
        if v not in cuts and depth[v] != r:
            raise NotSymmetricError("end vertices at unequal depths")
        if v in cuts and depth[v] == r and r > 0:
            raise NotSymmetricError("cut vertex at the outermost depth")
    return {
        "spec": SymmetricSpec(m, kappa, 2 * r if parity == "even" else 2 * r + 1),
        "parity": parity,
        "roots": roots,
        "top_list": tuple(top_list),
        "depth": tuple(depth),
        "branch": tuple(branch),
        "path_tuple": tuple(tup),
        "children": tuple(children),
        "parent": tuple(parent),
    }
