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
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .detour import detour_profile
from .errors import InvalidSpecError, NotSymmetricError
from .graphs import _ID_DTYPE, BlockGraph, _check_member_count, check_integer


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
        for name in ("block_size", "cut_degree", "diameter"):
            what = name.replace("_", " ")
            value = check_integer(getattr(self, name), what)
            if value < 2:
                raise InvalidSpecError(f"{what} must be >= 2, got {value}")
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True, eq=False)
class SymmetricCoordinates:
    """Canonical coordinates of a symmetric block graph's vertices.

    ``top_list`` holds the roots of the interleaving streams: the
    even-diameter depth-1 list in round-robin block order, or the central
    block when the diameter is odd.  The center itself is the graph's
    ``detour_profile(g).center``.

    ``children`` is a read-only (parents x k x n) array: each row holds one
    vertex's k child blocks in canonical order, with that vertex removed
    from each block.  A vertex's children take the child blocks round-robin,
    so its child i is member ``i // k`` of block ``i % k``.  ``child_row[v]``
    is v's row in ``children``, and -1 when v has no child blocks (the
    outermost depth) or is the even-diameter center, whose kappa blocks give
    ``top_list`` the same way.  Both arrays are int32.  Records compare by
    identity.
    """

    spec: SymmetricSpec
    top_list: tuple[int, ...]
    children: np.ndarray
    child_row: np.ndarray

    def __post_init__(self):
        for a in (self.children, self.child_row):
            a.flags.writeable = False


def symmetric_coordinates(g: BlockGraph) -> SymmetricCoordinates:
    """Derive canonical coordinates from the structure of g.

    Works for any vertex labeling; raises NotSymmetricError when g is not
    a symmetric block graph with at least two blocks.  Block sizes, and the
    cut degrees that the block-cut tree holds, are checked before g's
    cached :func:`detour_profile` is asked for the center and the levels.

    With one block size m, detour distances are multiples of n = m - 1 and
    a vertex's depth is its level divided by n.  Each non-central block's
    parent is its one shallowest member; sorting those blocks by parent
    stably gives each parent its k child blocks as one row of ``children``.

    On the profile only two checks can fail: a central vertex that is no
    cut vertex, and an end vertex above the outermost depth.  The rest hold
    once sizes and degrees agree.  An omega = 1 center is a cut vertex: a
    non-cut vertex w of block B is at least as eccentric as a cut vertex c
    of B, as D(w, x) >= D(c, x) for x != w and D(c, w) = D(w, c), so were w
    central, c would be too.  An omega >= 2 center is one whole block, as
    the profile asserts, so omega = m, and it is the one block with no
    deeper member.  A longest path from the center enters any other block
    at its parent and sweeps it, so the other members sit exactly one depth
    deeper.  And a cut vertex has a child block, so it is never outermost.
    """
    sizes = np.diff(g._starts)
    if len(sizes) < 2:
        raise NotSymmetricError("a symmetric block graph has at least two blocks")
    m = int(sizes[0])
    if (sizes != m).any():
        raise NotSymmetricError(f"blocks have mixed sizes {sorted(set(sizes.tolist()))}")
    n = m - 1
    bct = g.block_cut_tree()
    degree = np.diff(bct.indptr[bct.block_count :])  # of each cut vertex
    kappa = int(degree[0])
    if (degree != kappa).any():
        mixed = sorted(set(degree.tolist()))
        raise NotSymmetricError(f"cut vertices have mixed block degrees {mixed}")

    profile = detour_profile(g)
    is_cut = bct.anchor >= bct.block_count
    if not is_cut[list(profile.center)].all():
        raise NotSymmetricError("every central vertex must carry its own branches")
    depth = profile.level // n
    r = int(depth.max())
    if not (is_cut | (depth == r)).all():
        raise NotSymmetricError("end vertices sit at unequal depths")
    del is_cut

    members = g._members.reshape(-1, m)
    rise = depth[members]
    del depth
    rise -= rise.min(axis=1, keepdims=True)
    up = members[np.arange(len(members)), rise.argmin(axis=1)]
    is_child = rise.astype(bool)
    del rise
    if profile.omega == 1:
        top = up == profile.center[0]
        hub = members[top][is_child[top]].reshape(kappa, n)
        top_list = tuple(hub.T.ravel().tolist())
    else:
        top = ~is_child.any(axis=1)
        top_list = profile.center
    rows = np.flatnonzero(~top)
    rows = rows[np.argsort(up[rows], kind="stable")]
    children = members[rows][is_child[rows]].reshape(-1, kappa - 1, n)
    child_row = np.full(g.p, -1, dtype=_ID_DTYPE)
    child_row[up[rows[:: kappa - 1]]] = np.arange(len(children))

    spec = SymmetricSpec(m, kappa, 2 * r + (profile.omega > 1))
    return SymmetricCoordinates(spec, top_list, children, child_row)


def gen_symmetric(spec: SymmetricSpec) -> tuple[BlockGraph, SymmetricCoordinates]:
    """Build the symmetric block graph for spec plus its coordinates.

    The (blocks x m) member array is written in closed form: a branch with P
    parents takes the kn * P ids from its base; its parents are its root and
    then ``base .. base + P - 2``, and parent t's child block j holds ``base +
    t*k*n + j + k*i`` for i < n.  Rows ascend, so sorting them by their first
    two members makes the array canonical.  Ids are written as int32, and
    the sort key is formed in int64: a first member times p passes 2**31
    from p = 46,341.
    """
    m, kappa, d = spec.block_size, spec.cut_degree, spec.diameter
    n, k, r = spec.n, spec.k, spec.r
    kn = k * n
    if d % 2 == 0:
        head = np.zeros((kappa, m), dtype=_ID_DTYPE)  # the hub's blocks, round robin
        head[:, 1:] = 1 + np.arange(kappa)[:, None] + kappa * np.arange(n)
        roots, levels = np.arange(1, kappa * n + 1), r - 1
    else:
        head = np.arange(m, dtype=_ID_DTYPE)[None, :]  # the central block
        roots, levels = np.arange(m), r
    parents = sum(kn**level for level in range(levels))  # P, per branch
    _check_member_count((len(head) + len(roots) * parents * k) * m)  # before any int32 arithmetic
    first = int(head.max()) + 1  # the first branch's base
    base = first + kn * parents * np.arange(len(roots), dtype=_ID_DTYPE)
    p = first + kn * parents * len(roots)
    branch = np.empty((len(roots), parents, k, m), dtype=_ID_DTYPE)
    t = kn * np.arange(parents, dtype=_ID_DTYPE)[:, None, None]
    j, i = np.arange(k, dtype=_ID_DTYPE)[:, None], k * np.arange(n, dtype=_ID_DTYPE)
    branch[..., 1:] = base[:, None, None, None] + (t + j + i)
    up = base[:, None] + np.arange(-1, parents - 1)
    up[:, :1] = roots[:, None]
    branch[..., 0] = up[:, :, None]
    rows = np.concatenate((head, branch.reshape(-1, m)))
    del branch
    rows = rows[np.argsort(rows[:, 0].astype(np.int64) * p + rows[:, 1], kind="stable")]
    meta = {"family": "symmetric", "block_size": m, "cut_degree": kappa, "diameter": d}
    g = BlockGraph._from_members(p, rows.ravel(), np.arange(0, rows.size + 1, m), meta)
    coords = symmetric_coordinates(g)
    if coords.spec != spec:
        raise AssertionError(f"generator produced {coords.spec}, wanted {spec}")
    return g, coords


def _pairs(p: int, hub: bool, meta: dict) -> BlockGraph:
    """The graph whose blocks are the edges {0, i} (hub) or {i - 1, i}, for i in 1..p-1."""
    _check_member_count(2 * (p - 1))
    members = np.empty((p - 1, 2), dtype=_ID_DTYPE)
    members[:, 1] = np.arange(1, p, dtype=_ID_DTYPE)
    members[:, 0] = 0 if hub else members[:, 1] - 1
    return BlockGraph._from_members(p, members.ravel(), np.arange(0, 2 * p - 1, 2), meta)


def gen_union(n: int, k: int) -> BlockGraph:
    """One-point union of k complete graphs K_n sharing vertex 0."""
    n, k = check_integer(n, "block size"), check_integer(k, "copy count")
    if n < 2 or k < 2:
        raise InvalidSpecError(f"union needs block size >= 2 and >= 2 copies, got ({n}, {k})")
    p = 1 + k * (n - 1)
    _check_member_count(k * n)
    members = np.zeros((k, n), dtype=_ID_DTYPE)
    members[:, 1:] = np.arange(1, p, dtype=_ID_DTYPE).reshape(k, n - 1)
    return BlockGraph._from_members(
        p, members.ravel(), np.arange(0, k * n + 1, n), {"family": "union", "n": n, "k": k}
    )


def gen_path(p: int) -> BlockGraph:
    """Path on p vertices as a chain of edge blocks."""
    p = check_integer(p, "vertex count")
    if p < 2:
        raise InvalidSpecError(f"a path needs >= 2 vertices, got {p}")
    return _pairs(p, False, {"family": "path", "p": p})


def gen_star(leaves: int) -> BlockGraph:
    """Star with the given number of leaves around hub 0."""
    leaves = check_integer(leaves, "leaf count")
    if leaves < 2:
        raise InvalidSpecError(f"a star needs >= 2 leaves, got {leaves}")
    return _pairs(leaves + 1, True, {"family": "star", "leaves": leaves})


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
    max_p = check_integer(max_p, "max_p")
    max_block_size = check_integer(max_block_size, "max_block_size")
    max_blocks_per_cut = check_integer(max_blocks_per_cut, "max_blocks_per_cut")
    if max_p < 2:
        raise InvalidSpecError(f"max_p must be >= 2, got {max_p}")
    if max_block_size < 2:
        raise InvalidSpecError(f"max_block_size must be >= 2, got {max_block_size}")
    rng = random.Random(seed)
    target = rng.randint(2, max_p)
    first = rng.randint(2, min(max_block_size, target))
    blocks = [list(range(first))]
    blocks_at = [1] * first
    open_ids = list(range(first)) if max_blocks_per_cut > 1 else []  # ascending, below the cap
    p = first
    while p < target:
        size = rng.randint(2, min(max_block_size, target - p + 1))
        if open_ids:
            attach = rng.choice(open_ids)
            blocks_at[attach] += 1
            if blocks_at[attach] >= max_blocks_per_cut:
                del open_ids[bisect_left(open_ids, attach)]
        else:
            attach = rng.randrange(p)
        blocks.append([attach] + list(range(p, p + size - 1)))
        blocks_at.extend([1] * (size - 1))
        if max_blocks_per_cut > 1:
            open_ids.extend(range(p, p + size - 1))
        p += size - 1
    return BlockGraph(p, blocks, meta={"family": "random", "seed": seed})
