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
from .graphs import BlockGraph, block_index, check_integer


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

    ``roots`` are the ordering endpoints (the center for even diameter,
    the central block for odd); ``top_list`` is the even-diameter
    depth-1 list in round-robin block order (equals ``roots`` when odd).

    The per-vertex coordinates are read-only integer arrays.  ``depth[v]``
    counts the blocks between v and the center.  ``parent[v]`` is the
    vertex v hangs from and ``index[v]`` its place among that vertex's
    children, which take the child blocks round-robin; both are -1 at
    the roots.  ``branch[v]`` is the 1-based index of the interleaving
    stream v belongs to, 0 for the even-diameter center.  ``rename[v]``
    is v's 1-based number when its branch's descendants are renamed for
    :func:`hamcolor.coloring.sym_ordering`, and 0 when v is a root or on
    the top list.  The arrays are read-only; records compare by identity.
    """

    spec: SymmetricSpec
    parity: str
    roots: tuple[int, ...]
    top_list: tuple[int, ...]
    depth: np.ndarray
    branch: np.ndarray
    parent: np.ndarray
    index: np.ndarray
    rename: np.ndarray

    def __post_init__(self):
        for a in (self.depth, self.branch, self.parent, self.index, self.rename):
            a.flags.writeable = False


def symmetric_coordinates(g: BlockGraph) -> SymmetricCoordinates:
    """Derive canonical coordinates from the structure of g.

    Works for any vertex labeling; raises NotSymmetricError when g is not
    a symmetric block graph with at least two blocks.  Block sizes and
    cut degrees are checked before g's cached :func:`detour_profile` is
    asked for the center and the levels.

    Everything is computed on arrays, in O(p log r) for radius r.  With
    one block size m, a vertex's depth is its level divided by m - 1.  In
    every non-central block the parent is the one member of least depth
    and the others sit one level deeper.  A child's index is its rank
    among its block's non-parent members times the parent's number of
    child blocks, plus its block's rank among them.  Streams and renamed
    numbers sum along the parent chains by pointer doubling.
    """
    sizes = np.diff(g._starts)
    if len(sizes) < 2:
        raise NotSymmetricError("a symmetric block graph has at least two blocks")
    m = int(sizes[0])
    if (sizes != m).any():
        raise NotSymmetricError(f"blocks have mixed sizes {sorted(set(sizes.tolist()))}")
    n = m - 1
    members = g._members.reshape(-1, m)
    degree = np.bincount(members.ravel(), minlength=g.p)
    is_cut = degree >= 2
    degrees = set(degree[is_cut].tolist())
    del degree
    if len(degrees) != 1:
        raise NotSymmetricError(f"cut vertices have mixed block degrees {sorted(degrees)}")
    kappa = degrees.pop()

    profile = detour_profile(g)
    if profile.omega == 1:
        parity = "even"
        roots = (profile.center[0],)
        if not is_cut[roots[0]]:
            raise NotSymmetricError("even-diameter center must be a cut vertex")
    elif profile.omega == m:
        parity = "odd"
        roots = tuple(sorted(profile.center))
        central = block_index(g, roots)
        if central < 0:
            raise NotSymmetricError("detour center is not a whole block")
        if not is_cut[list(roots)].all():
            raise NotSymmetricError("every central vertex must carry its own branches")
        members = np.delete(members, central, axis=0)
    else:
        raise NotSymmetricError(
            f"detour center has {profile.omega} vertices; expected 1 or {m}"
        )

    depth = np.fromiter(profile.level, dtype=np.intp, count=g.p) // n
    r = int(depth.max())
    if (depth[~is_cut] != r).any():
        raise NotSymmetricError("end vertices sit at unequal depths")
    if r > 0 and (depth[is_cut] == r).any():
        raise NotSymmetricError("a cut vertex sits at the outermost depth")
    del is_cut

    # members[b, col[b]] is block b's parent; the other columns hold its children
    rise = depth[members] - depth[members].min(axis=1, keepdims=True)
    if not ((rise <= 1).all() and (rise.sum(axis=1) == n).all()):
        raise NotSymmetricError("block layers overlap")
    col = rise.argmin(axis=1)
    del rise
    up = members[np.arange(len(members)), col]
    by_parent = np.argsort(up, kind="stable")
    block_rank = np.empty_like(by_parent)
    block_rank[by_parent] = np.arange(len(up)) - np.searchsorted(up[by_parent], up[by_parent])
    width = np.bincount(up, minlength=g.p)[up]
    # a child's rank among its block's non-parent members; their columns skip col
    member_rank = np.arange(n)[None, :]
    kids = np.take_along_axis(members, member_rank + (member_rank >= col[:, None]), axis=1)
    del members
    parent = np.full(g.p, -1)
    index = np.full(g.p, -1)
    parent[kids] = up[:, None]
    index[kids] = member_rank * width[:, None] + block_rank[:, None]
    del kids

    # Stream roots sit at depth lift.  Each v below its stream's root adds the
    # digit index[v] at place x**(depth[v] - lift - 1) to its renamed number,
    # so the first index is the least significant.
    x = (kappa - 1) * n
    lift = 1 if parity == "even" else 0
    longest = max(r - lift, 0)
    stream_root = depth <= lift
    total = np.where(stream_root, 0, index * x ** np.maximum(depth - (lift + 1), 0))
    up_to = np.where(stream_root, np.arange(g.p), parent)
    for _ in range(longest.bit_length()):
        total += total[up_to]
        up_to = up_to[up_to]
    if parity == "even":
        top = np.flatnonzero(parent == roots[0])
        top_list = tuple(top[np.argsort(index[top])].tolist())
        branch = index[up_to]  # a depth-1 root's index, and -1 at the center
    else:
        top_list = roots
        branch = np.searchsorted(roots, up_to)
    branch += 1
    del up_to
    # deeper groups come first: at depth d the numbers start after the
    # stream's descendants below d, which ahead[d] - 1 counts
    powers = x ** np.arange(longest + 1)
    ahead = np.pad(np.cumsum(powers[::-1])[::-1][1:], (lift, 1)) + 1
    total += ahead[depth]  # the renamed numbers, in place
    total[stream_root] = 0

    d = 2 * r if parity == "even" else 2 * r + 1
    return SymmetricCoordinates(
        spec=SymmetricSpec(m, kappa, d),
        parity=parity,
        roots=roots,
        top_list=top_list,
        depth=depth,
        branch=branch,
        parent=parent,
        index=index,
        rename=total,
    )


def gen_symmetric(spec: SymmetricSpec) -> tuple[BlockGraph, SymmetricCoordinates]:
    """Build the symmetric block graph for spec plus its coordinates.

    The (blocks x m) member array is written in closed form: a branch with P
    parents takes the kn * P ids from its base; its parents are its root and
    then ``base .. base + P - 2``, and parent t's child block j holds ``base +
    t*k*n + j + k*i`` for i < n.  Rows ascend, so sorting them by their first
    two members makes the array canonical.
    """
    m, kappa, d = spec.block_size, spec.cut_degree, spec.diameter
    n, k, r = spec.n, spec.k, spec.r
    kn = k * n
    if d % 2 == 0:
        head = np.zeros((kappa, m), dtype=np.intp)  # the hub's blocks, round robin
        head[:, 1:] = 1 + np.arange(kappa)[:, None] + kappa * np.arange(n)
        roots, levels = np.arange(1, kappa * n + 1), r - 1
    else:
        head = np.arange(m)[None, :]  # the central block
        roots, levels = np.arange(m), r
    parents = sum(kn**level for level in range(levels))  # P, per branch
    first = int(head.max()) + 1  # the first branch's base
    base = first + kn * parents * np.arange(len(roots))
    p = first + kn * parents * len(roots)
    branch = np.empty((len(roots), parents, k, m), dtype=np.intp)
    t, j, i = kn * np.arange(parents)[:, None, None], np.arange(k)[:, None], k * np.arange(n)
    branch[..., 1:] = base[:, None, None, None] + (t + j + i)
    up = base[:, None] + np.arange(-1, parents - 1)
    up[:, :1] = roots[:, None]
    branch[..., 0] = up[:, :, None]
    rows = np.concatenate((head, branch.reshape(-1, m)))
    del branch
    rows = rows[np.argsort(rows[:, 0] * p + rows[:, 1], kind="stable")]
    meta = {"family": "symmetric", "block_size": m, "cut_degree": kappa, "diameter": d}
    g = BlockGraph._from_members(p, rows.ravel(), np.arange(0, rows.size + 1, m), meta)
    coords = symmetric_coordinates(g)
    if coords.spec != spec:
        raise AssertionError(f"generator produced {coords.spec}, wanted {spec}")
    return g, coords


def _pairs(p: int, firsts: np.ndarray, meta: dict) -> BlockGraph:
    """The graph whose blocks are the edges {firsts[i], i + 1}, each first below its second."""
    members = np.empty((p - 1, 2), dtype=np.intp)
    members[:, 0] = firsts
    members[:, 1] = np.arange(1, p)
    return BlockGraph._from_members(p, members.ravel(), np.arange(0, 2 * p - 1, 2), meta)


def gen_union(n: int, k: int) -> BlockGraph:
    """One-point union of k complete graphs K_n sharing vertex 0."""
    n, k = check_integer(n, "block size"), check_integer(k, "copy count")
    if n < 2 or k < 2:
        raise InvalidSpecError(f"union needs block size >= 2 and >= 2 copies, got ({n}, {k})")
    p = 1 + k * (n - 1)
    members = np.zeros((k, n), dtype=np.intp)
    members[:, 1:] = np.arange(1, p).reshape(k, n - 1)
    return BlockGraph._from_members(
        p, members.ravel(), np.arange(0, k * n + 1, n), {"family": "union", "n": n, "k": k}
    )


def gen_path(p: int) -> BlockGraph:
    """Path on p vertices as a chain of edge blocks."""
    p = check_integer(p, "vertex count")
    if p < 2:
        raise InvalidSpecError(f"a path needs >= 2 vertices, got {p}")
    return _pairs(p, np.arange(p - 1), {"family": "path", "p": p})


def gen_star(leaves: int) -> BlockGraph:
    """Star with the given number of leaves around hub 0."""
    leaves = check_integer(leaves, "leaf count")
    if leaves < 2:
        raise InvalidSpecError(f"a star needs >= 2 leaves, got {leaves}")
    return _pairs(leaves + 1, 0, {"family": "star", "leaves": leaves})


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
