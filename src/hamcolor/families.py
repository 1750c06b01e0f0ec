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
from .graphs import _ID_DTYPE, BlockGraph, _check_member_count, block_index, check_integer


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
    The vertices of ``top_list`` are the roots of the interleaving streams.

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
    parity: str
    roots: tuple[int, ...]
    top_list: tuple[int, ...]
    children: np.ndarray
    child_row: np.ndarray

    def __post_init__(self):
        for a in (self.children, self.child_row):
            a.flags.writeable = False


def symmetric_coordinates(g: BlockGraph) -> SymmetricCoordinates:
    """Derive canonical coordinates from the structure of g.

    Works for any vertex labeling; raises NotSymmetricError when g is not
    a symmetric block graph with at least two blocks.  Block sizes and
    cut degrees are checked before g's cached :func:`detour_profile` is
    asked for the center and the levels.

    Everything is computed on arrays, with one sort of the blocks by
    parent.  With one block size m, a vertex's depth is its level divided
    by m - 1.  In every non-central block the parent is the one member of
    least depth and the others sit one level deeper; sorting those blocks
    by parent stably gives each parent its k child blocks as one row of
    ``children``.
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
    top = np.zeros(len(members), dtype=bool)  # the center's blocks, no parent's children
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
        top[central] = True
    else:
        raise NotSymmetricError(
            f"detour center has {profile.omega} vertices; expected 1 or {m}"
        )

    depth = profile.level // n
    r = int(depth.max())
    outer = depth == r
    if not (outer | is_cut).all():
        raise NotSymmetricError("end vertices sit at unequal depths")
    if r > 0 and (outer & is_cut).any():
        raise NotSymmetricError("a cut vertex sits at the outermost depth")
    del is_cut, outer

    rise = depth[members]
    del depth
    rise -= rise.min(axis=1, keepdims=True)
    if not ((rise <= 1).all() and (top | (rise.sum(axis=1) == n)).all()):
        raise NotSymmetricError("block layers overlap")
    up = members[np.arange(len(members)), rise.argmin(axis=1)]
    is_child = rise.astype(bool)
    del rise
    if parity == "even":
        top = up == roots[0]
        hub = members[top][is_child[top]].reshape(kappa, n)
        top_list = tuple(hub.T.ravel().tolist())
    else:
        top_list = roots
    rows = np.flatnonzero(~top)
    rows = rows[np.argsort(up[rows], kind="stable")]
    children = members[rows][is_child[rows]].reshape(-1, kappa - 1, n)
    child_row = np.full(g.p, -1, dtype=_ID_DTYPE)
    child_row[up[rows[:: kappa - 1]]] = np.arange(len(children))

    d = 2 * r if parity == "even" else 2 * r + 1
    return SymmetricCoordinates(
        spec=SymmetricSpec(m, kappa, d),
        parity=parity,
        roots=roots,
        top_list=top_list,
        children=children,
        child_row=child_row,
    )


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
