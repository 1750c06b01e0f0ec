from __future__ import annotations

import re
import tracemalloc
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from conftest import block_paths, cut_vertices, neighbours, relabeled, vertex_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcolor import (
    BlockGraph,
    DetourProfile,
    InvalidSpecError,
    SameVertexError,
    SymmetricSpec,
    branch_relation,
    brute_longest_path,
    detour_distance,
    detour_matrix,
    detour_profile,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
)


def bfs_distance(g, source: int) -> list[int]:
    adj = neighbours(g)
    dist = [-1] * g.p
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_detour_distance_across_union() -> None:
    g = gen_union(4, 2)
    assert detour_distance(g, 0, 0) == 0
    assert detour_distance(g, 1, 4) == 6  # spans both cliques, p - 1
    assert detour_distance(g, 1, 2) == 3
    assert detour_distance(g, 3, 0) == 3


def branch_relation_of(g, u: int, v: int) -> str:
    return branch_relation(g, detour_profile(g), u, v)


@pytest.mark.parametrize("query", [detour_distance, brute_longest_path, branch_relation_of])
@pytest.mark.parametrize("bad", [-1, 5, 10**12])
def test_out_of_range_vertex_ids_are_rejected(query, bad: int) -> None:
    # indexing would wrap -1 to the last vertex and fail on 5 with a bare
    # IndexError; brute_longest_path answered -1 for an id past the end
    g = gen_path(5)
    for u, v in ((bad, 0), (0, bad), (bad, bad)):
        with pytest.raises(InvalidSpecError, match=f"vertex id {bad} "):
            query(g, u, v)
    assert detour_distance(g, 4, 0) == 4 and detour_distance(g, 2, 2) == 0


@pytest.mark.parametrize("query", [detour_distance, brute_longest_path, branch_relation_of])
def test_non_integer_vertex_ids_are_rejected(query) -> None:
    # a float raised a bare TypeError or IndexError, or brute_longest_path
    # answered as if it were the integer it equals
    g = gen_path(5)
    for bad in (0.5, 2.0, True, np.float64(1.0), "1", None):
        message = f"^vertex id {re.escape(repr(bad))} is not an integer$"
        for u, v in ((bad, 0), (0, bad)):
            with pytest.raises(InvalidSpecError, match=message):
                query(g, u, v)
    assert detour_distance(g, np.int32(4), np.uint8(0)) == 4


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_detour_distance_matches_brute_force(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=8)
    for u in range(g.p):
        for v in range(u, g.p):
            assert detour_distance(g, u, v) == brute_longest_path(g, u, v)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_detour_distance_is_a_metric(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=9)
    d = detour_matrix(g)
    for u in range(g.p):
        assert d[u][u] == 0
        for v in range(u + 1, g.p):
            assert 0 < d[u][v] == d[v][u] <= g.p - 1
    for u, v, w in combinations(range(g.p), 3):
        assert d[u][w] <= d[u][v] + d[v][w]


def test_detour_equals_shortest_path_on_paths() -> None:
    g = gen_path(7)
    for u in range(g.p):
        dist = bfs_distance(g, u)
        for v in range(g.p):
            assert detour_distance(g, u, v) == dist[v]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_detour_equals_shortest_path_on_trees(seed: int) -> None:
    # all blocks of size 2 leave a unique path between any pair
    g = gen_random_block_graph(seed, max_p=9, max_block_size=2)
    assert all(len(b) == 2 for b in g.blocks)
    for u in range(g.p):
        dist = bfs_distance(g, u)
        for v in range(g.p):
            assert detour_distance(g, u, v) == dist[v]


def test_detour_matrix_agrees_with_pairwise() -> None:
    for g in (gen_union(3, 3), gen_path(6), gen_symmetric(SymmetricSpec(3, 2, 4))[0]):
        d = detour_matrix(g)
        for u in range(g.p):
            for v in range(g.p):
                assert d[u][v] == detour_distance(g, u, v)


def test_center_even_diameter_is_single_vertex() -> None:
    g, _ = gen_symmetric(SymmetricSpec(4, 2, 4))
    profile = detour_profile(g)
    assert profile.center == (0,) and profile.omega == 1


def test_center_odd_diameter_is_central_block() -> None:
    g, _ = gen_symmetric(SymmetricSpec(4, 2, 5))
    profile = detour_profile(g)
    assert profile.center == (0, 1, 2, 3) and profile.omega == 4


def test_center_of_complete_graph_is_everything() -> None:
    g = BlockGraph(6, [range(6)])
    profile = detour_profile(g)
    assert profile.omega == 6 and profile.center == tuple(range(6))


def test_center_lies_in_one_block(corpus) -> None:
    for g in corpus[:80]:
        profile = detour_profile(g)
        incidence = vertex_blocks(g)
        shared = set(incidence[profile.center[0]])
        for w in profile.center[1:]:
            shared &= set(incidence[w])
        assert shared


def _reference_profile(g) -> DetourProfile:
    """The profile by definition, from the full detour matrix."""
    d = detour_matrix(g)
    ecc = d.max(axis=1)
    center = tuple(v for v in range(g.p) if ecc[v] == ecc.min())
    level = d[:, center].min(axis=1)
    paths = {w: block_paths(g, w) for w in center}
    owner = [-1] * g.p
    owner_block = [-1] * g.p
    for v in range(g.p):
        if v not in center:
            (owner[v],) = (w for w in center if d[w, v] == level[v])
            owner_block[v] = paths[owner[v]][v][0]
    omega = len(center)
    xi = min(len(g.blocks[b]) - 1 for b in vertex_blocks(g)[center[0]]) if omega == 1 else 0
    return DetourProfile(
        center=center,
        omega=omega,
        xi=xi,
        level=tuple(level.tolist()),
        total_level=int(level.sum()),
        owner=tuple(owner),
        owner_block=tuple(owner_block),
    )


def test_profile_matches_reference_and_center_is_a_cut_vertex_or_a_block() -> None:
    shapes = [(5, 3), (2, 2), (3, 6), (6, 2)]
    graphs = [
        gen_random_block_graph(seed, 14, *shapes[seed % len(shapes)]) for seed in range(3000)
    ]
    graphs += [gen_random_block_graph(seed, 200, *shapes[seed % len(shapes)]) for seed in range(60)]
    graphs += [BlockGraph(n, [range(n)]) for n in range(2, 7)]
    graphs += [gen_path(n) for n in range(2, 10)] + [gen_star(n) for n in range(2, 7)]
    graphs += [gen_union(n, k) for n in range(2, 5) for k in range(2, 5)]
    graphs += [
        gen_symmetric(SymmetricSpec(*spec))[0]
        for spec in ((4, 2, 4), (4, 2, 5), (3, 2, 3), (3, 3, 3), (2, 3, 4))
    ]
    # K_m with a pendant edge at every vertex: the center is the whole K_m
    graphs += [BlockGraph(2 * m, [range(m)] + [[v, m + v] for v in range(m)]) for m in range(2, 30)]
    graphs += [relabeled(g, seed) for seed, g in enumerate(graphs[::7])]
    # the center block below block node 0, and a central cut vertex outside block 0
    lifted_block = lifted_cut = 0
    for g in graphs:
        profile = detour_profile(g)
        assert profile == _reference_profile(g), g
        if profile.omega == 1:
            assert profile.center[0] in cut_vertices(g)
            lifted_cut += profile.center[0] not in g.blocks[0]
        else:
            assert profile.center in (g.blocks[b] for b in vertex_blocks(g)[profile.center[0]])
            lifted_block += profile.center != g.blocks[0]
    assert lifted_block >= 200 and lifted_cut >= 200, (lifted_block, lifted_cut)


def _traced(g) -> tuple[DetourProfile, int, int]:
    """The profile of a fresh graph, with the bytes it kept and its peak."""
    tracemalloc.start()
    try:
        profile = detour_profile(g)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return profile, retained, peak


def test_profile_memory_is_a_few_rows_of_shared_ints() -> None:
    detour_profile(gen_path(9))
    detour_profile(gen_path(10))  # numpy's first-call caches stay out of the counts
    # Built by Python walks of the tree with per-node lists, the profile
    # peaked at 579,705 and 8,635,100 bytes on these graphs and kept 132,457
    # on the first; the bounds sit between those and what it takes now.
    sym = relabeled(gen_symmetric(SymmetricSpec(5, 5, 6))[0], 1)
    profile, retained, peak = _traced(sym)
    assert sym.p == 5461 and peak < 530_000, peak
    # what it keeps is its three int32 rows, 4 bytes per vertex each; as
    # tuples of shared ints they kept 24 bytes per vertex and 1,100 more
    rows = (profile.level, profile.owner, profile.owner_block)
    assert all(row.nbytes == 4 * sym.p for row in rows)
    assert retained < 12 * sym.p + 1_500, retained
    assert _traced(gen_path(20_000))[2] < 7_500_000


def test_xi_values() -> None:
    g4, _ = gen_symmetric(SymmetricSpec(4, 2, 4))
    assert detour_profile(g4).xi == 3
    g5, _ = gen_symmetric(SymmetricSpec(4, 2, 5))
    assert detour_profile(g5).xi == 0
    star = gen_star(3)
    assert detour_profile(star).xi == 1


def test_levels_even_case() -> None:
    g, _ = gen_symmetric(SymmetricSpec(4, 2, 4))
    profile = detour_profile(g)
    # direct-summation oracle: min detour distance to the center per vertex
    direct = [min(detour_distance(g, w, u) for w in profile.center) for u in range(g.p)]
    assert list(profile.level) == direct
    assert sorted(direct).count(3) == 6 and sorted(direct).count(6) == 18
    assert profile.total_level == sum(direct) == 126
    assert profile.level[profile.center[0]] == 0


def test_levels_odd_case() -> None:
    g, _ = gen_symmetric(SymmetricSpec(4, 2, 5))
    profile = detour_profile(g)
    direct = [min(detour_distance(g, w, u) for w in profile.center) for u in range(g.p)]
    assert list(profile.level) == direct
    assert profile.total_level == 12 * 3 + 36 * 6 == 252


def test_profile_level_zero_iff_central(corpus) -> None:
    for g in corpus[:60]:
        profile = detour_profile(g)
        for v in range(g.p):
            assert (profile.level[v] == 0) == (v in profile.center)
        assert profile.total_level == sum(profile.level)
        if profile.omega >= 2:
            assert profile.xi == 0


def test_branch_relations_union() -> None:
    g = gen_union(4, 2)
    profile = detour_profile(g)
    assert branch_relation(g, profile, 1, 4) == "different"
    assert branch_relation(g, profile, 1, 2) == "same"
    assert branch_relation(g, profile, 0, 5) == "involves_central"


def test_branch_relation_needs_distinct_vertices() -> None:
    g = gen_path(4)
    with pytest.raises(SameVertexError):
        branch_relation(g, detour_profile(g), 2, 2)


def test_branch_relations_odd_symmetric() -> None:
    g, coords = gen_symmetric(SymmetricSpec(4, 2, 5))
    profile = detour_profile(g)
    under_first = next(v for v in range(g.p) if profile.owner[v] == 0)
    under_second = next(v for v in range(g.p) if profile.owner[v] == 1)
    assert branch_relation(g, profile, under_first, under_second) == "opposite"
    assert branch_relation(g, profile, 0, under_second) == "involves_central"


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_detour_inequality_and_equality_direction(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=9)
    profile = detour_profile(g)
    for u in range(g.p):
        for v in range(u + 1, g.p):
            d = detour_distance(g, u, v)
            cap = profile.level[u] + profile.level[v] + profile.omega - 1
            assert d <= cap
            rel = branch_relation(g, profile, u, v)
            if (rel == "different" and profile.omega == 1) or (
                rel == "opposite" and profile.omega >= 2
            ):
                assert d == cap
