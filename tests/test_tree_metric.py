"""The tree-metric core and the windowed checks built on it, against
brute-force references kept here."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcolor import (
    BlockGraph,
    SymmetricSpec,
    blocks_on_path,
    brute_longest_path,
    detour_distance,
    detour_matrix,
    detour_profile,
    gen_path,
    gen_random_block_graph,
    gen_symmetric,
    greedy_min_coloring_for_ordering,
    greedy_ordering,
    validate_coloring,
)
from hamcolor.detour import TreeMetric, tree_metric


def _all_pairs_violations(g, colors) -> list[tuple[int, int, int]]:
    """Reference checker: every pair, distances from the block path."""
    out = []
    for u in range(g.p):
        for v in range(u + 1, g.p):
            d = sum(len(g.blocks[bi]) - 1 for bi in blocks_on_path(g, u, v))
            deficit = g.p - 1 - d - abs(colors[u] - colors[v])
            if deficit > 0:
                out.append((u, v, deficit))
    return out


def _quadratic_greedy(g, order) -> tuple[int, ...]:
    """Reference greedy: each next color against every placed vertex."""
    d = detour_matrix(g)
    colors = [0] * g.p
    for i in range(1, g.p):
        v = order[i]
        colors[v] = max(0, max(colors[u] + g.p - 1 - int(d[u, v]) for u in order[:i]))
    low = min(colors)
    return tuple(c - low for c in colors)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_core_matches_brute_force_and_block_paths(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=9)
    ids = np.arange(g.p)
    d = tree_metric(g).distance(ids[:, None], ids[None, :])
    for u in range(g.p):
        assert d[u, u] == 0
        for v in range(u + 1, g.p):
            on_path = sum(len(g.blocks[bi]) - 1 for bi in blocks_on_path(g, u, v))
            assert d[u, v] == d[v, u] == on_path == brute_longest_path(g, u, v)


def test_core_matches_block_paths_on_larger_graphs() -> None:
    rng = random.Random(7)
    for seed in range(30):
        g = gen_random_block_graph(seed, max_p=300)
        metric = tree_metric(g)
        u = np.array([rng.randrange(g.p) for _ in range(400)])
        v = np.array([rng.randrange(g.p) for _ in range(400)])
        got = metric.distance(u, v)
        for a, b, d in zip(u.tolist(), v.tolist(), got.tolist()):
            want = 0 if a == b else sum(len(g.blocks[bi]) - 1 for bi in blocks_on_path(g, a, b))
            assert d == want == detour_distance(g, a, b)


def test_core_memory_is_one_table_column_per_tree_node() -> None:
    # a path of 50,000 vertices has about 100,000 tree nodes: 17 table rows
    # of one int64 per node take 14 MB, and twice the columns would not fit
    g = gen_path(50_000)
    tracemalloc.start()
    try:
        TreeMetric(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30_000_000


def test_core_is_cached_per_graph() -> None:
    g = gen_random_block_graph(3, max_p=40)
    assert tree_metric(g) is tree_metric(g)


def _colorings(g, seed: int) -> dict[str, list[int]]:
    """A valid coloring, a corrupted one, a coarsened one and an all-equal one."""
    rng = random.Random(seed)
    valid = list(greedy_min_coloring_for_ordering(g, greedy_ordering(g, detour_profile(g))).colors)
    corrupted = list(valid)
    for _ in range(3):
        corrupted[rng.randrange(g.p)] = rng.randrange(max(valid) + 1)
    step = 4 * max(g.p - 2, 1)
    coarsened = [c // step * step for c in valid]
    return {"valid": valid, "corrupted": corrupted, "coarsened": coarsened, "equal": [5] * g.p}


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_windowed_validation_matches_all_pairs(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=40)
    for name, colors in _colorings(g, seed).items():
        want = _all_pairs_violations(g, colors)
        assert validate_coloring(g, colors) == want, name
    assert validate_coloring(g, _colorings(g, seed)["valid"]) == []


def test_windowed_validation_on_symmetric_graph() -> None:
    g, _ = gen_symmetric(SymmetricSpec(3, 3, 4))
    for name, colors in _colorings(g, 1).items():
        assert validate_coloring(g, colors) == _all_pairs_violations(g, colors), name


def test_validation_near_the_int64_limit() -> None:
    g = gen_random_block_graph(5, max_p=12)
    top = 2**63 - 1
    colors = [top - (g.p - 1) * i for i in range(g.p)]
    assert validate_coloring(g, colors) == _all_pairs_violations(g, colors) == []
    colors[0] = colors[1]
    assert validate_coloring(g, colors) == _all_pairs_violations(g, colors) != []


@given(st.integers(0, 10_000), st.integers(0, 1_000))
@settings(max_examples=40, deadline=None)
def test_windowed_greedy_matches_quadratic_reference(seed: int, shuffle_seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=40)
    order = list(range(g.p))
    random.Random(shuffle_seed).shuffle(order)
    want = _quadratic_greedy(g, order)
    assert greedy_min_coloring_for_ordering(g, order).colors == want


def test_windowed_greedy_matches_reference_on_greedy_ordering() -> None:
    for seed in range(20):
        g = gen_random_block_graph(seed, max_p=200)
        order = greedy_ordering(g, detour_profile(g))
        assert greedy_min_coloring_for_ordering(g, order).colors == _quadratic_greedy(g, order)


def test_all_equal_coloring_memory_is_bounded() -> None:
    # every one of the ~2 million pairs of K_2000 is a candidate and none
    # violates; unchunked, the candidate arrays alone would take ~100 MB
    g = BlockGraph(2000, [range(2000)])
    tree_metric(g)
    tracemalloc.start()
    try:
        assert validate_coloring(g, [0] * g.p) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000
