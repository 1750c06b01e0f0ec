"""The tree-metric core, the windowed checks and the branch-aware greedy
path built on it, against brute-force references kept here."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from conftest import block_paths, blocks_on_path, cut_vertices
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcolor import (
    BlockGraph,
    SymmetricSpec,
    branch_relation,
    brute_longest_path,
    color_graph,
    detour_distance,
    detour_matrix,
    detour_profile,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    greedy_min_coloring_for_ordering,
    greedy_ordering,
    validate_coloring,
)
from hamcolor import coloring
from hamcolor.detour import TreeMetric, branch_keys, tree_metric


def _all_pairs_violations(g, colors) -> list[tuple[int, int, int]]:
    """Reference checker: every pair, distances from the block path."""
    out = []
    for u in range(g.p):
        paths = block_paths(g, u)
        for v in range(u + 1, g.p):
            d = sum(len(g.blocks[bi]) - 1 for bi in paths[v])
            deficit = g.p - 1 - d - abs(colors[u] - colors[v])
            if deficit > 0:
                out.append((u, v, deficit))
    return out


def _quadratic_greedy(g, order) -> tuple[int, ...]:
    """Reference greedy: each next color against every placed vertex."""
    d = detour_matrix(g)
    order = np.asarray(order)
    colors = np.zeros(g.p, dtype=np.int64)
    for i in range(1, g.p):
        v, placed = order[i], order[:i]
        colors[v] = max(0, int((colors[placed] + g.p - 1 - d[placed, v]).max()))
    return tuple((colors - colors.min()).tolist())


def _reference_greedy_ordering(g, profile) -> list[int]:
    """The greedy ordering as first written: a scan of every remaining vertex per step."""
    start = min(profile.center)
    order = [start]
    used = [False] * g.p
    used[start] = True
    remaining = [v for v in range(g.p) if profile.owner[v] != -1]
    remaining.sort(key=lambda v: (-profile.level[v], v))
    while any(not used[v] for v in remaining):
        prev = order[-1]
        best = None
        fallback = None
        for v in remaining:
            if used[v]:
                continue
            if fallback is None:
                fallback = v
            if branch_relation(g, profile, prev, v) in ("different", "opposite"):
                best = v
                break
        pick = best if best is not None else fallback
        order.append(pick)
        used[pick] = True
    for v in sorted(profile.center):
        if not used[v]:
            order.append(v)
            used[v] = True
    return order


def _greedy_corpus() -> list[BlockGraph]:
    """Paths, stars, unions and random graphs with p from 2 to about 600."""
    graphs = [gen_path(n) for n in range(2, 501, 7)]
    graphs += [gen_star(n) for n in range(2, 80, 3)]
    graphs += [gen_union(n, k) for n in range(2, 7) for k in range(2, 6)]
    graphs += [gen_random_block_graph(seed, 5 + 3 * seed) for seed in range(199)]
    graphs += [gen_random_block_graph(seed, 60, 2, 2) for seed in range(20)]
    graphs += [gen_random_block_graph(seed, 120, 7, 4) for seed in range(20)]
    return graphs


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


def test_scalar_query_matches_the_vectorized_one() -> None:
    rng = random.Random(11)
    for seed in range(40):
        g = gen_random_block_graph(seed, max_p=200)
        metric = tree_metric(g)
        pairs = [(rng.randrange(g.p), rng.randrange(g.p)) for _ in range(200)]
        pairs += [(v, v) for v in range(0, g.p, 5)]
        # non-cut members of one block share that block as their anchor
        cuts = cut_vertices(g)
        for b in g.blocks:
            members = [v for v in b if v not in cuts]
            pairs += list(zip(members, members[1:]))
        u, v = map(np.array, zip(*pairs))
        want = metric.distance(u, v).tolist()
        assert [detour_distance(g, a, b) for a, b in pairs] == want
        assert [metric.pair(b, a) for a, b in pairs] == want
        assert all(type(metric.pair(a, b)) is int for a, b in pairs[:5])


def test_branch_keys_split_full_detours(corpus) -> None:
    omegas = set()
    for g in corpus[:80] + [gen_path(8), gen_path(9), gen_union(4, 3)]:
        profile = detour_profile(g)
        keys = branch_keys(profile).tolist()
        d = detour_matrix(g)
        omegas.add(min(profile.omega, 2))
        for u in range(g.p):
            for v in range(u + 1, g.p):
                cap = profile.level[u] + profile.level[v] + profile.omega - 1
                if keys[u] != keys[v]:
                    assert d[u, v] == cap, (g.blocks, u, v)
                else:
                    assert d[u, v] <= cap, (g.blocks, u, v)
    assert omegas == {1, 2}


def test_core_memory_is_one_table_column_per_tree_node() -> None:
    # a path of 50,000 vertices has about 100,000 tree nodes: 17 table rows
    # of one int32 per node take 7 MB, and twice the columns would still fit
    # (test_core_memory_is_four_bytes_per_table_entry bounds the entry size)
    g = gen_path(50_000)
    tracemalloc.start()
    try:
        TreeMetric(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30_000_000


@pytest.mark.parametrize("g", [gen_path(20_000), gen_star(20_000)], ids=["path", "star"])
def test_core_memory_is_four_bytes_per_table_entry(g) -> None:
    # n.bit_length() table entries of 4 bytes per tree node, plus 32 bytes per
    # node for the position, depth and per-vertex arrays; a table of 8-byte
    # entries alone would pass the bound
    nodes = g.block_cut_tree().node_count
    tracemalloc.start()
    try:
        tree_metric(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (4 * nodes.bit_length() + 32) * nodes


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


def test_greedy_ordering_matches_the_reference_scan() -> None:
    graphs = _greedy_corpus()
    assert len(graphs) >= 300
    omegas = set()
    for g in graphs:
        profile = detour_profile(g)
        omegas.add(min(profile.omega, 2))
        assert greedy_ordering(g, profile) == _reference_greedy_ordering(g, profile), g
    assert omegas == {1, 2}


def test_forced_coloring_matches_quadratic_reference_on_the_corpus(monkeypatch) -> None:
    recurrence = []
    real = coloring.coloring_from_ordering
    monkeypatch.setattr(
        coloring,
        "coloring_from_ordering",
        lambda g, profile, order: recurrence.append(g.p) or real(g, profile, order),
    )
    depth = {"shallow": 0, "deep": 0, "boundary": 0}
    rng = random.Random(3)
    for g in _greedy_corpus():
        profile = detour_profile(g)
        slack = g.p - 2 * profile.omega + 2 - 4 * int(profile.level.max())
        depth["boundary" if slack == 0 else "shallow" if slack > 0 else "deep"] += 1
        shuffled = list(range(g.p))
        rng.shuffle(shuffled)
        for order in (greedy_ordering(g, profile), shuffled):
            assert greedy_min_coloring_for_ordering(g, order).colors == _quadratic_greedy(g, order)
    # both sides of the shallow lemma's split, and its boundary, stay covered
    assert depth["shallow"] >= 150 and depth["deep"] >= 150 and depth["boundary"] >= 5, depth
    assert len(recurrence) >= 50


def test_greedy_method_is_valid_at_ten_thousand_vertices() -> None:
    g = gen_random_block_graph(5, 11000)
    assert g.p == 10_207
    result = color_graph(g)
    assert result.method == "greedy"
    assert validate_coloring(g, result.coloring.colors) == []


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


def test_streamed_violations_match_all_pairs_past_the_head(monkeypatch) -> None:
    # narrow random colors on p = 589: 173,166 violations over three
    # candidate batches whose key ranges interleave
    g = gen_random_block_graph(6, max_p=700)
    rng = random.Random(6)
    colors = [rng.randrange(g.p // 8) for _ in range(g.p)]
    want = _all_pairs_violations(g, colors)
    batches = list(coloring._violation_batches(g, np.asarray(colors)))
    assert len(want) > coloring._PAIR_CHUNK and len(batches) >= 3
    assert any(a[0].max() > b[0].min() for a, b in zip(batches, batches[1:]))

    rebuilds = []
    violation_rows = coloring._violation_rows

    def counted_violation_rows(g, c, cap):
        if cap > coloring._PAIR_CHUNK:  # a rebuild past the head
            rebuilds.append(cap)
        return violation_rows(g, c, cap)

    monkeypatch.setattr(coloring, "_violation_rows", counted_violation_rows)
    held = np.array(colors)
    violations = validate_coloring(g, held)
    held[:] = 0  # the rebuild reads the colors as they were validated
    assert len(violations) == len(want) and violations
    assert violations[:20] == want[:20] and violations[0] == want[0]
    assert violations[coloring._PAIR_CHUNK - 1] == want[coloring._PAIR_CHUNK - 1]
    assert violations[100:0:-7] == want[100:0:-7]
    assert not rebuilds
    assert violations[-1] == want[-1]
    assert list(violations) == want and violations == want
    assert violations[-5:] == want[-5:] and violations[::-50_000] == want[::-50_000]
    assert len(rebuilds) == 1
    assert violations == validate_coloring(g, colors)


def test_many_violations_are_counted_in_bounded_memory() -> None:
    # all-equal stars: 1,125,750 and 4,501,500 violations, of which the
    # count and the first 20 are read, as verify does
    for leaves in (1500, 3000):
        g = gen_star(leaves)
        tree_metric(g)
        tracemalloc.start()
        try:
            violations = validate_coloring(g, [0] * g.p)
            assert len(violations) == g.p * (g.p - 1) // 2
            assert violations[:20] == [(0, v, g.p - 2) for v in range(1, 21)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, leaves


def _colors_with_candidates(p: int, total: int) -> list[int]:
    """Colors with exactly total candidate pairs: runs of equal colors, each as
    long as fits, spaced p apart, and one vertex per color after them."""
    colors: list[int] = []
    while len(colors) < p:
        size = 1
        while size * (size + 1) // 2 <= total and len(colors) + size < p:
            size += 1
        total -= size * (size - 1) // 2
        colors += [len(colors) * p] * size
    assert total == 0
    return colors


def _candidate_rows(p: int, colors: list[int]) -> list[int]:
    """Per vertex in color order, how many later vertices are within p - 3 of its color."""
    ranked = sorted(colors)
    return [sum(c - a <= p - 3 for c in ranked[i + 1 :]) for i, a in enumerate(ranked)]


@pytest.fixture(scope="module")
def boundary_corpus() -> list:
    """Random graphs with p 70, 123 and 295, each with its named colorings."""
    corpus = []
    for seed in (1, 3, 6):
        g = gen_random_block_graph(seed, max_p=300)
        colorings = _colorings(g, seed)
        del colorings["corrupted"]
        corpus.append((g, colorings))
    return corpus


@pytest.mark.parametrize("chunk", [1, 7, 64, 8192])
def test_validation_is_the_same_across_batch_boundaries(monkeypatch, boundary_corpus, chunk) -> None:
    monkeypatch.setattr(coloring, "_PAIR_CHUNK", chunk)
    rebuilds = []
    violation_rows = coloring._violation_rows

    def counted_violation_rows(g, c, cap):
        if cap > coloring._PAIR_CHUNK:  # a rebuild past the head
            rebuilds.append(cap)
        return violation_rows(g, c, cap)

    monkeypatch.setattr(coloring, "_violation_rows", counted_violation_rows)
    long_rows = empty_rows = multiples = 0
    for g, colorings in boundary_corpus:
        cases = dict(colorings)
        pairs = g.p * (g.p - 1) // 2
        if pairs >= chunk:
            cases["multiple"] = _colors_with_candidates(g.p, chunk * min(pairs // chunk, 3))
        for name, colors in cases.items():
            rows = _candidate_rows(g.p, colors)
            long_rows += max(rows) > 2 * chunk
            empty_rows += 0 in rows[:-1]
            multiples += sum(rows) % chunk == 0 and sum(rows) > chunk
            want = _all_pairs_violations(g, colors)
            rebuilds.clear()
            violations = validate_coloring(g, colors)
            assert len(violations) == len(want), (g.p, name)
            assert violations[: min(20, chunk)] == want[: min(20, chunk)], (g.p, name)
            assert not rebuilds
            assert violations[:20] == want[:20], (g.p, name)
            if len(want) > chunk:
                assert violations[chunk] == want[chunk], (g.p, name)
            assert violations == want, (g.p, name)
            assert len(rebuilds) == (len(want) > chunk), (g.p, name)
    assert empty_rows and multiples
    assert long_rows or chunk == 8192


def test_validation_peak_stays_within_a_few_batches() -> None:
    # every pair is a candidate; the peak is the p-sized arrays and one
    # 8,192-pair batch's temporaries, not a batch of 2**16 pairs
    complete = BlockGraph(2000, [range(2000)])
    for g in (complete, gen_star(1500), gen_symmetric(SymmetricSpec(6, 4, 5))[0]):
        tree_metric(g)
        tracemalloc.start()
        try:
            violations = validate_coloring(g, [0] * g.p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # K_2000's pairs are all at distance p - 1; the others' all fall short
        assert len(violations) == (0 if g is complete else g.p * (g.p - 1) // 2), g.p
        assert peak < 2_000_000, g.p
