from __future__ import annotations

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamcolor.coloring
from hamcolor import (
    BlockGraph,
    HamColoring,
    InvalidSpecError,
    NegativeGapError,
    NotAPermutationError,
    SizeMismatchError,
    SymmetricSpec,
    check_ordering_conditions,
    color_graph,
    coloring_from_ordering,
    detour_matrix,
    detour_profile,
    from_json,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    greedy_min_coloring_for_ordering,
    greedy_ordering,
    lower_bound,
    sym_hc,
    sym_order_count,
    sym_ordering,
    to_json,
    validate_coloring,
)
from hamcolor.detour import branch_keys, tree_metric
from conftest import grid_specs, reference_coordinates, relabeled


def sym_instance(m: int, kappa: int, d: int):
    g, coords = gen_symmetric(SymmetricSpec(m, kappa, d))
    return g, coords, detour_profile(g)


def test_conditions_hold_for_even_construction() -> None:
    g, coords, profile = sym_instance(4, 2, 4)
    report = check_ordering_conditions(g, profile, sym_ordering(g, coords))
    assert report.all_ok
    assert report.endpoint_levels == (0, 3)


def test_conditions_on_smallest_exception() -> None:
    g, coords, profile = sym_instance(3, 2, 3)
    report = check_ordering_conditions(g, profile, sym_ordering(g, coords))
    assert report.cond1_endpoints and report.cond2_branches
    assert not report.cond3_halfp
    assert all(2 * d > g.p for _, d in report.cond3_violations)


def test_conditions_reversed_ordering_breaks_endpoints() -> None:
    g, coords, profile = sym_instance(4, 2, 4)
    report = check_ordering_conditions(g, profile, sym_ordering(g, coords)[::-1])
    assert not report.cond1_endpoints
    assert report.endpoint_levels[0] == 3
    assert report.cond2_branches and report.cond3_halfp


def test_condition_check_rejects_non_permutation() -> None:
    g, _, profile = sym_instance(3, 2, 3)
    with pytest.raises(NotAPermutationError):
        check_ordering_conditions(g, profile, list(range(g.p - 1)))
    # the recurrence and the forced coloring check the same way: a repeated
    # vertex, float ids, an id out of range at either end, or a 2-D array
    bad = [
        [0] * g.p,
        [float(v) for v in range(g.p)],
        list(range(1, g.p + 1)),
        list(range(-1, g.p - 1)),
        np.arange(g.p).reshape(1, g.p),
    ]
    for ordering in bad:
        with pytest.raises(NotAPermutationError):
            coloring_from_ordering(g, profile, ordering)
        with pytest.raises(NotAPermutationError):
            greedy_min_coloring_for_ordering(g, ordering)


def test_half_order_boundary_cases() -> None:
    # 2*D == p counts as within the cap (the comparison is the exact
    # rational one); the smallest tree row sits right on it
    g, coords, profile = sym_instance(2, 3, 3)
    assert g.p == 6
    report = check_ordering_conditions(g, profile, sym_ordering(g, coords))
    assert report.all_ok
    # and 2*D == p - 1 on the 25-vertex even case, just inside the cap
    g2, coords2, profile2 = sym_instance(4, 2, 4)
    report2 = check_ordering_conditions(g2, profile2, sym_ordering(g2, coords2))
    assert report2.cond3_halfp


def test_half_order_failures_in_grid_are_exactly_three() -> None:
    failing = []
    for spec in grid_specs():
        g, coords = gen_symmetric(spec)
        profile = detour_profile(g)
        report = check_ordering_conditions(g, profile, sym_ordering(g, coords))
        assert report.cond1_endpoints and report.cond2_branches, spec
        if not report.cond3_halfp:
            failing.append((spec.block_size, spec.cut_degree, spec.diameter))
    assert failing == [(3, 2, 3), (3, 2, 4), (4, 2, 3)]


def test_construction_spans_match_goldens() -> None:
    g, coords, profile = sym_instance(4, 2, 4)
    assert coloring_from_ordering(g, profile, sym_ordering(g, coords)).span == 327
    g5, coords5, profile5 = sym_instance(4, 2, 5)
    assert coloring_from_ordering(g5, profile5, sym_ordering(g5, coords5)).span == 1944


def test_construction_on_complete_graph_is_all_zero() -> None:
    g = BlockGraph(5, [range(5)])
    profile = detour_profile(g)
    coloring = coloring_from_ordering(g, profile, [3, 1, 4, 0, 2])
    assert coloring.colors == (0,) * 5 and coloring.span == 0


def test_sym_ordering_even_layout() -> None:
    g, coords, profile = sym_instance(4, 2, 4)
    order = sym_ordering(g, coords)
    assert len(order) == 25
    assert order[0] == 0
    assert order[-6:].tolist() == [1, 2, 3, 4, 5, 6]
    assert sorted(order) == list(range(25))


def test_sym_ordering_odd_endpoints_have_level_zero() -> None:
    g, coords, profile = sym_instance(4, 2, 5)
    order = sym_ordering(g, coords)
    assert profile.level[order[0]] == 0
    assert all(profile.level[v] == 0 for v in order[-3:])
    assert order[0] == 3 and order[-3:].tolist() == [0, 1, 2]


def test_sym_ordering_alternates_branches() -> None:
    from hamcolor import branch_relation

    g, coords, profile = sym_instance(3, 3, 3)
    order = sym_ordering(g, coords)
    for u, v in zip(order, order[1:]):
        if profile.owner[u] == -1 or profile.owner[v] == -1:
            continue
        assert branch_relation(g, profile, u, v) == "opposite"


def test_sym_ordering_takes_deepest_first_in_radix_order() -> None:
    # three depth levels: each branch stream must start at an outermost
    # vertex, and the first child index cycles fastest
    g, coords, profile = sym_instance(3, 2, 6)
    order = sym_ordering(g, coords)
    spec = coords.spec
    streams = spec.cut_degree * spec.n
    assert profile.level[order[1]] // spec.n == spec.r
    # child indices from the branch root down to a vertex two below it
    indices = reference_coordinates(g, profile)["path_tuple"]
    assert indices[order[1]] == (0, 0)
    assert indices[order[1 + streams]] == (1, 0)
    assert indices[order[1 + 2 * streams]] == (0, 1)
    # the shallowest descendants come last before the depth-1 tail
    last_descendant = order[g.p - streams - 1]
    assert profile.level[last_descendant] // spec.n == 2


def test_validate_union_explicit_coloring() -> None:
    g = gen_union(4, 2)
    # mirrored block coloring: shared vertex 0, then i*(n-1) on both sides
    colors = [0, 3, 6, 9, 3, 6, 9]
    assert validate_coloring(g, colors) == []
    assert max(colors) == 9


def test_validate_all_zero() -> None:
    k5 = BlockGraph(5, [range(5)])
    assert validate_coloring(k5, [0] * 5) == []
    star = gen_star(3)
    violations = validate_coloring(star, [0] * 4)
    assert violations
    assert (1, 2, 1) in violations  # leaf pairs sit at detour distance 2 < 3


def test_validate_rejects_bad_input() -> None:
    g = gen_star(3)
    with pytest.raises(SizeMismatchError):
        validate_coloring(g, [0, 1])
    with pytest.raises(InvalidSpecError):
        validate_coloring(g, [0, -1, 2, 3])
    with pytest.raises(InvalidSpecError):
        validate_coloring(g, [0, "1", 2, 3])
    with pytest.raises(InvalidSpecError):
        validate_coloring(g, [0, True, 2, 3])
    with pytest.raises(InvalidSpecError):
        validate_coloring(g, [0, 1, 2, 2**63])
    # numpy integers are integers
    assert validate_coloring(g, [np.int64(0), 2, 4, np.int64(6)]) == []


def test_violations_behave_like_a_sorted_list_of_triples() -> None:
    g = gen_star(3)
    # hub pairs sit at distance 1 and leaf pairs at 2, against p - 1 = 3
    want = [(0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
    violations = validate_coloring(g, [0] * 4)
    assert violations == want and want == violations
    assert violations == tuple(want) and tuple(want) == violations
    assert violations != want[:-1] and violations != want[::-1]
    assert violations != [list(t) for t in want]
    assert len(violations) == 6 and violations
    assert list(violations) == want and list(reversed(violations)) == want[::-1]
    assert violations[0] == (0, 1, 2) and violations[-1] == (2, 3, 1)
    assert violations[:2] == want[:2] and violations[3:] == want[3:]
    assert (1, 3, 1) in violations and (1, 3, 2) not in violations
    assert violations == validate_coloring(g, [5] * 4)
    with pytest.raises(IndexError):
        violations[6]

    none = validate_coloring(g, [0, 2, 4, 6])
    assert none == [] and [] == none and none == ()
    assert not none and len(none) == 0 and list(none) == [] and none[:20] == []


def test_violations_compare_only_to_sequences_and_show_their_head() -> None:
    violations = validate_coloring(gen_star(3), [0] * 4)
    assert violations.__eq__(5) is NotImplemented
    assert (violations == 5) is False and violations != 5
    assert repr(violations) == "Violations(n=6, first=[(0, 1, 2), (0, 2, 2), (0, 3, 2)])"


def test_violations_take_24_bytes_each() -> None:
    # every pair of a star with 1,500 leaves is short under one color:
    # 1,125,750 violations, which cost about 160 bytes each held as a list
    # of tuples (240 bytes at the peak of building it)
    g = gen_star(1500)
    tracemalloc.start()
    try:
        violations = validate_coloring(g, [0] * g.p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = g.p * (g.p - 1) // 2
    assert len(violations) == n
    assert violations[-1] == (g.p - 2, g.p - 1, g.p - 3)
    assert held < 32 * n
    assert peak < 64 * n


def test_color_graph_traced_peak_on_a_symmetric_graph() -> None:
    # sym(5,5,6), p = 5,461, parsed fresh: the traced peak was 1,005,460 bytes
    # while the coordinates outlived the ordering and the graph held per-block
    # tuples; with both released it is about 791,000
    g = from_json(to_json(gen_symmetric(SymmetricSpec(5, 5, 6))[0]))
    tracemalloc.start()
    try:
        result = color_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == "symmetric" and result.coloring.span == result.bound
    assert peak < 900_000


def test_symmetric_coloring_builds_no_tree_metric() -> None:
    # the profile reads the block-cut tree's preorder itself, so the
    # symmetric path never pays for the metric's sparse table
    for spec, seed in (((4, 2, 5), 1), ((3, 3, 4), 2), ((5, 5, 6), 3)):
        g = relabeled(gen_symmetric(SymmetricSpec(*spec))[0], seed)
        result = color_graph(g)
        assert result.method == "symmetric" and result.coloring.span == result.bound
        assert g._metric is None


def union_coloring(n: int, k: int) -> HamColoring:
    """The direct optimal coloring of the one-point union of k copies of K_n.

    A frozen reference, written against the vertex layout of ``gen_union``:
    for k = 2 the two blocks mirror each other; for k >= 3 the non-central
    vertices take round-robin block order with uniform steps of
    (k-2)(n-1) after an initial (k-1)(n-1).
    """
    p = k * (n - 1) + 1
    colors = [0] * p
    if k == 2:
        for i in range(1, n):
            colors[i] = i * (n - 1)
            colors[(n - 1) + i] = i * (n - 1)
    else:
        value = (k - 1) * (n - 1)
        step = (k - 2) * (n - 1)
        for s in range(k * (n - 1)):
            member = s // k + 1
            block = s % k
            colors[block * (n - 1) + member] = value
            value += step
    return HamColoring(tuple(colors))


def test_union_coloring_values() -> None:
    for (n, k, span) in [(4, 2, 9), (3, 3, 14), (3, 4, 34), (4, 3, 30), (6, 5, 380)]:
        coloring = union_coloring(n, k)
        assert coloring.span == span
        assert validate_coloring(gen_union(n, k), list(coloring.colors)) == []


def test_union_coloring_equal_colors_need_full_paths() -> None:
    n = 4
    g = gen_union(n, 2)
    coloring = union_coloring(n, 2)
    d = detour_matrix(g)
    pairs = [
        (u, v)
        for u in range(g.p)
        for v in range(u + 1, g.p)
        if coloring.colors[u] == coloring.colors[v]
    ]
    assert len(pairs) == n - 1
    assert all(d[u][v] == g.p - 1 for u, v in pairs)


def test_greedy_ordering_produces_usable_colorings() -> None:
    g, _, profile = sym_instance(4, 2, 4)
    order = greedy_ordering(g, profile)
    assert sorted(order) == list(range(g.p))
    coloring = greedy_min_coloring_for_ordering(g, order)
    assert validate_coloring(g, list(coloring.colors)) == []
    assert coloring.span >= lower_bound(g, profile)

    star = gen_star(3)
    star_profile = detour_profile(star)
    star_order = greedy_ordering(star, star_profile)
    assert star_order[0] == 0
    assert greedy_min_coloring_for_ordering(star, star_order).span >= 4

    k4 = BlockGraph(4, [range(4)])
    k4_profile = detour_profile(k4)
    assert coloring_from_ordering(k4, k4_profile, greedy_ordering(k4, k4_profile)).span == 0


def test_ham_coloring_normalizes_to_zero() -> None:
    assert HamColoring((5, 7, 9)).colors == (0, 2, 4)
    assert HamColoring((0, 3)).span == 3


def test_ham_coloring_needs_a_vertex() -> None:
    with pytest.raises(SizeMismatchError, match="^a coloring needs at least one vertex$"):
        HamColoring(())


@pytest.mark.parametrize(
    "colors",
    [(0.5, 1.5), (0.0, 1.0), (True, 3), (0, False), ("0", 1), np.array([0.5, 1.5]),
     np.array([True, False]), np.zeros((2, 2), dtype=np.int64), (0, 2**63), (-(2**62), 2**62)],
)
def test_ham_coloring_takes_integers_whose_span_fits_in_int64(colors) -> None:
    # an int64 array would truncate a float and count a bool as 0 or 1
    with pytest.raises(InvalidSpecError):
        HamColoring(colors)


def test_ham_coloring_is_an_array_with_a_tuple_view() -> None:
    huge = HamColoring([2**70 + 5, 2**70, 2**70 + 2**63 - 1])
    assert huge.colors == (5, 0, 2**63 - 1) and huge.span == 2**63 - 1
    from_numpy = HamColoring(np.array([7, 9, 12], dtype=np.int16))
    assert from_numpy == HamColoring((0, 2, 5)) == HamColoring(iter([3, 5, 8]))
    assert hash(from_numpy) == hash(HamColoring([0, 2, 5]))
    assert from_numpy != HamColoring((0, 2, 6)) and from_numpy != (0, 2, 5)
    assert all(type(c) is int for c in from_numpy.colors)
    assert repr(from_numpy) == "HamColoring(colors=(0, 2, 5))"
    with pytest.raises(AttributeError):
        from_numpy.colors = (0, 1, 2)


@pytest.mark.parametrize(
    ("make", "method", "span", "bound", "digest"),
    [
        (lambda: gen_random_block_graph(5, 100_000), "greedy", 6_661_762_510, 6_660_561_753,
         "210ab3389bce435f"),
        (lambda: gen_symmetric(SymmetricSpec(6, 6, 7))[0], "symmetric", 9_533_121_750,
         9_533_121_750, None),
    ],
    ids=["greedy", "symmetric"],
)
def test_spans_past_two_to_the_31_stay_exact(make, method, span, bound, digest) -> None:
    # the profile's int32 rows must not carry into color arithmetic: both
    # spans are above 2**31, where an int32 would overflow or wrap
    g = make()
    result = color_graph(g)
    assert (result.method, result.coloring.span, result.bound) == (method, span, bound)
    assert span > 2**31
    if digest is not None:
        assert g.p == 81_646
        assert hashlib.sha256(str(result.coloring.colors).encode()).hexdigest().startswith(digest)
    else:
        assert span == sym_hc(SymmetricSpec(6, 6, 7))


@given(st.integers(0, 10_000), st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_telescoping_span_identity(seed: int, shuffle_seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=9)
    profile = detour_profile(g)
    order = list(range(g.p))
    random.Random(shuffle_seed).shuffle(order)
    try:
        coloring = coloring_from_ordering(g, profile, order)
    except NegativeGapError:
        return  # a refused ordering is an acceptable outcome
    expected = (
        (g.p - 1) * (g.p - profile.omega)
        - 2 * profile.total_level
        + profile.level[order[0]]
        + profile.level[order[-1]]
    )
    assert coloring.span == expected


def test_color_graph_is_valid_and_only_claims_certified_optimality(corpus, grid_instances) -> None:
    cases = {
        "path": [gen_path(n) for n in range(2, 41)],
        "corpus": corpus,
        "star": [gen_star(n) for n in range(2, 13)],
        "union": [gen_union(n, k) for n in range(2, 9) for k in range(2, 7)],
        "grid": [g for _, g, _, _ in grid_instances],
    }
    methods: dict[str, set[str]] = {name: set() for name in cases}
    for name, graphs in cases.items():
        for g in graphs:
            result = color_graph(g)
            assert validate_coloring(g, result.coloring.colors) == [], g.blocks
            assert sorted(result.ordering) == list(range(g.p))
            assert result.bound == lower_bound(g, result.profile)
            if "optimal" in result.status:
                assert result.coloring.span == result.bound or result.method == "union"
            methods[name].add(result.method)
    # a path has kn = 1, outside the symmetric construction's range
    assert methods["path"] == {"greedy"}
    assert methods["grid"] == {"symmetric"}


def test_color_graph_on_unions_is_the_union_coloring() -> None:
    for n in range(2, 9):
        for k in range(2, 7):
            result = color_graph(gen_union(n, k))
            assert result.coloring == union_coloring(n, k), (n, k)
            assert result.method == ("greedy" if (n, k) == (2, 2) else "union")


def _recurrence_cases():
    """Unions of three or more cliques, relabeled, and the symmetric grid
    with p <= 6,000, as generated and relabeled: (method, label, graph)."""
    for n in range(2, 9):
        for k in range(3, 12):
            union = gen_union(n, k)
            for seed in range(3):
                perm = list(range(union.p))
                random.Random(seed).shuffle(perm)
                g = BlockGraph(union.p, [[perm[v] for v in b] for b in union.blocks])
                yield "union", (n, k, seed), g
    for m in range(2, 7):
        for kappa in range(2, 7):
            for d in range(3, 9):
                spec = SymmetricSpec(m, kappa, d)
                if spec.k * spec.n >= 2 and sym_order_count(spec) <= 6000:
                    g = gen_symmetric(spec)[0]
                    yield "symmetric", spec, g
                    yield "symmetric", (spec, "relabeled"), relabeled(g, d)


def test_unions_of_three_or_more_cliques_take_the_recurrence() -> None:
    count = 0
    for method, label, g in _recurrence_cases():
        result = color_graph(g)
        assert result.method == method, label
        assert result.coloring == greedy_min_coloring_for_ordering(g, result.ordering), label
        assert result.coloring == coloring_from_ordering(g, result.profile, result.ordering), label
        count += 1
    assert count == 189 + 2 * 120


def test_a_corrupted_symmetric_ordering_never_claims_an_invalid_optimum(monkeypatch) -> None:
    # swapping positions 1 and 2 breaks the paper's conditions; the gap
    # recurrence would give sym(4,2,4) an invalid coloring at the bound, 327
    real = hamcolor.coloring.sym_ordering

    def swapped(g, coords):
        ordering = real(g, coords).copy()
        ordering[[1, 2]] = ordering[[2, 1]]
        return ordering

    monkeypatch.setattr(hamcolor.coloring, "sym_ordering", swapped)
    for spec in ((4, 2, 4), (3, 2, 3), (3, 3, 4), (4, 3, 5), (5, 2, 5), (2, 4, 6)):
        g = gen_symmetric(SymmetricSpec(*spec))[0]
        result = color_graph(g)
        assert result.method == "symmetric", spec
        assert validate_coloring(g, result.coloring.colors) == [], spec
        if "optimal" in result.status:
            assert result.coloring.span == result.bound, spec
        if spec == (4, 2, 4):
            assert result.coloring.span == 330
            assert result.status == "upper bound (uncertified)"


def test_forced_coloring_without_distance_queries_builds_no_tree_metric() -> None:
    # every step of this graph's greedy coloring is settled by the running
    # maximum, so the sparse table would be built for nothing
    g = gen_random_block_graph(5, 11000)
    assert g.p == 10_207
    result = color_graph(g)
    assert result.method == "greedy"
    assert g._metric is None


def test_accepted_recurrence_equals_forced_coloring() -> None:
    # color_graph relies on this to skip the recurrence on non-symmetric graphs
    accepted = 0
    for max_p, block_size, blocks_per_cut in [(12, 5, 3), (20, 2, 2), (30, 3, 5), (40, 6, 3)]:
        for seed in range(500):
            g = gen_random_block_graph(seed, max_p, block_size, blocks_per_cut)
            profile = detour_profile(g)
            order = greedy_ordering(g, profile)
            try:
                recurrence = coloring_from_ordering(g, profile, order)
            except NegativeGapError:
                continue
            if validate_coloring(g, recurrence.colors):
                continue
            accepted += 1
            assert recurrence == greedy_min_coloring_for_ordering(g, order), g.blocks
    assert accepted >= 100


def _loop_coloring(g: BlockGraph, ordering: list[int]) -> HamColoring:
    """The forced coloring by the per-vertex loop, kept as a reference.

    Each next color is the largest of c(last), M + p - omega - L(next) with
    M the running maximum of c(u) - L(u), and c(u) + p - 1 - D(u, next) over
    the placed u sharing next's key, scanned newest first.
    """
    profile = detour_profile(g)
    level = profile.level.tolist()
    keys = branch_keys(profile).tolist()
    pair = tree_metric(g).pair
    need = g.p - 1
    lift = g.p - profile.omega
    colors = [0] * g.p
    first = ordering[0]
    placed_by_key: dict[int, list[int]] = {keys[first]: [first]}
    top = -level[first]
    last = 0
    for v in ordering[1:]:
        best = max(last, top + lift - level[v])
        same = placed_by_key.setdefault(keys[v], [])
        for u in reversed(same):
            cu = colors[u]
            if cu + need - 1 <= best:
                break
            best = max(best, cu + need - pair(u, v))
        colors[v] = last = best
        top = max(top, best - level[v])
        same.append(v)
    return HamColoring(colors)


def test_forced_coloring_matches_the_per_vertex_loop() -> None:
    # shallow orderings take the recurrence plus each same-key pair's slack
    # instead of the loop; deep ones, paths among them, still take the loop
    rng = random.Random(32)
    graphs = [gen_path(p) for p in range(2, 41)]
    for seed in range(1500):
        size, per_cut = rng.randint(2, 6), rng.randint(1, 8)
        graphs.append(gen_random_block_graph(seed, (12, 20, 40, 80)[seed % 4], size, per_cut))
    tied = deep = 0
    for g in graphs:
        profile = detour_profile(g)
        shallow = 4 * int(profile.level.max()) <= g.p - 2 * profile.omega + 2
        keys = branch_keys(profile)
        for _ in range(4):
            order = rng.sample(range(g.p), g.p)
            if not shallow:
                deep += 1
            elif (keys[order[:-1]] == keys[order[1:]]).any():
                tied += 1
            assert greedy_min_coloring_for_ordering(g, order) == _loop_coloring(g, order), g.blocks
    assert tied >= 1000 and deep >= 1000
