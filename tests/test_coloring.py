from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    greedy_min_coloring_for_ordering,
    greedy_ordering,
    lower_bound,
    sym_ordering,
    union_coloring,
    validate_coloring,
)
from conftest import grid_specs


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
    # the recurrence checks the same way: a repeated vertex, or float ids
    with pytest.raises(NotAPermutationError):
        coloring_from_ordering(g, profile, [0] * g.p)
    with pytest.raises(NotAPermutationError):
        coloring_from_ordering(g, profile, [float(v) for v in range(g.p)])


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
    assert order[-6:] == [1, 2, 3, 4, 5, 6]
    assert sorted(order) == list(range(25))


def test_sym_ordering_odd_endpoints_have_level_zero() -> None:
    g, coords, profile = sym_instance(4, 2, 5)
    order = sym_ordering(g, coords)
    assert profile.level[order[0]] == 0
    assert all(profile.level[v] == 0 for v in order[-3:])
    assert order[0] == 3 and order[-3:] == [0, 1, 2]


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
    assert coords.depth[order[1]] == spec.r
    assert coords.path_tuple[order[1]] == (0, 0)
    assert coords.path_tuple[order[1 + streams]] == (1, 0)
    assert coords.path_tuple[order[1 + 2 * streams]] == (0, 1)
    # the shallowest descendants come last before the depth-1 tail
    last_descendant = order[g.p - streams - 1]
    assert coords.depth[last_descendant] == 2


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
