from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hamcolor import (
    BlockGraph,
    BudgetExceededError,
    InvalidSpecError,
    SearchBudget,
    SymmetricSpec,
    brute_longest_path,
    detour_matrix,
    detour_profile,
    exact_hc,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    greedy_min_coloring_for_ordering,
    greedy_ordering,
    lower_bound,
    path_hc,
    star_hc,
    union_hc,
    validate_coloring,
)
from hamcolor.exact import _twin_groups


def test_brute_longest_path_basics() -> None:
    p4 = gen_path(4)
    assert brute_longest_path(p4, 0, 3) == 3
    assert brute_longest_path(p4, 1, 2) == 1
    k4 = BlockGraph(4, [range(4)])
    assert brute_longest_path(k4, 0, 2) == 3
    assert brute_longest_path(k4, 1, 1) == 0


def test_brute_respects_budget() -> None:
    with pytest.raises(BudgetExceededError):
        brute_longest_path(gen_path(11), 0, 10)
    assert brute_longest_path(gen_path(11), 0, 10, SearchBudget(max_p=12)) == 10


def test_budget_refuses_above_hard_cap() -> None:
    with pytest.raises(InvalidSpecError):
        SearchBudget(max_p=15)
    assert SearchBudget(max_p=14).max_p == 14


@pytest.mark.parametrize(
    ("g", "value"),
    [
        (gen_path(12), path_hc(12)),
        (gen_path(13), path_hc(13)),
        (gen_path(14), path_hc(14)),
        (gen_star(12), star_hc(12)),
        (gen_star(13), star_hc(13)),
        (gen_union(7, 2), union_hc(7, 2)),
        (gen_union(5, 3), union_hc(5, 3)),
    ],
    ids=["path-12", "path-13", "path-14", "star-12", "star-13", "union-7-2", "union-5-3"],
)
def test_exact_matches_closed_forms_up_to_the_hard_cap(g, value) -> None:
    # p = 12 to 14, the sizes the cap of 14 admits; the path of 14 takes
    # about 1.4 s on a 2-vCPU machine, the others under 0.3 s
    found, witness = exact_hc(g, SearchBudget(max_p=14))
    assert found == value
    assert witness is not None and witness.span == value
    assert validate_coloring(g, list(witness.colors)) == []


def test_greedy_min_on_complete_graph_is_zero() -> None:
    k5 = BlockGraph(5, [range(5)])
    assert greedy_min_coloring_for_ordering(k5, [4, 2, 0, 1, 3]).colors == (0,) * 5


def test_greedy_min_union_interleaved_ordering() -> None:
    g = gen_union(4, 2)
    coloring = greedy_min_coloring_for_ordering(g, [0, 1, 4, 2, 5, 3, 6])
    assert coloring.span == 9
    assert validate_coloring(g, list(coloring.colors)) == []
    equal_pairs = [
        (u, v)
        for u in range(g.p)
        for v in range(u + 1, g.p)
        if coloring.colors[u] == coloring.colors[v]
    ]
    from hamcolor import detour_distance

    assert equal_pairs and all(detour_distance(g, u, v) == g.p - 1 for u, v in equal_pairs)


def test_greedy_min_path_optimal_ordering() -> None:
    g = gen_path(5)
    assert greedy_min_coloring_for_ordering(g, [2, 0, 3, 1, 4]).span == 6


def test_exact_small_goldens() -> None:
    assert exact_hc(gen_star(3))[0] == 4
    assert exact_hc(gen_path(5))[0] == 6
    g, _ = gen_symmetric(SymmetricSpec(3, 2, 3))
    value, witness = exact_hc(g)
    assert value == 24
    assert witness is not None and validate_coloring(g, list(witness.colors)) == []


def test_exact_refuses_large_instances() -> None:
    with pytest.raises(BudgetExceededError):
        exact_hc(gen_path(11))


def test_exact_honors_time_limit() -> None:
    # the deadline is checked on the first search node, so an expired
    # limit surfaces as a budget error however few nodes the search needs
    with pytest.raises(BudgetExceededError):
        exact_hc(gen_path(9), SearchBudget(time_limit=1e-9))


def test_exact_zero_time_limit_is_a_limit() -> None:
    # 0 is an exhausted limit, not "no limit"
    with pytest.raises(BudgetExceededError):
        exact_hc(gen_path(9), SearchBudget(time_limit=0))


def test_longest_path_honors_time_limit() -> None:
    # the brute-force oracle took the budget's max_p and ignored its time limit
    g = gen_path(9)
    with pytest.raises(BudgetExceededError, match="^time limit exhausted"):
        brute_longest_path(g, 0, 8, SearchBudget(time_limit=0))
    assert brute_longest_path(g, 0, 8, SearchBudget(time_limit=60)) == 8
    # the deadline is checked again every 4,096 nodes: K_12 has about 10^7
    with pytest.raises(BudgetExceededError):
        brute_longest_path(BlockGraph(12, [range(12)]), 0, 11, SearchBudget(12, 0.01))


def test_nan_time_limit_is_rejected() -> None:
    # perf_counter() > nan is never true, so a NaN limit would never stop the search
    with pytest.raises(InvalidSpecError):
        SearchBudget(time_limit=float("nan"))


def test_budget_rejects_values_of_the_wrong_type() -> None:
    # max_p=True and max_p=2.5 were accepted, and exact_hc then reported "exceeds
    # the search budget of 2.5"; time_limit="5" raised a bare TypeError
    cases = [
        ({"max_p": True}, "^max_p True is not an integer$"),
        ({"max_p": 2.5}, "^max_p 2.5 is not an integer$"),
        ({"max_p": "5"}, "^max_p '5' is not an integer$"),
        ({"time_limit": "5"}, "^time_limit must be a number of seconds, got '5'$"),
        ({"time_limit": True}, "^time_limit must be a number of seconds, got True$"),
        ({"time_limit": float("nan")}, "^time_limit must be a number of seconds, got nan$"),
    ]
    for kwargs, message in cases:
        with pytest.raises(InvalidSpecError, match=message):
            SearchBudget(**kwargs)
    budget = SearchBudget(max_p=np.int64(11), time_limit=np.float32(2.5))
    assert type(budget.max_p) is int and budget.max_p == 11
    assert exact_hc(gen_path(3), SearchBudget(time_limit=5))[0] == exact_hc(gen_path(3))[0]


def test_budget_fields_cannot_be_reassigned() -> None:
    # assigning skipped the checks: max_p = 2.5 made exact_hc report "exceeds
    # the search budget of 2.5", and time_limit = "5" a bare TypeError
    budget = SearchBudget()
    for field, value in (("max_p", 2.5), ("time_limit", "5")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(budget, field, value)
    assert budget == SearchBudget(max_p=10, time_limit=None)
    assert exact_hc(gen_path(3), budget)[0] == exact_hc(gen_path(3))[0]


def test_exact_is_deterministic() -> None:
    g = gen_union(3, 3)
    first = exact_hc(g)
    second = exact_hc(g)
    assert first[0] == second[0] == 14
    assert first[1].colors == second[1].colors


def test_exact_at_least_lower_bound(corpus) -> None:
    for g in corpus[:60]:
        value, witness = exact_hc(g)
        assert value >= lower_bound(g, detour_profile(g))
        assert witness is not None and validate_coloring(g, list(witness.colors)) == []


def _union_find_twin_groups(rows: list[list[int]], p: int) -> list[int]:
    """The twin classes as first computed: a union-find over every twin pair."""
    parent = list(range(p))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u in range(p):
        for v in range(u + 1, p):
            if all(rows[u][x] == rows[v][x] for x in range(p) if x != u and x != v):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in range(p):
        groups.setdefault(find(v), []).append(v)
    twin_prev = [-1] * p
    for members in groups.values():
        members.sort()
        for a, b in zip(members, members[1:]):
            twin_prev[b] = a
    return twin_prev


def test_twin_groups_match_the_union_find() -> None:
    # _reference_search shares _twin_groups, so it is pinned here on its own
    graphs = [gen_random_block_graph(seed, max_p=12) for seed in range(1000)]
    graphs += [BlockGraph(n, [range(n)]) for n in range(2, 13)]
    graphs += [gen_star(n) for n in range(2, 12)] + [gen_path(n) for n in range(2, 13)]
    graphs += [gen_union(n, k) for n in range(2, 7) for k in range(2, 5) if k * (n - 1) < 12]
    largest = 0
    for g in graphs:
        assert g.p <= 12
        rows = detour_matrix(g).tolist()
        twin_prev = _twin_groups(rows, g.p)
        assert twin_prev == _union_find_twin_groups(rows, g.p), g
        # the length of the longest twin_prev chain is the largest class size
        chain = [1] * g.p
        for v, u in enumerate(twin_prev):
            if u >= 0:
                chain[v] = chain[u] + 1
        largest = max(largest, *chain)
    assert len(graphs) >= 1000 and largest >= 3


def _all_valid_colorings_dominated(g, span_cap: int) -> int:
    """Enumerate every valid coloring with span <= span_cap through its
    sorted ordering and check the forced coloring never does worse.
    Returns the minimum span seen."""
    from itertools import permutations

    d = detour_matrix(g)
    rows = [list(map(int, row)) for row in d]
    need = g.p - 1
    best_seen = span_cap + 1
    sampled = 0

    def colorings_for(order: tuple[int, ...]):
        # each next color must reach the pairwise floor against all placed
        # vertices; anything at or below the cap above that floor is free
        def extend(i: int, colors: list[int]):
            if i == g.p:
                yield list(colors)
                return
            v = order[i]
            floor = max(colors[j] + need - rows[order[j]][v] for j in range(i))
            for value in range(floor, span_cap + 1):
                colors.append(value)
                yield from extend(i + 1, colors)
                colors.pop()

        yield from extend(1, [0])

    for order in permutations(range(g.p)):
        greedy = greedy_min_coloring_for_ordering(g, list(order))
        if greedy.span > span_cap:
            continue
        for col_by_pos in colorings_for(order):
            span = col_by_pos[-1]
            assert greedy.span <= span
            best_seen = min(best_seen, span)
            sampled += 1
            if sampled % 97 == 0:
                colors = [0] * g.p
                for pos, v in enumerate(order):
                    colors[v] = col_by_pos[pos]
                assert validate_coloring(g, colors) == []
    return best_seen


@pytest.mark.parametrize(
    "g",
    [gen_star(3), gen_path(5), gen_union(3, 2), gen_path(6)],
    ids=["star3", "path5", "union32", "path6"],
)
def test_greedy_dominance_small(g) -> None:
    value, _ = exact_hc(g)
    assert _all_valid_colorings_dominated(g, value + 1) == value


def test_exact_matches_unpruned_enumeration(corpus) -> None:
    # reference: minimum forced span over every permutation, no pruning,
    # no twin reduction; the solver must agree exactly
    from itertools import permutations

    checked = 0
    for g in corpus:
        if g.p > 6 or checked >= 12:
            continue
        reference = min(
            greedy_min_coloring_for_ordering(g, list(order)).span
            for order in permutations(range(g.p))
        )
        assert exact_hc(g)[0] == reference, g.meta
        checked += 1
    assert checked == 12


@pytest.mark.parametrize("seed, value", [(29, 28), (33, 36), (38, 39), (58, 36)])
def test_exact_benchmark_graphs(seed: int, value: int) -> None:
    # the values the benchmark's exact workload checks, recomputed there
    # by an exhaustive search that shares no code with this package
    g = gen_random_block_graph(seed, max_p=12)
    got, witness = exact_hc(g, SearchBudget(max_p=12))
    assert got == value
    assert witness is not None and witness.span == value
    assert validate_coloring(g, list(witness.colors)) == []


def _reference_search(g) -> tuple[int, tuple[int, ...]]:
    """The search with the greedy seed, the pending bound and twin order
    only: no level-sum bound and no transposition table."""
    p = g.p
    profile = detour_profile(g)
    lb = lower_bound(g, profile)
    rows = [list(map(int, row)) for row in detour_matrix(g)]
    seed = greedy_min_coloring_for_ordering(g, greedy_ordering(g, profile))
    best_span, best_colors = seed.span, seed.colors
    if best_span <= lb:
        return best_span, best_colors
    twin_prev = _twin_groups(rows, p)
    pending = [0] * p
    used = [False] * p
    colors = [0] * p

    class Certified(Exception):
        pass

    def search(depth: int) -> None:
        nonlocal best_span, best_colors
        candidates = []
        for v in range(p):
            if not used[v] and (twin_prev[v] == -1 or used[twin_prev[v]]):
                candidates.append((pending[v], v))
        candidates.sort()
        for nc, v in candidates:
            if nc >= best_span:
                break
            colors[v] = nc
            if depth + 1 == p:
                best_span, best_colors = nc, tuple(colors)
                if nc <= lb:
                    raise Certified
                return
            used[v] = True
            saved = []
            worst = 0
            row = rows[v]
            for y in range(p):
                if not used[y]:
                    cand = nc + p - 1 - row[y]
                    if cand > pending[y]:
                        saved.append((y, pending[y]))
                        pending[y] = cand
                    if pending[y] > worst:
                        worst = pending[y]
            if worst < best_span:
                search(depth + 1)
            for y, old in saved:
                pending[y] = old
            used[v] = False

    try:
        search(0)
    except Certified:
        pass
    return best_span, best_colors


P10_SEEDS = [17, 29, 30, 34, 35, 48, 56, 74, 81, 94, 95, 116, 120, 122, 129, 130, 141, 155, 161, 163]


def test_exact_prunings_keep_value_and_witness(corpus) -> None:
    # the level-sum bound and the transposition table may only cut
    # orderings that cannot beat the incumbent, so the first optimum the
    # search meets, and with it the witness, is unchanged
    graphs = corpus + [gen_random_block_graph(s, max_p=10) for s in P10_SEEDS]
    assert sum(g.p == 10 for g in graphs) == len(P10_SEEDS)
    for g in graphs:
        value, witness = exact_hc(g)
        assert (value, witness.colors) == _reference_search(g), g.meta
