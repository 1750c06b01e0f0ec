from __future__ import annotations

import pytest

from hamcolor import (
    BlockGraph,
    InvalidSpecError,
    OutOfStatedRangeWarning,
    SymmetricSpec,
    detour_profile,
    gen_symmetric,
    gen_union,
    lower_bound,
    path_hc,
    phi,
    star_hc,
    sym_hc,
    sym_order_count,
    sym_total_level,
    union_hc,
)
from conftest import grid_specs


def test_phi_values() -> None:
    assert phi(2, 3) == 4
    assert phi(1, 7) == 1
    assert phi(3, 2) == 7
    assert phi(0, 5) == 0
    assert phi(3, 1) == 3  # x = 1 has no geometric closed form
    assert phi(5, 1) == 5
    with pytest.raises(InvalidSpecError):
        phi(-1, 2)
    with pytest.raises(InvalidSpecError):
        phi(2, 0)


def _summed_phi(r: int, x: int) -> int:
    """phi by its definition, the loop the closed form replaced."""
    total, power = 0, 1
    for _ in range(r):
        total += power
        power *= x
    return total


def test_phi_closed_form_matches_the_sum() -> None:
    for r in range(51):
        for x in range(1, 10):
            assert phi(r, x) == _summed_phi(r, x), (r, x)


def test_lower_bound_golden_even_case() -> None:
    g, _ = gen_symmetric(SymmetricSpec(4, 2, 4))
    profile = detour_profile(g)
    assert (g.p - 1, profile.omega, profile.total_level, profile.xi) == (24, 1, 126, 3)
    assert lower_bound(g, profile) == 24 * 24 - 252 + 3 == 327


def test_lower_bound_complete_graph_is_zero() -> None:
    g = BlockGraph(6, [range(6)])
    assert lower_bound(g, detour_profile(g)) == 0


def test_lower_bound_union_is_three() -> None:
    g = gen_union(4, 2)
    profile = detour_profile(g)
    assert profile.total_level == 18 and profile.xi == 3
    assert lower_bound(g, profile) == 3


def test_sym_order_count_and_level() -> None:
    assert sym_order_count(SymmetricSpec(4, 2, 4)) == 25
    assert sym_total_level(SymmetricSpec(4, 2, 4)) == 126
    assert sym_order_count(SymmetricSpec(4, 2, 5)) == 52
    assert sym_total_level(SymmetricSpec(4, 2, 5)) == 252
    assert sym_order_count(SymmetricSpec(3, 2, 4)) == 13
    assert sym_total_level(SymmetricSpec(3, 2, 4)) == 40


def test_odd_order_count_naive_form_undercounts() -> None:
    # the tempting 1 + n + sum(k^i * n^(i+1)) gives 40 for (4, 2, 5); the
    # actual graph has 52 vertices and only the branching-aware form fits
    spec = SymmetricSpec(4, 2, 5)
    n, k, r = spec.n, spec.k, spec.r
    naive = 1 + n + sum(k**i * n ** (i + 1) for i in range(1, r + 1))
    assert naive == 40
    assert sym_order_count(spec) == gen_symmetric(spec)[0].p == 52


def test_formula_rejects_unbranched_family() -> None:
    with pytest.raises(InvalidSpecError):
        sym_order_count(SymmetricSpec(2, 2, 5))
    with pytest.raises(InvalidSpecError):
        sym_hc(SymmetricSpec(2, 2, 5))
    with pytest.raises(InvalidSpecError):
        sym_hc(SymmetricSpec(4, 2, 2))


def test_sym_hc_golden_values() -> None:
    assert sym_hc(SymmetricSpec(4, 2, 4)) == 327
    assert sym_hc(SymmetricSpec(4, 2, 5)) == 1944
    assert sym_hc(SymmetricSpec(3, 2, 4)) == 66


def test_sym_hc_matches_bound_pipeline_on_grid() -> None:
    big = [SymmetricSpec(10, 5, 11), SymmetricSpec(7, 4, 12), SymmetricSpec(2, 6, 15)]
    for spec in grid_specs() + big:
        p = sym_order_count(spec)
        omega = 1 if spec.diameter % 2 == 0 else spec.block_size
        xi_val = spec.n if spec.diameter % 2 == 0 else 0
        pipeline = (p - 1) * (p - omega) - 2 * sym_total_level(spec) + xi_val
        assert sym_hc(spec) == pipeline, spec


def test_total_level_matches_measured_level_on_small_grid() -> None:
    for spec in grid_specs():
        if sym_order_count(spec) > 400:
            continue
        g, _ = gen_symmetric(spec)
        assert detour_profile(g).total_level == sym_total_level(spec), spec


def test_family_values() -> None:
    assert star_hc(3) == 4
    assert star_hc(4) == 9
    assert path_hc(5) == 6
    assert path_hc(6) == 10
    assert path_hc(7) == 14
    assert union_hc(4, 2) == 9
    assert union_hc(4, 3) == 30
    assert union_hc(3, 3) == 14
    assert union_hc(3, 4) == 34



@pytest.mark.parametrize(
    "formula, args, message",
    [
        (star_hc, (0,), "star needs >= 1 leaf, got 0"),
        (path_hc, (1,), "path needs >= 2 vertices, got 1"),
        (union_hc, (1, 2), "union needs n >= 2 and k >= 1, got (1, 2)"),
        (union_hc, (3, 0), "union needs n >= 2 and k >= 1, got (3, 0)"),
    ],
)
def test_family_formulas_reject_sizes_outside_the_family(formula, args, message) -> None:
    with pytest.raises(InvalidSpecError) as caught:
        formula(*args)
    assert str(caught.value) == message


def test_union_of_edges_matches_star() -> None:
    for k in range(3, 9):
        assert union_hc(2, k) == star_hc(k) == (k - 1) ** 2


def test_tree_row_matches_two_center_form() -> None:
    # symmetric trees are the m=2 rows: the pipeline reproduces the
    # (p-1)(p-1-eps) + eps' - 2L form with eps = 0/1 for one/two centers
    for spec in grid_specs():
        if spec.block_size != 2:
            continue
        p = sym_order_count(spec)
        level = sym_total_level(spec)
        eps = 0 if spec.diameter % 2 == 0 else 1
        eps_prime = 1 - eps
        assert sym_hc(spec) == (p - 1) * (p - 1 - eps) + eps_prime - 2 * level, spec


def test_out_of_range_warns_but_computes() -> None:
    with pytest.warns(OutOfStatedRangeWarning):
        assert star_hc(2) == 1
    with pytest.warns(OutOfStatedRangeWarning):
        assert path_hc(4) == 4
    with pytest.warns(OutOfStatedRangeWarning):
        union_hc(3, 1)
