"""Tests of the benchmark's independent checker against hamcolor's own oracles.

    python3 -m pytest perfbench
"""

import random
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checker import Graph, exhaustive_hc  # noqa: E402
from hamcolor import (  # noqa: E402
    SearchBudget,
    SymmetricSpec,
    brute_longest_path,
    coloring_from_ordering,
    detour_profile,
    exact_hc,
    gen_path,
    gen_random_block_graph,
    gen_symmetric,
    gen_union,
    lower_bound,
    sym_ordering,
    validate_coloring,
)


def _model(h) -> Graph:
    return Graph(h.p, [list(b) for b in h.blocks])


@pytest.mark.parametrize("seed", range(40))
def test_bound_and_violations_agree_with_hamcolor(seed):
    h = gen_random_block_graph(seed, max_p=40)
    g = _model(h)
    profile = detour_profile(h)
    assert g.bound.lower_bound == lower_bound(h, profile)
    assert (g.bound.omega, g.bound.xi, g.bound.total_level) == (
        profile.omega,
        profile.xi,
        profile.total_level,
    )
    rng = random.Random(seed)
    colors = [rng.randrange(3 * h.p) for _ in range(h.p)]
    assert g.violations(colors) == validate_coloring(h, colors)
    assert g.violation_count(colors) == len(validate_coloring(h, colors))


@pytest.mark.parametrize("seed", range(25))
def test_distances_and_eccentricities_match_brute_force(seed):
    h = gen_random_block_graph(seed, max_p=8)
    g = _model(h)
    iu, iv = np.triu_indices(h.p, 1)
    dist = g.distances(iu, iv)
    for u, v, d in zip(iu, iv, dist):
        assert d == brute_longest_path(h, int(u), int(v))
    full = np.zeros((h.p, h.p), dtype=np.int64)
    full[iu, iv] = full[iv, iu] = dist
    assert list(g.eccentricities) == list(full.max(axis=1))


@pytest.mark.parametrize("spec", [(4, 2, 4), (4, 2, 5), (3, 3, 5), (3, 2, 6)])
def test_symmetric_coloring_is_valid_and_corruption_is_flagged(spec):
    h, coords = gen_symmetric(SymmetricSpec(*spec))
    g = _model(h)
    colors = list(coloring_from_ordering(h, detour_profile(h), sym_ordering(h, coords)).colors)
    assert g.violation_count(colors) == 0
    assert max(colors) == g.bound.lower_bound
    corrupted = list(colors)
    u, v = h.blocks[0][:2]
    corrupted[u] = corrupted[v]
    found = g.violations(corrupted)
    assert found and found == validate_coloring(h, corrupted)


def test_all_equal_coloring_counts():
    union = gen_union(4, 3)
    assert not _model(union).block_cut_tree_is_path()
    assert _model(union).violation_count([5] * union.p) == comb(union.p, 2)
    path = _model(gen_path(7))
    assert path.block_cut_tree_is_path()
    # only the two ends are p - 1 apart
    assert path.violation_count([0] * 7) == comb(7, 2) - 1


@pytest.mark.parametrize("seed", range(12))
def test_exhaustive_search_matches_exact_hc(seed):
    h = gen_random_block_graph(seed, max_p=8)
    assert exhaustive_hc(_model(h)) == exact_hc(h, SearchBudget(max_p=8))[0]


def test_colors_must_be_small_non_negative_integers():
    g = _model(gen_path(3))
    for bad in ([0, 1], [0, 1, -1], [0, 1, 2**63], [0, 1, True]):
        with pytest.raises(ValueError):
            g.violation_count(bad)
