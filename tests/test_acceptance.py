"""Acceptance suite: one numbered criterion per test, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion (criterion 3 is parametrized per graph).  Each test also
prints a ``[criterion N] PASS`` line visible with ``-s``.

Known red: criterion 3 expects the half-order condition to fail on
sym(3,3,3).  With the corrected vertex count p = 15 (which the same
criterion's span of 120 requires), every consecutive pair in the
constructed ordering has detour distance 6 <= p/2 = 7.5, so the
condition holds and the assertion fails.  The graphs in this grid whose
orderings genuinely violate the condition are sym(3,2,3), sym(3,2,4)
and sym(4,2,3); all their colorings are nevertheless valid and
bound-matching, which the other assertions here and criterion 5 cover.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from hamcolor import (
    NegativeGapError,
    SymmetricSpec,
    brute_longest_path,
    check_ordering_conditions,
    coloring_from_ordering,
    detour_distance,
    detour_matrix,
    detour_profile,
    exact_hc,
    gen_path,
    gen_star,
    gen_symmetric,
    gen_union,
    lower_bound,
    path_hc,
    phi,
    star_hc,
    sym_hc,
    sym_order_count,
    sym_ordering,
    union_hc,
    validate_coloring,
)
from hamcolor.cli import run as cli_run
from conftest import grid_specs


def _sym_pipeline(spec: SymmetricSpec):
    g, _ = gen_symmetric(spec)
    profile = detour_profile(g)
    ordering = sym_ordering(g, spec)
    coloring = coloring_from_ordering(g, profile, ordering)
    return g, profile, ordering, coloring


@pytest.mark.parametrize(
    "spec,value",
    [(SymmetricSpec(4, 2, 4), 327), (SymmetricSpec(4, 2, 5), 1944)],
    ids=["sym(4,2,4)=327", "sym(4,2,5)=1944"],
)
def test_criterion_1_golden_values(spec: SymmetricSpec, value: int) -> None:
    start = time.perf_counter()
    g, profile, _, coloring = _sym_pipeline(spec)
    assert sym_hc(spec) == value
    assert lower_bound(g, profile) == value
    assert coloring.span == value
    assert validate_coloring(g, list(coloring.colors)) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    print(f"[criterion 1] PASS: {spec} -> {value} in {elapsed:.2f}s")


def test_criterion_2_odd_order_erratum() -> None:
    spec = SymmetricSpec(4, 2, 5)
    g, _ = gen_symmetric(spec)
    assert g.p == 52 and sym_order_count(spec) == 52

    # the naive odd-diameter order form evaluates to 40 here
    n, k, r = spec.n, spec.k, spec.r
    naive = 1 + n + sum(k**i * n ** (i + 1) for i in range(1, r + 1))
    assert naive == 40

    # corrected closed form (n+1)(1 + kn * phi_r(kn)) matches the generator
    # on every odd-diameter grid member
    for grid_spec in grid_specs():
        if grid_spec.diameter % 2 == 0:
            continue
        gn, gk, gr = grid_spec.n, grid_spec.k, grid_spec.r
        corrected = (gn + 1) * (1 + gk * gn * phi(gr, gk * gn))
        built, _ = gen_symmetric(grid_spec)
        assert corrected == sym_order_count(grid_spec) == built.p, grid_spec

    # plugging p = 40 into the span identity breaks the golden value
    profile = detour_profile(g)
    broken = (40 - 1) * (40 - profile.omega) - 2 * profile.total_level + profile.xi
    assert broken == 900
    assert broken != sym_hc(spec) == 1944
    print("[criterion 2] PASS: odd-diameter order count 52 vs naive 40; identity breaks at 900")


@pytest.mark.parametrize(
    "spec,value",
    [
        (SymmetricSpec(3, 2, 3), 24),
        (SymmetricSpec(3, 3, 3), 120),
        (SymmetricSpec(3, 2, 4), 66),
    ],
    ids=["sym(3,2,3)", "sym(3,3,3)", "sym(3,2,4)"],
)
def test_criterion_3_exceptional_trio(spec: SymmetricSpec, value: int) -> None:
    g, profile, ordering, coloring = _sym_pipeline(spec)
    assert validate_coloring(g, list(coloring.colors)) == []
    assert coloring.span == lower_bound(g, profile) == value
    if spec == SymmetricSpec(3, 2, 3):
        exact_value, _ = exact_hc(g)
        assert exact_value == 24
    report = check_ordering_conditions(g, profile, ordering)
    assert report.cond1_endpoints, "endpoint condition unexpectedly failed"
    assert report.cond2_branches, "branch condition unexpectedly failed"
    assert not report.cond3_halfp, (
        f"span, validity and bound match all hold for {spec}, but the criterion also "
        f"expects the half-order condition to fail, and every consecutive detour "
        f"distance is within p/2 = {g.p / 2} (p = {g.p})"
    )
    print(f"[criterion 3] PASS: {spec} -> span {value} with only the half-order condition failing")


@pytest.mark.parametrize(
    "g,value",
    [
        (gen_star(3), star_hc(3)),
        (gen_star(4), star_hc(4)),
        (gen_path(5), path_hc(5)),
        (gen_path(6), path_hc(6)),
        (gen_path(7), path_hc(7)),
        (gen_union(3, 2), union_hc(3, 2)),
        (gen_union(4, 2), union_hc(4, 2)),
        (gen_union(3, 3), union_hc(3, 3)),
    ],
    ids=["star3=4", "star4=9", "path5=6", "path6=10", "path7=14",
         "union32=4", "union42=9", "union33=14"],
)
def test_criterion_4_closed_forms_vs_exact(g, value: int) -> None:
    assert g.p <= 7
    start = time.perf_counter()
    exact_value, witness = exact_hc(g)
    elapsed = time.perf_counter() - start
    assert exact_value == value
    assert witness is not None and validate_coloring(g, list(witness.colors)) == []
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_4_expected_values_pin() -> None:
    assert (star_hc(3), star_hc(4)) == (4, 9)
    assert (path_hc(5), path_hc(6), path_hc(7)) == (6, 10, 14)
    assert (union_hc(3, 2), union_hc(4, 2), union_hc(3, 3)) == (4, 9, 14)
    print("[criterion 4] PASS: eight closed-form values confirmed by exhaustive search")


def test_criterion_5_grid_identity(grid_instances) -> None:
    worst = 0.0
    for spec, g, profile in grid_instances:
        start = time.perf_counter()
        ordering = sym_ordering(g, spec)
        coloring = coloring_from_ordering(g, profile, ordering)
        assert validate_coloring(g, list(coloring.colors)) == [], spec
        assert coloring.span == lower_bound(g, profile) == sym_hc(spec), spec
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 30.0, f"{spec} took {elapsed:.1f}s, budget 30s"
    print(
        f"[criterion 5] PASS: {len(grid_instances)} grid instances valid and bound-matching "
        f"(worst {worst:.1f}s)"
    )


def test_criterion_6_oracle_equivalence(corpus) -> None:
    assert len(corpus) == 200 and all(g.p <= 9 for g in corpus)
    pairs = 0
    for g in corpus:
        for u in range(g.p):
            for v in range(u + 1, g.p):
                assert detour_distance(g, u, v) == brute_longest_path(g, u, v), (g.meta, u, v)
                pairs += 1
    for g in corpus:
        value, witness = exact_hc(g)
        assert value >= lower_bound(g, detour_profile(g)), g.meta
        assert witness is not None and validate_coloring(g, list(witness.colors)) == [], g.meta
    print(f"[criterion 6] PASS: {pairs} distance pairs agree; 200 exact solves bounded and certified")


def test_criterion_7_property_suites(grid_instances, corpus) -> None:
    # detour inequality plus the stated equality direction, vectorized per grid graph
    for spec, g, profile in grid_instances:
        dmat = detour_matrix(g)
        levels = np.array(profile.level, dtype=np.int64)
        cap = levels[:, None] + levels[None, :] + profile.omega - 1
        off_diag = ~np.eye(g.p, dtype=bool)
        assert (dmat[off_diag] <= cap[off_diag]).all(), spec
        owner = np.array(profile.owner)
        oblock = np.array(profile.owner_block)
        both = (owner[:, None] >= 0) & (owner[None, :] >= 0)
        if profile.omega == 1:
            mask = both & (oblock[:, None] != oblock[None, :])
        else:
            mask = both & (owner[:, None] != owner[None, :])
        assert (dmat[mask] == cap[mask]).all(), spec

    # telescoping span identity on 100 random orderings per grid graph
    rng = random.Random(20240)
    for spec, g, profile in grid_instances:
        for _ in range(100):
            order = list(range(g.p))
            rng.shuffle(order)
            try:
                coloring = coloring_from_ordering(g, profile, order)
            except NegativeGapError:
                continue
            expected = (
                (g.p - 1) * (g.p - profile.omega)
                - 2 * profile.total_level
                + profile.level[order[0]]
                + profile.level[order[-1]]
            )
            assert coloring.span == expected, spec

    # greedy dominance on every pool instance with p <= 6
    from test_exact import _all_valid_colorings_dominated

    pool = [gen_star(3), gen_star(4), gen_path(5), gen_path(6), gen_union(3, 2)]
    pool += [g for g in corpus if g.p <= 6][:20]
    for g in pool:
        value, _ = exact_hc(g)
        assert _all_valid_colorings_dominated(g, value + 1) == value
    print(f"[criterion 7] PASS: inequality/equality, telescoping, dominance on {len(pool)} small graphs")


def test_criterion_8_strictness_witnesses() -> None:
    union = gen_union(4, 2)
    union_bound = lower_bound(union, detour_profile(union))
    union_exact, _ = exact_hc(union)
    assert union_bound == 3 and union_exact == 9 and union_bound < union_exact

    path = gen_path(5)
    path_bound = lower_bound(path, detour_profile(path))
    path_exact, _ = exact_hc(path)
    assert path_bound == 5 and path_exact == 6 and path_bound < path_exact
    print("[criterion 8] PASS: bound 3 < 9 on the two-clique union; bound 5 < 6 on the 5-path")


def test_criterion_9_cli_contract(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    assert cli_run(
        ["gen", "sym", "--block-size", "4", "--cut-degree", "2", "--diameter", "4",
         "-o", str(graph)]
    ) == 0
    assert cli_run(["color", str(graph), "-o", str(coloring)]) == 0
    assert "span=327" in capsys.readouterr().out
    assert cli_run(["verify", str(graph), str(coloring)]) == 0
    assert "327" in capsys.readouterr().out

    corrupted = json.loads(coloring.read_text())
    corrupted["colors"][5] = corrupted["colors"][11]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupted))
    assert cli_run(["verify", str(graph), str(bad)]) == 1

    big = tmp_path / "p20.json"
    assert cli_run(["gen", "path", "-n", "20", "-o", str(big)]) == 0
    assert cli_run(["exact", str(big)]) == 3
    capsys.readouterr()
    print("[criterion 9] PASS: pipeline exits 0 at span 327; corrupt verify 1; oversized exact 3")
