from __future__ import annotations

import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (
    cut_vertices,
    grid_specs,
    hop_diameter,
    reference_coordinates,
    relabeled,
    vertex_blocks,
)

import hamcolor.families
from hamcolor import (
    BlockGraph,
    InvalidSpecError,
    NegativeGapError,
    NotSymmetricError,
    SymmetricSpec,
    color_graph,
    coloring_from_ordering,
    detour_profile,
    from_json,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    path_hc,
    phi,
    star_hc,
    sym_order_count,
    sym_ordering,
    symmetric_coordinates,
    to_json,
    union_hc,
)


def test_sym_even_shape() -> None:
    g, spec = gen_symmetric(SymmetricSpec(4, 2, 4))
    assert g.p == 25
    assert spec.diameter % 2 == 0
    assert detour_profile(g).center == (0,)
    # the ordering closes with the depth-1 list, the even diameter's stream roots
    top_list = tuple(sym_ordering(g, spec)[-spec.cut_degree * spec.n :].tolist())
    assert top_list == (1, 2, 3, 4, 5, 6)
    level = detour_profile(g).level
    assert all(level[v] // spec.n == 1 for v in top_list)
    # consecutive entries of the top list sit in different blocks at the center
    incidence = vertex_blocks(g)
    for a, b in zip(top_list, top_list[1:]):
        assert not set(incidence[a]) & set(incidence[b])


def test_sym_odd_shape() -> None:
    g, spec = gen_symmetric(SymmetricSpec(4, 2, 5))
    assert g.p == 52
    assert spec.diameter % 2 == 1
    assert detour_profile(g).center == (0, 1, 2, 3)
    assert set(g.blocks[0]) == {0, 1, 2, 3}


def test_sym_small_hand_count() -> None:
    g, _ = gen_symmetric(SymmetricSpec(3, 2, 3))
    assert g.p == 9  # central triangle plus one pendant triangle per corner


@pytest.mark.parametrize(
    "spec",
    [
        SymmetricSpec(3, 2, 4),
        SymmetricSpec(3, 3, 3),
        SymmetricSpec(4, 3, 5),
        SymmetricSpec(2, 3, 6),
        SymmetricSpec(5, 2, 7),
    ],
)
def test_sym_structure_invariants(spec: SymmetricSpec) -> None:
    g, _ = gen_symmetric(spec)
    assert hop_diameter(g) == spec.diameter
    incidence, cuts = vertex_blocks(g), cut_vertices(g)
    for v in range(g.p):
        if v in cuts:
            assert len(incidence[v]) == spec.cut_degree
        else:
            assert len(incidence[v]) == 1
    # detour level of a depth-i vertex is i * n
    profile = detour_profile(g)
    depth = reference_coordinates(g, profile)["depth"]
    for v in range(g.p):
        assert profile.level[v] == depth[v] * spec.n


def test_sym_path_degenerate_family() -> None:
    g, spec = gen_symmetric(SymmetricSpec(2, 2, 4))
    assert g.p == 5
    assert spec.diameter % 2 == 0
    assert all(len(b) == 2 for b in g.blocks)


def test_sym_rejects_bad_parameters() -> None:
    with pytest.raises(InvalidSpecError):
        SymmetricSpec(1, 2, 4)
    with pytest.raises(InvalidSpecError):
        SymmetricSpec(3, 1, 4)
    with pytest.raises(InvalidSpecError):
        SymmetricSpec(3, 2, 1)


def test_coordinates_rederive_from_structure() -> None:
    for spec in (SymmetricSpec(3, 3, 4), SymmetricSpec(4, 2, 5)):
        g, generated = gen_symmetric(spec)
        assert generated == symmetric_coordinates(g) == spec
        assert symmetric_coordinates(relabeled(g, 1)) == spec


def test_coordinates_reject_non_symmetric() -> None:
    with pytest.raises(NotSymmetricError):
        symmetric_coordinates(gen_random_block_graph(0, max_p=9))
    with pytest.raises(NotSymmetricError):
        symmetric_coordinates(BlockGraph(5, [range(5)]))
    # uniform block size and cut degree, but end vertices at unequal depths
    lopsided = BlockGraph(
        8, [{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}, {4, 6}, {4, 7}]
    )
    with pytest.raises(NotSymmetricError):
        symmetric_coordinates(lopsided)


def test_coordinates_reject_mixed_cut_degrees() -> None:
    # every block has two vertices, but vertex 1 is in three and vertex 3 in two
    g = BlockGraph(5, [[0, 1], [1, 2], [1, 3], [3, 4]])
    with pytest.raises(NotSymmetricError) as caught:
        symmetric_coordinates(g)
    assert str(caught.value) == "cut vertices have mixed block degrees [2, 3]"
    assert color_graph(g).method == "greedy"


def test_coordinates_check_block_sizes_before_asking_for_the_profile(monkeypatch) -> None:
    asked = []
    monkeypatch.setattr(
        hamcolor.families, "detour_profile", lambda g: asked.append(g) or detour_profile(g)
    )
    mixed = gen_random_block_graph(0, max_p=9)
    assert len({len(b) for b in mixed.blocks}) > 1
    with pytest.raises(NotSymmetricError):
        symmetric_coordinates(mixed)
    assert asked == []
    union = gen_union(4, 3)
    symmetric_coordinates(union)
    assert asked == [union]


def test_gen_union_shapes() -> None:
    g = gen_union(4, 2)
    assert g.p == 7 and len(g.blocks) == 2
    assert gen_union(2, 3) == gen_star(3)
    assert gen_union(3, 3).p == 7


def test_gen_union_equals_diameter_two_symmetric() -> None:
    assert symmetric_coordinates(gen_union(4, 3)) == SymmetricSpec(4, 3, 2)


def test_gen_path_and_star() -> None:
    assert len(gen_path(5).blocks) == 4
    assert gen_path(2).p == 2
    assert gen_star(3).p == 4
    with pytest.raises(InvalidSpecError):
        gen_path(1)
    with pytest.raises(InvalidSpecError):
        gen_star(1)
    with pytest.raises(InvalidSpecError):
        gen_union(4, 1)


def test_random_generator_rejects_blocks_below_two_vertices() -> None:
    # random.randint(2, 1) raised a bare ValueError from the RNG
    for size in (1, 0, -3):
        with pytest.raises(InvalidSpecError, match=f"^max_block_size must be >= 2, got {size}$"):
            gen_random_block_graph(1, max_p=10, max_block_size=size)


def test_random_generator_rejects_max_p_below_two() -> None:
    with pytest.raises(InvalidSpecError, match="^max_p must be >= 2, got 1$"):
        gen_random_block_graph(1, 1)


def test_sizes_must_be_integers() -> None:
    # floats raised a bare TypeError or ValueError or were taken as sizes:
    # path_hc(5.0) returned 6.0 and star_hc(2.5) 2.25, SymmetricSpec(3, 2, 4.5)
    # was accepted, and gen_path(True) reported "got True"
    cases = [
        (gen_path, (3.0,), "vertex count 3.0"),
        (gen_path, (True,), "vertex count True"),
        (gen_star, (2.5,), "leaf count 2.5"),
        (gen_union, (3.0, 2), "block size 3.0"),
        (gen_union, (3, 2.0), "copy count 2.0"),
        (SymmetricSpec, (3.0, 2, 4), "block size 3.0"),
        (SymmetricSpec, (3, True, 4), "cut degree True"),
        (SymmetricSpec, (3, 2, 4.5), "diameter 4.5"),
        (gen_random_block_graph, (1, 10.5), "max_p 10.5"),
        (gen_random_block_graph, (1, 10, 3.0), "max_block_size 3.0"),
        (gen_random_block_graph, (1, 10, 3, "3"), "max_blocks_per_cut '3'"),
        (path_hc, (5.0,), "vertex count 5.0"),
        (star_hc, (2.5,), "leaf count 2.5"),
        (union_hc, (3, 2.0), "copy count 2.0"),
        (phi, (2, 2.0), "x 2.0"),
    ]
    for call, args, what in cases:
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(what)} is not an integer$"):
            call(*args)
    # numpy integers are integers, kept as Python ints
    spec = SymmetricSpec(np.int64(3), np.int32(2), np.uint8(4))
    assert spec == SymmetricSpec(3, 2, 4) and type(spec.diameter) is int
    assert to_json(gen_path(np.int64(3))) == to_json(gen_path(3))
    assert path_hc(np.int16(7)) == path_hc(7) and type(star_hc(np.int8(4))) is int


def test_random_generator_is_deterministic() -> None:
    a = gen_random_block_graph(1, max_p=9)
    b = gen_random_block_graph(1, max_p=9)
    assert to_json(a) == to_json(b)
    assert a.p <= 9


def _rescanning_random_block_graph(seed, max_p, max_block_size, max_blocks_per_cut):
    """The generator's loop as it was, rescanning every vertex for each block."""
    rng = random.Random(seed)
    target = rng.randint(2, max_p)
    first = rng.randint(2, min(max_block_size, target))
    blocks = [list(range(first))]
    blocks_at = [1] * first
    p = first
    while p < target:
        size = rng.randint(2, min(max_block_size, target - p + 1))
        candidates = [v for v in range(p) if blocks_at[v] < max_blocks_per_cut]
        attach = rng.choice(candidates) if candidates else rng.randrange(p)
        blocks.append([attach] + list(range(p, p + size - 1)))
        blocks_at[attach] += 1
        blocks_at.extend([1] * (size - 1))
        p += size - 1
    return BlockGraph(p, blocks, meta={"family": "random", "seed": seed})


def test_random_generator_matches_the_rescanning_loop() -> None:
    for seed in range(200):
        for max_p in (2, 9, 40, 300):
            for size, cap in ((5, 3), (2, 1), (3, 2), (4, 10), (2, 0)):
                want = to_json(_rescanning_random_block_graph(seed, max_p, size, cap))
                assert to_json(gen_random_block_graph(seed, max_p, size, cap)) == want


def _list_symmetric(spec: SymmetricSpec) -> BlockGraph:
    """The symmetric generator's loop as it was, one Python list per block."""
    m, kappa, d = spec.block_size, spec.cut_degree, spec.diameter
    n, k, r = spec.n, spec.k, spec.r
    blocks: list[list[int]] = []

    def grow_branch(root: int, start_depth: int, next_id: int) -> int:
        current = [root]
        for _ in range(start_depth, r + 1):
            nxt: list[int] = []
            for par in current:
                child_blocks: list[list[int]] = [[par] for _ in range(k)]
                for i in range(k * n):
                    child_blocks[i % k].append(next_id)
                    nxt.append(next_id)
                    next_id += 1
                blocks.extend(child_blocks)
            current = nxt
        return next_id

    if d % 2 == 0:
        top_blocks: list[list[int]] = [[0] for _ in range(kappa)]
        next_id = 1
        depth1: list[int] = []
        for t in range(kappa * n):
            top_blocks[t % kappa].append(next_id)
            depth1.append(next_id)
            next_id += 1
        blocks.extend(top_blocks)
        for root in depth1:
            next_id = grow_branch(root, 2, next_id)
    else:
        blocks.append(list(range(m)))
        next_id = m
        for c in range(m):
            next_id = grow_branch(c, 1, next_id)

    g = BlockGraph(
        next_id,
        blocks,
        meta={"family": "symmetric", "block_size": m, "cut_degree": kappa, "diameter": d},
    )
    found = symmetric_coordinates(g)
    if found != spec:
        raise AssertionError(f"generator produced {found}, wanted {spec}")
    return g


def _outcome(make, spec: SymmetricSpec):
    """make(spec), or the type and message of the error it raised."""
    try:
        return make(spec)
    except Exception as exc:  # the error is the outcome under test
        return type(exc), str(exc)


def test_array_symmetric_generator_matches_the_list_loop() -> None:
    compared = 0
    for m in range(2, 7):
        for kappa in range(2, 7):
            for d in range(2, 9):
                spec = SymmetricSpec(m, kappa, d)
                order = d + 1 if spec.k * spec.n < 2 else sym_order_count(spec)  # paths
                if order > 20_000:
                    continue
                want = _outcome(_list_symmetric, spec)
                got = _outcome(lambda s: gen_symmetric(s)[0], spec)
                if isinstance(want, tuple):
                    assert got == want, spec
                    continue
                assert to_json(got) == to_json(want), spec
                # the closed form's array is already canonical
                assert BlockGraph(got.p, got.blocks) == got, spec
                compared += 1
    assert compared == 162


@pytest.mark.parametrize("stage", ["gen-to-json", "parse-and-color"])
def test_symmetric_pipeline_memory_is_flat_arrays(stage: str) -> None:
    # Peak traced bytes per vertex on sym(5,6,7), p = 42,105.  With a Python
    # list per block, an argsorted ordering and p-sized temporaries kept to
    # the end of each stage, generating and writing peaked at 214 and parsing
    # and coloring a relabeling at 193; the flat arrays take about 138 and 135.
    spec = SymmetricSpec(5, 6, 7)
    color_graph(from_json(to_json(gen_symmetric(SymmetricSpec(3, 3, 4))[0])))  # numpy's caches
    text = to_json(relabeled(gen_symmetric(spec)[0], 1))
    tracemalloc.start()
    try:
        if stage == "gen-to-json":
            to_json(gen_symmetric(spec)[0])
        else:
            color_graph(from_json(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 42_105 < 170, peak / 42_105


def _sym_567_text() -> str:
    """A relabeled sym(5,6,7), p = 42,105, as JSON, with numpy's caches warmed first."""
    color_graph(from_json(to_json(gen_symmetric(SymmetricSpec(3, 3, 4))[0])))
    return to_json(relabeled(gen_symmetric(SymmetricSpec(5, 6, 7))[0], 3))


def test_parse_lets_go_of_the_document_before_sorting() -> None:
    # Peak traced bytes per vertex of from_json on a relabeled sym(5,6,7).
    # Holding the decoded document through the canonical sort peaked at 128;
    # turning the blocks into two arrays and dropping it first takes 109.
    texts = [_sym_567_text()]
    tracemalloc.start()
    try:
        g = from_json(texts.pop())  # the call holds the only reference to the text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.p == 42_105 and peak / g.p < 118, peak / g.p


def test_coloring_result_keeps_arrays_and_builds_the_tuple_on_read() -> None:
    # Bytes per vertex that color_graph's result and the graph's caches keep on
    # a relabeled sym(5,6,7).  A tuple of colors and three profile tuples kept
    # 72; the int32 profile rows, the ordering and the int64 colors keep 28,
    # and reading .colors then builds the tuple, 40 more.
    g = from_json(_sym_567_text())
    tracemalloc.start()
    try:
        result = color_graph(g)
        kept = tracemalloc.get_traced_memory()[0]
        colors = result.coloring.colors
        with_tuple = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(colors) == g.p and result.coloring.span == max(colors)
    assert kept / g.p < 36, kept / g.p
    assert (with_tuple - kept) / g.p > 30, (with_tuple - kept) / g.p


def _traced(call, g):
    """call(g), with g's detour profile cached and numpy's caches warmed on a
    small graph: the result and the bytes per vertex that the call keeps and
    peaks at."""
    call(gen_symmetric(SymmetricSpec(3, 3, 4))[0])
    detour_profile(g)
    tracemalloc.start()
    try:
        result = call(g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept / g.p, peak / g.p


def test_symmetric_coordinates_keep_no_table() -> None:
    # On a relabeled sym(5,6,7), p = 42,105.  Five per-vertex coordinate
    # arrays built by pointer doubling kept 40 bytes per vertex and peaked
    # at 61.6; a child table and child_row kept 8 and peaked at about 17.
    # Recognizing the graph keeps only its spec and peaks at about 9.
    g = relabeled(gen_symmetric(SymmetricSpec(5, 6, 7))[0], 1)
    spec, kept, peak = _traced(symmetric_coordinates, g)
    assert spec == SymmetricSpec(5, 6, 7)
    assert kept < 0.05 and peak < 10, (kept, peak)  # no per-vertex array is kept


def test_sym_ordering_builds_the_child_table() -> None:
    # sym_ordering builds the child table itself, after its spec check,
    # and peaks at about 17 bytes per vertex with the int32 ordering.
    g = relabeled(gen_symmetric(SymmetricSpec(5, 6, 7))[0], 1)
    ordering, _, peak = _traced(lambda h: sym_ordering(h, symmetric_coordinates(h)), g)
    assert len(ordering) == g.p and peak < 18, peak


def test_random_corpus_all_valid_and_varied(corpus) -> None:
    # construction went through BlockGraph, so validity is implied;
    # spot-check the distribution covers the intended shapes
    assert all(2 <= g.p <= 9 for g in corpus)
    assert any(len(g.blocks) == 1 for g in corpus)
    assert any(len(g.blocks) > 1 and all(len(b) == 2 for b in g.blocks) for g in corpus)
    assert any(len({len(b) for b in g.blocks}) > 1 for g in corpus)


# -- loop references for the array-based symmetric layer ---------------------

def _reference_ordering(g, ref: dict) -> list[int]:
    """Rename every branch's descendants slot by slot, then interleave the branches."""
    spec = ref["spec"]
    x = spec.k * spec.n
    streams, max_len = (
        (spec.cut_degree * spec.n, spec.r - 1) if ref["parity"] == "even" else (spec.n + 1, spec.r)
    )
    size = sum(x**a for a in range(1, max_len + 1))
    renamed = [[None] * size for _ in range(streams)]
    for v in range(g.p):
        tup = ref["path_tuple"][v]
        if tup:
            j = sum(idx * x**a for a, idx in enumerate(tup))
            j += sum(x**a for a in range(len(tup) + 1, max_len + 1))
            assert renamed[ref["branch"][v] - 1][j] is None
            renamed[ref["branch"][v] - 1][j] = v
    if ref["parity"] == "even":
        head, tail = ref["roots"][0], list(ref["top_list"])
    else:
        head, tail = ref["roots"][-1], list(ref["roots"][:-1])
    middle = [renamed[t][s] for s in range(size) for t in range(streams)]
    assert None not in middle
    return [head, *middle, *tail]


def _reference_recurrence(g, profile, order):
    colors = [0] * g.p
    current = 0
    for i in range(g.p - 1):
        gap = g.p - 1 - profile.level[order[i]] - profile.level[order[i + 1]] - profile.omega + 1
        if gap < 0:
            return ("negative", i, gap)
        current += gap
        colors[order[i + 1]] = current
    return tuple(colors)


def _assert_coordinates_match(g, profile, spec, ref: dict) -> np.ndarray:
    """spec, g's detour center and sym_ordering(g, spec) equal the reference's.

    The ordering reads every row of sym_ordering's child table, so a wrong
    table shows up as a wrong ordering.  Returns the ordering.
    """
    assert (spec, profile.center) == (ref["spec"], ref["roots"]), g
    ordering = sym_ordering(g, spec)
    assert ordering.tolist() == _reference_ordering(g, ref), g
    return ordering


def test_array_symmetric_layer_matches_loop_reference(corpus) -> None:
    graphs = list(corpus)
    for spec in grid_specs():
        g, _ = gen_symmetric(spec)
        graphs += [g] + [relabeled(g, seed) for seed in range(3)]
    graphs += [gen_path(n) for n in range(2, 16)] + [gen_star(n) for n in range(2, 12)]
    graphs += [gen_union(n, k) for n in range(2, 6) for k in range(2, 5)]
    graphs += [relabeled(gen_union(4, 3), 1), relabeled(gen_path(9), 2)]
    accepted = 0
    for g in graphs:
        profile = detour_profile(g)
        try:
            ref = reference_coordinates(g, profile)
        except NotSymmetricError:
            with pytest.raises(NotSymmetricError):
                symmetric_coordinates(g)
            continue
        accepted += 1
        ordering = _assert_coordinates_match(g, profile, symmetric_coordinates(g), ref)
        expected = _reference_recurrence(g, profile, ordering)
        if expected[0] == "negative":
            with pytest.raises(NegativeGapError) as caught:
                coloring_from_ordering(g, profile, ordering)
            assert (caught.value.index, caught.value.gap) == expected[1:]
        else:
            assert coloring_from_ordering(g, profile, ordering).colors == expected
    assert accepted > len(grid_specs()) * 4


def _uniform_block_graph(rng: random.Random, m: int, kappa: int, grows: int) -> BlockGraph:
    """A random block graph, relabeled, whose blocks all have m vertices and
    whose cut vertices each lie in kappa blocks: from one block, grows times
    a vertex still in one block takes kappa - 1 new blocks."""
    blocks, ends, p = [list(range(m))], list(range(m)), m
    for _ in range(grows):
        v = ends.pop(rng.randrange(len(ends)))
        for _ in range(kappa - 1):
            blocks.append([v, *range(p, p + m - 1)])
            ends += range(p, p + m - 1)
            p += m - 1
    perm = list(range(p))
    rng.shuffle(perm)
    return BlockGraph(p, [[perm[v] for v in b] for b in blocks])


REACHABLE = (
    "a symmetric block graph has at least two blocks",
    "blocks have mixed sizes ",
    "cut vertices have mixed block degrees ",
    "every central vertex must carry its own branches",
    "end vertices sit at unequal depths",
)


def test_detection_on_uniform_block_graphs_matches_the_reference(corpus) -> None:
    # Graphs of one block size and one cut degree pass the first three checks
    # and reach the two on the detour center and the depths; the reference
    # derives the coordinates layer by layer with every check it ever had,
    # and its ordering checks sym_ordering's child table on every accepted graph.
    rng = random.Random(31)
    graphs = list(corpus) + [
        _uniform_block_graph(rng, rng.randint(2, 5), rng.randint(2, 4), rng.randint(1, 6))
        for _ in range(2400)
    ]
    raised, accepted = Counter(), 0
    for g in graphs:
        profile = detour_profile(g)
        try:
            ref = reference_coordinates(g, profile)
        except NotSymmetricError:
            ref = None
        try:
            spec = symmetric_coordinates(g)
        except NotSymmetricError as exc:
            assert ref is None, g
            raised[str(exc)] += 1
            continue
        assert ref is not None, g
        _assert_coordinates_match(g, profile, spec, ref)
        accepted += 1
    assert all(message.startswith(REACHABLE) for message in raised), raised
    assert raised[REACHABLE[3]] >= 100 and raised[REACHABLE[4]] >= 100, raised
    assert accepted >= 500, accepted
