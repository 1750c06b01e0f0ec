from __future__ import annotations

import ast
import json
import random
import re
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from conftest import neighbours
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import _run as run_cli
from test_cli_fuzz import block_lists, json_values

from hamcolor import (
    BlockGraph,
    CyclicBlockStructureError,
    DanglingVertexError,
    DisconnectedError,
    HamcolorError,
    InvalidSpecError,
    OverlappingBlocksError,
    SymmetricSpec,
    detour_profile,
    from_json,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    to_dot,
    to_json,
)


def test_build_star_k13() -> None:
    g = BlockGraph(4, [{0, 1}, {0, 2}, {0, 3}])
    assert len(g.blocks) == 3
    bct = g.block_cut_tree()
    assert np.flatnonzero(bct.anchor >= bct.block_count).tolist() == [0]
    assert neighbours(g)[0] == (1, 2, 3)


def test_build_two_cliques_sharing_one_vertex() -> None:
    g = BlockGraph(7, [{0, 1, 2, 3}, {3, 4, 5, 6}])
    bct = g.block_cut_tree()
    assert np.flatnonzero(bct.anchor >= bct.block_count).tolist() == [3]
    assert len(g.blocks) == 2


def test_hash_agrees_with_equality_across_block_orders() -> None:
    g = BlockGraph(6, [[0, 1, 2], [2, 3], [3, 4, 5]])
    h = BlockGraph(6, [[5, 4, 3], [3, 2], [2, 1, 0]])
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1


def test_build_rejects_overlapping_blocks() -> None:
    with pytest.raises(OverlappingBlocksError):
        BlockGraph(5, [{0, 1, 2}, {1, 2, 3, 4}])


def test_build_rejects_disconnected() -> None:
    with pytest.raises(DisconnectedError):
        BlockGraph(4, [{0, 1}, {2, 3}])


def test_build_rejects_cyclic_block_structure() -> None:
    with pytest.raises(CyclicBlockStructureError):
        BlockGraph(3, [{0, 1}, {1, 2}, {0, 2}])


def test_build_rejects_dangling_vertex() -> None:
    with pytest.raises(DanglingVertexError):
        BlockGraph(3, [{0, 1}])


def test_dangling_rejection_is_proportional_to_input() -> None:
    # 30 million declared vertices, one block: rejecting it must not
    # allocate per-vertex structures
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DanglingVertexError, match="vertex 2 appears in no block"):
            BlockGraph(30_000_000, [[0, 1]])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1_000_000


def test_dangling_reports_smallest_missing_vertex() -> None:
    with pytest.raises(DanglingVertexError, match="vertex 0 appears"):
        BlockGraph(4, [[1, 2], [2, 3]])
    with pytest.raises(DanglingVertexError, match="vertex 2 appears"):
        BlockGraph(6, [[0, 1], [1, 3], [3, 4, 5]])
    with pytest.raises(DanglingVertexError, match="vertex 4 appears"):
        BlockGraph(5, [[0, 1], [1, 2, 3]])


@pytest.mark.parametrize(
    ("p", "blocks", "error", "message"),
    [
        # every id fits 0..p-1 but not int64, and two ids cannot cover p
        (2**70, [[0, 2**65]], DanglingVertexError, "vertex 1 appears in no block"),
        # the out-of-range block sorts before the one that is too small
        (5, [[3], [0, 2**70]], InvalidSpecError, f"block (0, {2**70}) uses ids outside 0..4"),
    ],
    ids=["ids-beyond-int64", "range-before-size"],
)
def test_malformed_lists_beyond_int64_name_their_first_fault(p, blocks, error, message) -> None:
    with pytest.raises(error) as caught:
        BlockGraph(p, blocks)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    ("p", "blocks", "error", "message"),
    [
        (5, [{0, 1, 2}, {1, 2, 3, 4}], OverlappingBlocksError,
         "blocks (0, 1, 2) and (1, 2, 3, 4) share two or more vertices"),
        (7, [{0, 1, 2}, {1, 2, 3}, {4, 5, 6}], OverlappingBlocksError,
         "blocks (0, 1, 2) and (1, 2, 3) share two or more vertices"),
        (6, [{0, 1, 2}, {1, 2, 3}, {3, 4}, {4, 5}, {5, 0}], OverlappingBlocksError,
         "blocks (0, 1, 2) and (1, 2, 3) share two or more vertices"),
        (3, [{0, 1, 2}, {0, 1, 2}], OverlappingBlocksError,
         "blocks (0, 1, 2) and (0, 1, 2) share two or more vertices"),
        (6, [{0, 1}, {1, 2}, {0, 2}, {3, 4, 5}], DisconnectedError,
         "vertex 3 is not reachable from vertex 0"),
        (3, [{0, 1}, {1, 2}, {0, 2}], CyclicBlockStructureError,
         "some vertex pair is joined by two distinct block sequences"),
        (8, [{0, 1}, {2, 3}, {3, 4}, {5, 6, 7}], DisconnectedError,
         "vertex 2 is not reachable from vertex 0"),
    ],
)
def test_invalid_structure_errors_keep_their_precedence(p, blocks, error, message) -> None:
    # an overlap wins over disconnection and cycles, disconnection over cycles
    with pytest.raises(error) as caught:
        BlockGraph(p, blocks)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    ("blocks", "error"),
    [
        ([[0, leaf] for leaf in range(1, 2001)] + [[0, 1, 2]], OverlappingBlocksError),
        ([[0, leaf] for leaf in range(1, 2001)] + [[1, 2]], CyclicBlockStructureError),
    ],
    ids=["overlap", "cycle"],
)
def test_hub_in_thousands_of_blocks_is_diagnosed_in_linear_time(blocks, error) -> None:
    # pairing up the hub's 2,001 blocks took about a second and 216 MB
    start = time.perf_counter()
    with pytest.raises(error):
        BlockGraph(2001, blocks)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        with pytest.raises(error) as caught:
            BlockGraph(2001, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.2
    assert peak < 5_000_000
    if error is OverlappingBlocksError:
        assert str(caught.value) == "blocks (0, 1) and (0, 1, 2) share two or more vertices"


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_overlap_is_reported_exactly_when_two_blocks_share_two_vertices(seed: int) -> None:
    rng = random.Random(seed)
    p = rng.randrange(3, 9)
    blocks = [
        sorted(rng.sample(range(p), rng.randrange(2, min(p, 4) + 1)))
        for _ in range(rng.randrange(2, 7))
    ]
    pairs = list(combinations(sorted(map(tuple, blocks)), 2))
    overlap_free = all(len(set(a) & set(b)) < 2 for a, b in pairs)
    try:
        BlockGraph(p, blocks)
    except OverlappingBlocksError as e:
        # the named pair is one of the overlapping pairs, smaller block first
        named = re.fullmatch(r"blocks (\(.*\)) and (\(.*\)) share two or more vertices", str(e))
        pair = tuple(map(ast.literal_eval, named.groups()))
        assert pair in pairs and len(set(pair[0]) & set(pair[1])) >= 2
    except DanglingVertexError:
        pass  # coverage is checked before any overlap
    except (DisconnectedError, CyclicBlockStructureError):
        assert overlap_free
    else:
        assert overlap_free


def _reference_overlapping_pair(canon, vertex_blocks):
    """The overlap search over the full vertex/block incidence graph, frozen as
    the reference for which pair an input with several overlaps names."""
    b = len(canon)
    adj = [[b + v for v in block] for block in canon] + list(vertex_blocks)
    taken = bytearray(len(adj))
    for x in sorted(range(len(adj)), key=lambda x: -len(adj[x])):
        taken[x] = 1
        first_via: dict[int, int] = {}
        for y in adj[x]:
            if taken[y]:
                continue
            for z in adj[y]:
                if taken[z]:
                    continue
                if z in first_via:
                    pair = (x, z) if x < b else (first_via[z], y)
                    return min(pair), max(pair)
                first_via[z] = y
    return None


def _reference_error(p, blocks):
    """(error class, message) that the block list should raise, or None."""
    canon = tuple(sorted(tuple(sorted(set(b))) for b in blocks))
    incidence = [[] for _ in range(p)]
    for bi, block in enumerate(canon):
        for v in block:
            incidence[v].append(bi)
    missing = [v for v in range(p) if not incidence[v]]
    if missing:
        return DanglingVertexError, f"vertex {missing[0]} appears in no block"
    pair = _reference_overlapping_pair(canon, incidence)
    if pair is not None:
        return OverlappingBlocksError, (
            f"blocks {canon[pair[0]]} and {canon[pair[1]]} share two or more vertices"
        )
    reached = {canon[0][0]}
    stack = [canon[0][0]]
    while stack:
        for bi in incidence[stack.pop()]:
            fresh = set(canon[bi]) - reached
            reached |= fresh
            stack.extend(fresh)
    if len(reached) < p:
        first = min(set(range(p)) - reached)
        return DisconnectedError, f"vertex {first} is not reachable from vertex {canon[0][0]}"
    if sum(map(len, canon)) != p + len(canon) - 1:
        return CyclicBlockStructureError, (
            "some vertex pair is joined by two distinct block sequences"
        )
    return None


def _corrupted(seed: int):
    """A random block graph with extra blocks, overlapping or not, added,
    blocks removed, ids left uncovered, and its blocks and members shuffled."""
    rng = random.Random(seed)
    g = gen_random_block_graph(seed, max_p=rng.randrange(4, 16))
    p, blocks = g.p, [list(b) for b in g.blocks]
    for kind in rng.choices(range(5), weights=(4, 2, 2, 1, 1), k=rng.randrange(1, 4)):
        if kind == 0:  # an extra block sharing two or more vertices with another
            extra = rng.sample(rng.choice(blocks), 2) + rng.sample(range(p), rng.randrange(3))
            blocks.append(sorted(set(extra)))
        elif kind == 1:  # an extra edge, which may close a cycle of blocks
            blocks.append(rng.sample(range(p), 2))
        elif kind == 2 and len(blocks) > 1:
            del blocks[rng.randrange(len(blocks))]
        elif kind == 3:  # a block on ids of its own
            blocks.append([p, p + 1])
            p += 2
        elif kind == 4:  # ids that no block holds
            p += rng.randrange(1, 3)
    for b in blocks:
        rng.shuffle(b)
    rng.shuffle(blocks)
    return p, blocks


def test_diagnosis_matches_the_full_incidence_reference() -> None:
    seen: dict = {}
    several = 0
    for seed in range(3000):
        p, blocks = _corrupted(seed)
        want = _reference_error(p, blocks)
        try:
            BlockGraph(p, blocks)
            got = None
        except HamcolorError as e:
            got = type(e), str(e)
        assert got == want, (seed, p, blocks)
        error = got and got[0]
        seen[error] = seen.get(error, 0) + 1
        overlaps = sum(len(set(a) & set(b)) >= 2 for a, b in combinations(blocks, 2))
        several += error is OverlappingBlocksError and overlaps >= 2
    # every outcome occurs, and many inputs have more than one pair to name
    assert set(seen) == {
        None, DanglingVertexError, OverlappingBlocksError, DisconnectedError,
        CyclicBlockStructureError,
    }, seen
    assert seen[OverlappingBlocksError] >= 1000 and several >= 300, (seen, several)


def _tuple_canonical(p, blocks):
    """The tuple sort and the first checks as they stood before the array
    build, frozen as the reference: (canonical blocks, expected error or None)."""
    ints = [[int(v) for v in b] for b in blocks]
    canon = tuple(sorted(tuple(sorted(set(b))) for b in ints))
    if not canon:
        return None, (InvalidSpecError, "a block graph needs at least one block")
    for b in canon:
        if len(b) < 2:
            return None, (InvalidSpecError, f"block {b} has fewer than 2 vertices")
        if b[0] < 0 or b[-1] >= p:
            return None, (InvalidSpecError, f"block {b} uses ids outside 0..{p - 1}")
    return canon, _reference_error(p, ints)


_SMALL_SYMMETRIC = [
    gen_symmetric(SymmetricSpec(m, kappa, d))[0]
    for m, kappa, d in [(3, 2, 4), (2, 3, 5), (4, 3, 3), (3, 3, 4), (5, 2, 3)]
]


def _canonicalization_case(seed: int):
    """A seeded block list in one of six kinds: shuffled random graphs,
    relabeled symmetric graphs, repeated members, numpy-integer members,
    corrupted graphs (whose overlapping blocks tie), and malformed lists."""
    rng = random.Random(seed)
    kind = seed % 6
    if kind == 1:
        g = rng.choice(_SMALL_SYMMETRIC)
        perm = list(range(g.p))
        rng.shuffle(perm)
        p, blocks = g.p, [[perm[v] for v in b] for b in g.blocks]
    elif kind == 4:
        p, blocks = _corrupted(seed)
    else:
        g = gen_random_block_graph(seed, max_p=rng.randrange(2, 40), max_block_size=rng.randrange(2, 7))
        p, blocks = g.p, [list(b) for b in g.blocks]
    for b in blocks:
        rng.shuffle(b)
    rng.shuffle(blocks)
    if kind == 2:  # members repeated within their block
        for b in rng.sample(blocks, rng.randrange(1, len(blocks) + 1)):
            b.extend(rng.choices(b, k=rng.randrange(1, 3)))
            rng.shuffle(b)
    elif kind == 3:  # numpy integers of several widths, mixed with Python ints
        dtypes = (np.int8, np.uint16, np.int32, np.int64)
        blocks = [np.array(b, dtype=rng.choice(dtypes)) if rng.random() < 0.7 else b for b in blocks]
    elif kind == 5:  # a block too small, an id out of range, or no blocks at all
        fault = rng.randrange(4)
        if fault == 0:
            blocks.append([rng.randrange(p)])
        elif fault == 1:
            rng.choice(blocks).append(rng.choice([-1, p, p + 3, 2**70]))
        elif fault == 2:
            blocks.append([0, 1, 1])
        else:
            blocks = []
    return p, blocks


def test_array_canonicalization_matches_the_tuple_sort(monkeypatch) -> None:
    import hamcolor.graphs

    # _reject raises the error of a malformed list; during a build, _split
    # runs only to order blocks that tie on their two smallest members
    calls = {"reject": 0, "split": 0}
    reject, split = hamcolor.graphs._reject, hamcolor.graphs._split

    def counted_reject(p, sizes, flat):
        calls["reject"] += 1
        reject(p, sizes, flat)

    def counted_split(members, starts):
        calls["split"] += 1
        return split(members, starts)

    monkeypatch.setattr(hamcolor.graphs, "_reject", counted_reject)
    monkeypatch.setattr(hamcolor.graphs, "_split", counted_split)
    built = tie_sorts = 0
    for seed in range(2400):
        p, blocks = _canonicalization_case(seed)
        canon, want = _tuple_canonical(p, blocks)
        documents = [lambda: BlockGraph(p, blocks)]
        if all(type(v) is int for b in blocks for v in b):
            text = json.dumps({"p": p, "blocks": [list(b) for b in blocks]})
            documents.append(lambda: from_json(text))
        for build in documents:
            splits = calls["split"]
            try:
                g, got = build(), None
            except HamcolorError as e:
                g, got = None, (type(e), str(e))
            tie_sorts += calls["split"] > splits
            assert got == want, (seed, p, blocks)
            if g is not None:
                built += 1
                assert g.blocks == canon
                assert to_json(g) == json.dumps(
                    {"blocks": [list(b) for b in canon], "p": p}, separators=(",", ":")
                ) + "\n"
                assert from_json(to_json(g)) == g
    # every path is exercised (valid inputs never tie); over both builds the
    # corpus measured 692 rejections and 586 tie sorts
    assert built >= 1500 and calls["reject"] >= 650 and tie_sorts >= 550, (built, calls, tie_sorts)


@pytest.mark.parametrize(
    ("make", "bound"),
    [(lambda: gen_star(20_000), 130), (lambda: gen_path(20_000), 260)],
    ids=["star", "path"],
)
def test_parsed_graph_holds_arrays_not_per_block_objects(make, bound) -> None:
    # bytes per vertex that from_json's graph keeps; per-block tuples of the
    # decoder's ints held 241 (star) and 458 (path), the arrays hold 96 and 192
    text = to_json(make())
    tracemalloc.start()
    try:
        g = from_json(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / g.p < bound


def test_large_star_builds_in_linear_time_and_memory() -> None:
    # a hub in 20,000 blocks: a pairwise overlap check over its block list
    # would need about 2 x 10^8 set insertions
    start = time.perf_counter()
    detour_profile(gen_star(20_000))
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        detour_profile(gen_star(20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 50_000_000


def test_build_rejects_tiny_blocks_and_bad_ids() -> None:
    with pytest.raises(InvalidSpecError):
        BlockGraph(2, [{0}])
    with pytest.raises(InvalidSpecError):
        BlockGraph(2, [{0, 5}])


def test_vertex_count_must_be_positive(tmp_path, capsys) -> None:
    from hamcolor.cli import run

    for p in (0, -3):
        with pytest.raises(InvalidSpecError, match=f"^vertex count must be positive, got {p}$"):
            BlockGraph(p, [[0, 1]])
    graph = tmp_path / "g.json"
    graph.write_text('{"p": 0, "blocks": [[0, 1]]}')
    assert run(["color", str(graph)]) == 2
    assert capsys.readouterr().err == "error: vertex count must be positive, got 0\n"


def test_block_cut_tree_shapes() -> None:
    two = gen_union(4, 2).block_cut_tree()
    assert two.block_count == 2 and (two.anchor >= 2).sum() == 1

    star = gen_star(3).block_cut_tree()
    assert star.block_count == 3 and (star.anchor >= 3).sum() == 1

    k5 = BlockGraph(5, [range(5)]).block_cut_tree()
    assert k5.block_count == 1 and (k5.anchor >= 1).sum() == 0


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_every_edge_in_exactly_one_block(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=9)
    counts: dict[tuple[int, int], int] = {}
    for b in g.blocks:
        for e in combinations(b, 2):
            counts[e] = counts.get(e, 0) + 1
    assert all(c == 1 for c in counts.values())
    edges = {frozenset(e) for e in counts}
    adj = neighbours(g)
    adj_edges = {frozenset((u, v)) for u in range(g.p) for v in adj[u]}
    assert edges == adj_edges


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_blocks_are_maximal_cliques(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=8)
    neighborhoods = [set(a) for a in neighbours(g)]
    for b in g.blocks:
        members = set(b)
        outside = set(range(g.p)) - members
        assert not any(members <= neighborhoods[x] for x in outside)


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_json_round_trip_is_byte_identical(seed: int) -> None:
    g = gen_random_block_graph(seed, max_p=9)
    text = to_json(g)
    assert to_json(from_json(text)) == text


def test_to_json_writes_the_bytes_of_one_json_dumps() -> None:
    graphs = [gen_random_block_graph(seed, max_p=9 + seed * 37 % 2000) for seed in range(300)]
    # more than 4,096 blocks, so the blocks are written in several slices
    graphs += [gen_path(n) for n in (2, 3, 4097, 10_000)] + [gen_star(n) for n in (2, 9_000)]
    graphs += [gen_union(n, k) for n, k in ((2, 2), (7, 3), (3, 5_000))]
    graphs.append(
        BlockGraph(3, [[0, 1], [1, 2]], meta={"name": "Grün ✓ 图", "nested": {"b": [1, 2.5], "a": None}})
    )
    for g in graphs:
        doc = {"p": g.p, "blocks": [list(b) for b in g.blocks]}
        if g.meta:
            doc["meta"] = g.meta
        assert to_json(g) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", g


def test_json_round_trip_preserves_meta() -> None:
    g = gen_union(3, 2)
    again = from_json(to_json(g))
    assert again.meta == g.meta
    assert again == g


@pytest.mark.parametrize(
    ("p", "blocks"),
    [
        (3, [[0, 1.5], [1, 2]]),
        (3, [[True, 0], [1, 2]]),
        (3, [[np.bool_(True), 0], [1, 2]]),
        (3, [["0", "1"], ["1", "2"]]),
        (3, [[0, "1"], [1, 2]]),
        (3, [0, 1, 2]),
        (3.0, [[0, 1], [1, 2]]),
        (True, [[0, 1]]),
        (3, [[0, 1, 1.0], [1, 2]]),
        (3, [[0, 1.0, 1], [1, 2]]),
    ],
    ids=[
        "float", "bool", "numpy-bool", "str", "mixed", "not-iterable", "float-p", "bool-p",
        "float-after-equal-int", "float-before-equal-int",
    ],
)
def test_build_rejects_members_and_counts_that_are_not_integers(p, blocks) -> None:
    with pytest.raises(InvalidSpecError):
        BlockGraph(p, blocks)


def test_blocks_may_be_generators() -> None:
    g = BlockGraph(3, ((v for v in b) for b in [[1, 2], [1, 0]]))
    assert g.blocks == ((0, 1), (1, 2))


def test_numpy_integers_are_stored_as_python_ints() -> None:
    for p, blocks in [
        (3, np.array([[0, 1], [1, 2]])),
        (np.int32(4), [np.array([0, 1, 2], dtype=np.uint8), [np.int64(2), 3]]),
    ]:
        g = BlockGraph(p, blocks)
        assert type(g.p) is int
        assert {type(v) for b in g.blocks for v in b} == {int}
        assert from_json(to_json(g)) == g


def test_graphs_past_the_int32_member_limit_are_refused(monkeypatch, capsys) -> None:
    # ids, tree offsets and sums of two doubled distances stay inside int32
    # only up to the limit; past it every way to build a graph refuses
    import hamcolor.graphs
    from hamcolor.cli import run

    limit = hamcolor.graphs._MAX_MEMBERS
    assert run(["gen", "sym", "--block-size", "10", "--cut-degree", "10", "--diameter", "20"]) == 2
    assert capsys.readouterr().err.startswith(f"error: a block graph may have at most {limit} ")
    monkeypatch.setattr(hamcolor.graphs, "_MAX_MEMBERS", 8)
    assert gen_path(5).p == 5  # 8 members
    for make in (
        lambda: gen_path(6),
        lambda: gen_star(5),
        lambda: gen_union(3, 5),
        lambda: gen_symmetric(SymmetricSpec(3, 2, 4)),
        lambda: BlockGraph(6, [[v, v + 1] for v in range(5)]),
        lambda: from_json('{"p": 8, "blocks": [[0, 1, 2, 3], [3, 4, 5, 6, 7]]}'),
    ):
        with pytest.raises(InvalidSpecError, match="at most 8 block members"):
            make()


def test_from_json_rejects_garbage(tmp_path) -> None:
    with pytest.raises(InvalidSpecError):
        from_json("[1, 2, 3]")
    with pytest.raises(InvalidSpecError):
        from_json('{"p": 2.5, "blocks": [[0, 1]]}')
    with pytest.raises(InvalidSpecError):
        from_json('{"p": 2, "blocks": [["0", 1]]}')
    with pytest.raises(InvalidSpecError):
        from_json('{"p": 2, "blocks": [[0, 1]], "meta": 7}')
    # 200,000 levels of nesting exceed the json parser's recursion limit
    deep = "[" * 200_000 + "]" * 200_000
    with pytest.raises(InvalidSpecError, match="nested too deeply"):
        from_json('{"p": 2, "blocks": ' + deep + "}")
    # from_json's own JSON type test gave these messages of its own; they
    # now get the constructor's error, and color exits 2 with one "error:" line
    path = tmp_path / "g.json"
    for doc in (
        {"p": 2, "blocks": "ab"},
        {"p": 2, "blocks": {}},
        {"p": 2, "blocks": [[0, 1.0]]},
        {"p": 2, "blocks": [[0, True]]},
        {"p": True, "blocks": [[0, 1]]},
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidSpecError) as parsed:
            from_json(path.read_text())
        with pytest.raises(InvalidSpecError) as built:
            BlockGraph(doc["p"], doc["blocks"])
        assert str(parsed.value) == str(built.value)
        assert run_cli("color", str(path)) == 2, doc


_EUROS = "\u20ac" * 200_000


@pytest.mark.parametrize(
    "blocks",
    [_EUROS, [[0, 1], _EUROS], {_EUROS: 0}],
    ids=["string", "string-block", "object-key"],
)
def test_string_blocks_are_refused_in_memory_of_the_text(blocks) -> None:
    # a string made a tuple held a pointer per character, and each non-Latin-1
    # character as its own string object: 86 to 134 bytes per character
    text = json.dumps({"p": 2, "blocks": blocks}, ensure_ascii=False)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSpecError, match="collections of integer vertex ids"):
            from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(_EUROS) < 10, peak / len(_EUROS)


# small lists of small blocks, which reach the structure checks, and the
# CLI fuzz suite's block lists and JSON values
_graph_args = st.tuples(
    st.integers(2, 5), st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=3), max_size=4)
) | st.tuples(st.integers(-1, 12) | json_values, block_lists | json_values)


@given(args=_graph_args)
@settings(max_examples=300, deadline=None)
def test_from_json_and_the_constructor_agree(args) -> None:
    # one check of "p" and the block list: the same graph, or the same error
    # class and message
    p, blocks = args

    def outcome(make):
        try:
            return make()
        except HamcolorError as exc:
            return type(exc), str(exc)

    text = json.dumps({"p": p, "blocks": blocks})
    assert outcome(lambda: from_json(text)) == outcome(lambda: BlockGraph(p, blocks))


def test_dot_export_mentions_every_vertex_and_clusters() -> None:
    g = gen_union(3, 2)
    plain = to_dot(g)
    assert all(f"{v} [" in plain for v in range(g.p))
    assert "cluster_0" in to_dot(g, clusters=True)
    colored = to_dot(g, colors=[0, 2, 2, 4, 4])
    assert "fillcolor" in colored


@pytest.mark.parametrize("colors", [[5, 6, 7], [0, 1, 2], [9, 9, 9], [1, 40, 3]])
def test_dot_fill_hues_run_from_blue_to_red(colors) -> None:
    dot = to_dot(gen_path(3), colors)
    hues = [float(h) for h in re.findall(r'fillcolor="(-?[0-9.]+),', dot)]
    assert len(hues) == 3
    assert all(0.0 <= h <= 0.66 for h in hues)
    assert hues[colors.index(min(colors))] == 0.66
