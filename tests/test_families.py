from __future__ import annotations

from collections import deque

import pytest

from hamcolor import (
    BlockGraph,
    InvalidSpecError,
    NotSymmetricError,
    SymmetricSpec,
    detour_profile,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    symmetric_coordinates,
    to_json,
)


def ordinary_diameter(g) -> int:
    # two BFS sweeps; exact on block graphs since hop distance is a tree metric
    def far(source):
        dist = [-1] * g.p
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        far_v = max(range(g.p), key=lambda v: dist[v])
        return far_v, dist[far_v]

    a, _ = far(0)
    _, d = far(a)
    return d


def test_sym_even_shape() -> None:
    g, coords = gen_symmetric(SymmetricSpec(4, 2, 4))
    assert g.p == 25
    assert coords.parity == "even"
    assert coords.roots == (0,)
    assert coords.top_list == (1, 2, 3, 4, 5, 6)
    assert all(coords.depth[v] == 1 for v in coords.top_list)
    # consecutive entries of the top list sit in different blocks at the center
    for a, b in zip(coords.top_list, coords.top_list[1:]):
        assert not set(g.vertex_blocks[a]) & set(g.vertex_blocks[b])


def test_sym_odd_shape() -> None:
    g, coords = gen_symmetric(SymmetricSpec(4, 2, 5))
    assert g.p == 52
    assert coords.parity == "odd"
    assert coords.roots == (0, 1, 2, 3)
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
    g, coords = gen_symmetric(spec)
    assert ordinary_diameter(g) == spec.diameter
    for v in range(g.p):
        if v in g.cut_vertices:
            assert len(g.vertex_blocks[v]) == spec.cut_degree
        else:
            assert len(g.vertex_blocks[v]) == 1
    # detour level of a depth-i vertex is i * n
    profile = detour_profile(g)
    for v in range(g.p):
        assert profile.level[v] == coords.depth[v] * spec.n


def test_sym_path_degenerate_family() -> None:
    g, coords = gen_symmetric(SymmetricSpec(2, 2, 4))
    assert g.p == 5
    assert coords.parity == "even"
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
        g, coords = gen_symmetric(spec)
        again = symmetric_coordinates(g)
        assert again == coords


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


def test_gen_union_shapes() -> None:
    g = gen_union(4, 2)
    assert g.p == 7 and len(g.blocks) == 2
    assert gen_union(2, 3) == gen_star(3)
    assert gen_union(3, 3).p == 7


def test_gen_union_equals_diameter_two_symmetric() -> None:
    g = gen_union(4, 3)
    coords = symmetric_coordinates(g)
    assert coords.spec == SymmetricSpec(4, 3, 2)


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


def test_random_generator_is_deterministic() -> None:
    a = gen_random_block_graph(1, max_p=9)
    b = gen_random_block_graph(1, max_p=9)
    assert to_json(a) == to_json(b)
    assert a.p <= 9


def test_random_corpus_all_valid_and_varied(corpus) -> None:
    # construction went through BlockGraph, so validity is implied;
    # spot-check the distribution covers the intended shapes
    assert all(2 <= g.p <= 9 for g in corpus)
    assert any(len(g.blocks) == 1 for g in corpus)
    assert any(len(g.blocks) > 1 and all(len(b) == 2 for b in g.blocks) for g in corpus)
    assert any(len({len(b) for b in g.blocks}) > 1 for g in corpus)
