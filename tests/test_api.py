from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hamcolor

PUBLIC = {
    "__version__",
    "BlockCutTree",
    "BlockGraph",
    "ColorResult",
    "ConditionReport",
    "DetourProfile",
    "HamColoring",
    "SearchBudget",
    "SymmetricCoordinates",
    "SymmetricSpec",
    "branch_relation",
    "brute_longest_path",
    "check_ordering_conditions",
    "color_graph",
    "coloring_from_ordering",
    "detour_distance",
    "detour_matrix",
    "detour_profile",
    "exact_hc",
    "from_json",
    "gen_path",
    "gen_random_block_graph",
    "gen_star",
    "gen_symmetric",
    "gen_union",
    "greedy_min_coloring_for_ordering",
    "greedy_ordering",
    "lower_bound",
    "path_hc",
    "phi",
    "star_hc",
    "sym_hc",
    "sym_order_count",
    "sym_ordering",
    "sym_total_level",
    "symmetric_coordinates",
    "to_dot",
    "to_json",
    "union_hc",
    "validate_coloring",
    "BudgetExceededError",
    "CyclicBlockStructureError",
    "DanglingVertexError",
    "DisconnectedError",
    "GraphStructureError",
    "HamcolorError",
    "InvalidSpecError",
    "NegativeGapError",
    "NotAPermutationError",
    "NotSymmetricError",
    "OutOfStatedRangeWarning",
    "OverlappingBlocksError",
    "SameVertexError",
    "SizeMismatchError",
}


def test_public_names_are_pinned() -> None:
    assert len(hamcolor.__all__) == len(set(hamcolor.__all__))
    assert set(hamcolor.__all__) == PUBLIC
    assert all(hasattr(hamcolor, name) for name in PUBLIC)


RECORD_FIELDS = {
    hamcolor.DetourProfile: [
        "center", "omega", "xi", "level", "total_level", "owner", "owner_block",
    ],
    hamcolor.SymmetricCoordinates: [
        "spec", "top_list", "children", "child_row",
    ],
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda record: record.__name__)
def test_record_fields_are_pinned(record) -> None:
    assert [field.name for field in dataclasses.fields(record)] == RECORD_FIELDS[record]
    # no derived views on top of the fields
    assert not [name for name in vars(record) if not name.startswith("_")]


@pytest.mark.parametrize("name", ["children", "child_row", "level", "owner", "owner_block"])
def test_coordinate_arrays_are_read_only(name) -> None:
    g, coords = hamcolor.gen_symmetric(hamcolor.SymmetricSpec(3, 2, 4))
    record = coords if hasattr(coords, name) else hamcolor.detour_profile(g)
    array = getattr(record, name)
    assert array.dtype == np.int32
    with pytest.raises(ValueError):
        array[0] = 1


ID_GRAPHS = {
    "sym": lambda: hamcolor.gen_symmetric(hamcolor.SymmetricSpec(4, 3, 5))[0],
    "sym-parsed": lambda: hamcolor.from_json(
        hamcolor.to_json(hamcolor.gen_symmetric(hamcolor.SymmetricSpec(3, 2, 4))[0])
    ),
    "union": lambda: hamcolor.gen_union(4, 3),
    "path": lambda: hamcolor.gen_path(9),
    "star": lambda: hamcolor.gen_star(5),
    "random": lambda: hamcolor.gen_random_block_graph(7, max_p=60),
    "constructor": lambda: hamcolor.BlockGraph(6, [[5, 0], (0, 1, 2), iter([2, 3, 4])]),
}


@pytest.mark.parametrize("make", ID_GRAPHS.values(), ids=ID_GRAPHS.keys())
def test_ids_and_tree_distances_are_read_only_int32(make) -> None:
    # every vertex, block and tree-node id and doubled distance is held as
    # int32 from parse to output; colors stay int64
    from hamcolor.detour import tree_metric

    g = make()
    bct, metric, result = g.block_cut_tree(), tree_metric(g), hamcolor.color_graph(g)
    arrays = {"members": g._members, "ordering": result.ordering}
    for name in ("indptr", "indices", "weight2", "anchor", "order", "parent", "dist2"):
        arrays[name] = getattr(bct, name)
    for name in ("pos", "root2", "_dep2", "_table"):
        arrays[name] = getattr(metric, name)
    for name, array in arrays.items():
        assert array.dtype == np.int32 and not array.flags.writeable, name
    assert result.coloring._array.dtype == np.int64


def test_block_graph_surface_is_pinned() -> None:
    # the block-cut tree is the one vertex-to-block incidence; no copies beside it
    g = hamcolor.gen_path(3)
    assert {name for name in dir(g) if not name.startswith("_")} == {
        "p", "blocks", "meta", "block_cut_tree",
    }


def test_block_cut_tree_surface_is_pinned() -> None:
    # the constructor's walk from node 0 is the tree's one walk: no re-rooted
    # sweep and no path walk beside it
    bct = hamcolor.gen_path(3).block_cut_tree()
    assert {name for name in dir(bct) if not name.startswith("_")} == {
        "block_count", "node_count", "indptr", "indices", "weight2", "anchor", "order",
        "parent", "dist2",
    }


def _referenced_names(node: ast.AST) -> Counter:
    """How often each name is read, as a bare name or an attribute, under node."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_has_a_caller() -> None:
    # a module- or class-level function or class named _x that nothing in
    # the package names outside its own definition is dead code
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    trees = [ast.parse(path.read_text()) for path in Path(hamcolor.__file__).parent.glob("*.py")]
    everywhere = sum(map(_referenced_names, trees), Counter())
    helpers = []
    for tree in trees:
        for node in tree.body:
            scope = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
            helpers += [
                d for d in scope
                if isinstance(d, defs) and d.name.startswith("_") and not d.name.startswith("__")
            ]
    assert len(helpers) >= 20, len(helpers)  # the scan saw the package
    dead = [d.name for d in helpers if everywhere[d.name] == _referenced_names(d)[d.name]]
    assert not dead, dead


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that tree's module-level imports bind and nothing in it reads.

    A name listed in the module's ``__all__`` counts as read: it is a
    re-export.  ``from __future__`` imports bind nothing.
    """
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign) and "__all__" in _referenced_names(node.targets[0]):
            items = ast.walk(node.value)
            exported |= {item.value for item in items if isinstance(item, ast.Constant)}
    read = _referenced_names(tree)
    return [name for name in bound if not read[name] and name not in exported]


def test_every_module_level_import_is_used() -> None:
    guard = ast.parse(
        "from __future__ import annotations\nimport os.path\n"
        "from typing import Callable, Iterator\nfrom .x import y as z\n"
        "__all__ = ['z']\ndef f() -> Iterator[int]: ...\n"
    )
    assert _unused_imports(guard) == ["os", "Callable"]  # the guard sees what it must
    paths = sorted(Path(hamcolor.__file__).parent.glob("*.py"))
    assert len(paths) >= 10, paths
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in paths}
    assert not any(unused.values()), unused
