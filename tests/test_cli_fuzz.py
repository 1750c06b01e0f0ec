"""Malformed graph and coloring documents through the in-process CLI.

Whatever the documents hold, no exception may escape ``run``, the exit
code is one of the documented ones, and an input error (exit 2) prints
exactly one ``error:`` line.  Every graph has p <= 50, so each example
runs in milliseconds.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hamcolor import gen_random_block_graph, to_json
from hamcolor.cli import run

MAX_P = 50

# any JSON value, nested a few levels deep
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, MAX_P + 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

# documents shaped like a graph: ids out of range, tiny or repeated
# blocks, overlaps, cycles, disconnection and dangling vertices
ids = st.integers(-1, MAX_P + 1)
block_lists = st.lists(st.lists(ids, max_size=5), max_size=10)


@st.composite
def mutated_graphs(draw) -> dict:
    """A valid random graph with blocks dropped, added, duplicated or edited."""
    doc = json.loads(to_json(gen_random_block_graph(draw(st.integers(0, 10**6)), MAX_P - 6)))
    blocks = doc["blocks"]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "add", "copy", "edit", "grow"]))
        if op == "drop" and len(blocks) > 1:
            blocks.pop(draw(st.integers(0, len(blocks) - 1)))
        elif op == "add":
            blocks.append(draw(st.lists(st.integers(0, doc["p"] - 1), min_size=2, max_size=4)))
        elif op == "copy":
            blocks.append(list(draw(st.sampled_from(blocks))))
        elif op == "edit":
            block = draw(st.sampled_from(blocks))
            block[draw(st.integers(0, len(block) - 1))] = draw(st.integers(-1, doc["p"]))
        elif op == "grow":
            doc["p"] += draw(st.integers(1, 6))
    return doc


graph_docs = st.one_of(
    mutated_graphs(),
    st.fixed_dictionaries({"p": st.integers(-1, MAX_P), "blocks": block_lists}),
    st.fixed_dictionaries(
        {"p": st.integers(1, MAX_P), "blocks": st.lists(json_values, min_size=1, max_size=4)}
    ),
    st.fixed_dictionaries(
        {"p": st.integers(1, MAX_P), "blocks": block_lists, "meta": json_values}
    ),
    st.dictionaries(st.sampled_from(["p", "blocks", "meta"]), json_values, max_size=3),
    json_values,
)

coloring_docs = st.one_of(
    st.fixed_dictionaries({"colors": st.lists(st.integers(-3, 10**4), max_size=MAX_P + 3)}),
    st.fixed_dictionaries({"colors": st.lists(st.integers(-(2**64), 2**64), max_size=12)}),
    st.fixed_dictionaries({"colors": json_values}),
    json_values,
)


def _run(*argv: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    assert code in {0, 1, 2, 3}
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code


def _write(directory: str, name: str, doc) -> str:
    path = Path(directory) / name
    path.write_text(json.dumps(doc))
    return str(path)


@given(graph=graph_docs)
@settings(max_examples=100, deadline=None)
def test_graph_documents_never_escape(graph) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "g.json", graph)
        _run("bound", path)
        if _run("color", path, "-o", str(Path(tmp) / "c.json")) == 0:
            assert _run("verify", path, str(Path(tmp) / "c.json")) == 0


@given(data=st.data(), seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_coloring_documents_never_escape(data, seed) -> None:
    g = gen_random_block_graph(seed, MAX_P)
    graph = data.draw(st.just(json.loads(to_json(g))) | graph_docs)
    one_per_vertex = st.lists(st.integers(-1, 2 * g.p**2), min_size=g.p, max_size=g.p)
    coloring = data.draw(st.fixed_dictionaries({"colors": one_per_vertex}) | coloring_docs)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "g.json", graph)
        colors = _write(tmp, "c.json", coloring)
        _run("verify", path, colors)
        _run("export", path, "--coloring", colors, "-o", str(Path(tmp) / "g.dot"))
