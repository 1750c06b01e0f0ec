from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamcolor.cli import run

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports hamcolor from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_gen_color_verify_pipeline(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    assert run(
        ["gen", "sym", "--block-size", "4", "--cut-degree", "2", "--diameter", "4",
         "-o", str(graph)]
    ) == 0
    assert run(["color", str(graph), "-o", str(coloring)]) == 0
    assert "span=327" in capsys.readouterr().out
    assert run(["verify", str(graph), str(coloring)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "327" in out


def test_verify_corrupted_coloring_exits_one(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    run(["gen", "star", "-n", "3", "-o", str(graph)])
    coloring.write_text(json.dumps({"colors": [0, 0, 0, 0]}))
    assert run(["verify", str(graph), str(coloring)]) == 1
    assert "invalid" in capsys.readouterr().out


def test_verify_lists_the_first_twenty_violations(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    run(["gen", "star", "-n", "8", "-o", str(graph)])
    coloring.write_text(json.dumps({"colors": [0] * 9}))
    capsys.readouterr()
    assert run(["verify", str(graph), str(coloring)]) == 1
    # all 36 pairs are short of p - 1 = 8: hub pairs by 7, leaf pairs by 6
    pairs = [(u, v) for u in range(9) for v in range(u + 1, 9)]
    want = ["invalid span=0 violations=36"]
    want += [f"  pair ({u}, {v}) short by {7 if u == 0 else 6}" for u, v in pairs[:20]]
    want += ["  ... and 16 more"]
    assert capsys.readouterr().out == "\n".join(want) + "\n"


@pytest.mark.parametrize(
    "doc",
    [{"colors": 5}, {"colors": [0, 2**63, 0, 0]}, {"colors": None}, [0, 1, 2, 3]],
    ids=["not-a-list", "above-int64", "null", "bare-list"],
)
def test_verify_malformed_coloring_exits_two(tmp_path, capsys, doc) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    run(["gen", "star", "-n", "3", "-o", str(graph)])
    coloring.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(graph), str(coloring)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "doc", [{"colors": ["a", "b", "c", "d"]}, {"colors": [0]}], ids=["strings", "too-short"]
)
def test_export_malformed_coloring_exits_two(tmp_path, capsys, doc) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    run(["gen", "star", "-n", "3", "-o", str(graph)])
    coloring.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["export", str(graph), "--coloring", str(coloring)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_python_dash_m_runs_the_cli(tmp_path) -> None:
    graph = tmp_path / "g.json"
    done = _python("-m", "hamcolor", "gen", "star", "-n", "3", "-o", str(graph))
    assert done.returncode == 0, done.stderr
    done = _python("-m", "hamcolor", "bound", str(graph))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["lower_bound"] == 4
    done = _python("-m", "hamcolor", "verify", str(graph), str(tmp_path / "missing.json"))
    assert done.returncode == 2 and done.stderr.startswith("error: ")


def test_cli_import_loads_no_scipy() -> None:
    done = _python(
        "-c",
        "import sys, hamcolor.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_exact_budget_exit_code(tmp_path, capsys) -> None:
    graph = tmp_path / "p20.json"
    run(["gen", "path", "-n", "20", "-o", str(graph)])
    assert run(["exact", str(graph)]) == 3


def _exact_exits_three_with_one_error(tmp_path, capsys, limit: str) -> None:
    graph = tmp_path / "path9.json"
    run(["gen", "path", "-n", "9", "-o", str(graph)])
    capsys.readouterr()
    assert run(["exact", str(graph), "--time-limit", limit]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_exact_time_limit_exits_three(tmp_path, capsys) -> None:
    _exact_exits_three_with_one_error(tmp_path, capsys, "1e-9")


def test_exact_zero_time_limit_exits_three(tmp_path, capsys) -> None:
    # 0 is an exhausted limit, not "no limit"
    _exact_exits_three_with_one_error(tmp_path, capsys, "0")


def test_exact_reports_value_and_gap(tmp_path, capsys) -> None:
    graph = tmp_path / "p5.json"
    run(["gen", "path", "-n", "5", "-o", str(graph)])
    assert run(["exact", str(graph)]) == 0
    out = capsys.readouterr().out
    assert "exact_hc=6" in out and "lower_bound=5" in out and "gap=1" in out


def test_parse_error_exits_two(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["bound", str(bad)]) == 2
    assert run(["bound", str(tmp_path / "missing.json")]) == 2


def test_invalid_graph_exits_two(tmp_path) -> None:
    bad = tmp_path / "overlap.json"
    bad.write_text(json.dumps({"p": 5, "blocks": [[0, 1, 2], [1, 2, 3, 4]]}))
    assert run(["color", str(bad)]) == 2


def test_formula_prints_value(capsys) -> None:
    assert run(
        ["formula", "sym", "--block-size", "4", "--cut-degree", "2", "--diameter", "5"]
    ) == 0
    assert capsys.readouterr().out.strip() == "1944"
    assert run(["formula", "star", "-n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert run(["formula", "path", "-n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    assert run(["formula", "union", "-n", "4", "-k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "30"


def test_bound_json_schema(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    run(["gen", "union", "-n", "4", "-k", "2", "-o", str(graph)])
    assert run(["bound", str(graph)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "p": 7,
        "omega": 1,
        "xi": 3,
        "center": [0],
        "levels": [0, 3, 3, 3, 3, 3, 3],
        "total_level": 18,
        "lower_bound": 3,
    }


def test_gen_round_trip_is_byte_identical(tmp_path) -> None:
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(["gen", "random", "--seed", "5", "--max-p", "9", "-o", str(first)])
    run(["export", str(first), "--format", "json", "-o", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_color_random_graph_is_labeled_and_valid(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    run(["gen", "random", "--seed", "0", "--max-p", "9", "-o", str(graph)])
    assert run(["color", str(graph), "-o", str(coloring)]) == 0
    out = capsys.readouterr().out
    assert "method=greedy" in out
    assert run(["verify", str(graph), str(coloring)]) == 0


def test_color_union_uses_family_construction(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    run(["gen", "union", "-n", "4", "-k", "3", "-o", str(graph)])
    assert run(["color", str(graph), "-o", str(coloring)]) == 0
    assert "method=union" in capsys.readouterr().out
    assert run(["verify", str(graph), str(coloring)]) == 0


def test_color_emits_ordering(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    ordering = tmp_path / "ord.json"
    for gen, p in [
        (["sym", "--block-size", "3", "--cut-degree", "2", "--diameter", "3"], 9),
        (["union", "-n", "4", "-k", "3"], 10),
    ]:
        run(["gen", *gen, "-o", str(graph)])
        assert run(["color", str(graph), "--emit-ordering", str(ordering), "-o",
                    str(tmp_path / "c.json")]) == 0
        order = json.loads(ordering.read_text())["ordering"]
        assert sorted(order) == list(range(p))
        ordering.unlink()


def test_color_path_is_valid(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    run(["gen", "path", "-n", "6", "-o", str(graph)])
    assert run(["color", str(graph), "-o", str(coloring)]) == 0
    assert capsys.readouterr().out.startswith("method=greedy ")
    assert run(["verify", str(graph), str(coloring)]) == 0


def test_table_rows_sorted_and_consistent(capsys) -> None:
    assert run(["table", "--diameter", "3-4", "--max-p", "150"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("m,kappa,d,")
    rows = [tuple(map(int, ln.split(",")[:3])) for ln in lines[1:]]
    assert rows == sorted(rows)
    for ln in lines[1:]:
        fields = ln.split(",")
        assert fields[-1] == "true"
        assert fields[7] == fields[8] == fields[9]  # bound == closed form == span


def test_export_dot_with_clusters(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    run(["gen", "union", "-n", "3", "-k", "2", "-o", str(graph)])
    assert run(["export", str(graph), "--clusters"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph") and "cluster_1" in out


def test_export_csv_edges(tmp_path, capsys) -> None:
    graph = tmp_path / "g.json"
    run(["gen", "path", "-n", "3", "-o", str(graph)])
    assert run(["export", str(graph), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["u,v,block", "0,1,0", "1,2,1"]
