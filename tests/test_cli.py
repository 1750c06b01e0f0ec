from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hamcolor.cli
import hamcolor.graphs
from hamcolor import (
    BlockGraph,
    SymmetricSpec,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    sym_order_count,
    to_json,
)
from hamcolor.cli import run

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports hamcolor from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10_000])
def test_int_list_json_matches_json_dumps(n) -> None:
    values = tuple(random.Random(n).choices([0, 7, 10**12, 2**70], k=n))
    for key in ("colors", "ordering"):
        want = json.dumps({key: values}) + "\n"
        assert hamcolor.cli._int_list_json(key, values) == want
        assert hamcolor.cli._int_list_json(key, list(values)) == want


def test_gen_color_and_verify_leave_numpy_ma_unimported(tmp_path) -> None:
    # numpy.ma, which np.unique imports on first use, adds about 1 MB of RSS
    # and start-up time to every process
    graph, colors = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    commands = [
        ["gen", "sym", "--block-size", "3", "--cut-degree", "3", "--diameter", "5", "-o", graph],
        ["color", graph, "-o", colors],
        ["verify", graph, colors],
        ["gen", "random", "--seed", "3", "--max-p", "300", "-o", graph],
        ["color", graph, "-o", colors],
        ["verify", graph, colors],
    ]
    code = (
        "import sys\n"
        "from hamcolor.cli import run\n"
        f"codes = [run(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"


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
    done = _python("-m", "hamcolor.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: hamcolor ")


def test_main_exits_with_each_code_and_whole_output(tmp_path, capsys) -> None:
    # main ends the process without teardown; every byte written before must
    # still arrive, on outputs larger than a pipe's buffer too
    graph, zeros = tmp_path / "g.json", tmp_path / "z.json"
    run(["gen", "path", "-n", "20000", "-o", str(graph)])
    zeros.write_text(json.dumps({"colors": [0] * 9}))
    union = tmp_path / "u.json"
    run(["gen", "union", "-n", "3", "-k", "4", "-o", str(union)])
    cases = [
        (0, ["gen", "path", "-n", "20000"]),
        (0, ["color", str(graph), "--emit-ordering", "-"]),
        (1, ["verify", str(union), str(zeros)]),
        (2, ["color", str(tmp_path / "missing.json")]),
    ]
    for code, argv in cases:
        capsys.readouterr()
        assert run(argv) == code
        want = capsys.readouterr()
        done = _python("-m", "hamcolor", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, want.out, want.err), argv
    assert len(want.err) > len("error: ")


def test_main_exits_120_without_traceback_when_stdout_is_a_closed_pipe() -> None:
    # buffered stdout: the write fails at the final flush, where the
    # interpreter's own exit also gives 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hamcolor", "formula", "path", "-n", "5"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == 120
    assert done.stderr == "path order=5\n"


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


def _exact_exits_with_one_error(tmp_path, capsys, limit: str, code: int) -> None:
    graph = tmp_path / "path9.json"
    run(["gen", "path", "-n", "9", "-o", str(graph)])
    capsys.readouterr()
    assert run(["exact", str(graph), "--time-limit", limit]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_exact_time_limit_exits_three(tmp_path, capsys) -> None:
    _exact_exits_with_one_error(tmp_path, capsys, "1e-9", 3)


def test_exact_zero_time_limit_exits_three(tmp_path, capsys) -> None:
    # 0 is an exhausted limit, not "no limit"
    _exact_exits_with_one_error(tmp_path, capsys, "0", 3)


def test_exact_nan_time_limit_exits_two(tmp_path, capsys) -> None:
    # a NaN limit is an input error, not "no limit"
    _exact_exits_with_one_error(tmp_path, capsys, "nan", 2)


@pytest.mark.parametrize("command", ["color", "verify"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command) -> None:
    # 200,000 levels of nesting exceed the json parser's recursion limit
    deep = "[" * 200_000 + "]" * 200_000
    graph = tmp_path / "g.json"
    coloring = tmp_path / "c.json"
    if command == "color":
        graph.write_text('{"p": 2, "blocks": ' + deep + "}")
        argv = ["color", str(graph)]
    else:
        run(["gen", "path", "-n", "2", "-o", str(graph)])
        coloring.write_text('{"colors": ' + deep + "}")
        argv = ["verify", str(graph), str(coloring)]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name, argv, detail",
    [
        ("gen_path", ["gen", "path", "-n", "10000000000"], ": Unable to allocate 74.5 GiB"),
        ("gen_symmetric", ["gen", "sym", "--block-size", "3", "--cut-degree", "3",
                           "--diameter", "40"], ""),
    ],
)
def test_out_of_memory_exits_two(monkeypatch, capsys, name, argv, detail) -> None:
    # numpy's allocation error ended in a traceback and exit 1, the code
    # reserved for an invalid coloring from verify
    def allocate(*args):
        raise MemoryError(detail[2:])

    monkeypatch.setattr(hamcolor.cli, name, allocate)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory{detail}\n"


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


def test_gen_random_rejects_blocks_below_two_vertices(capsys) -> None:
    assert run(["gen", "random", "--seed", "1", "--max-p", "10", "--max-block-size", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_block_size must be >= 2, got 1\n"


def test_gen_random_rejects_max_p_below_two(capsys) -> None:
    assert run(["gen", "random", "--seed", "1", "--max-p", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_p must be >= 2, got 1\n"


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


@pytest.mark.parametrize(
    "family, flags",
    [
        ("sym", ["--block-size", "4", "--cut-degree", "2", "--diameter", "5"]),
        ("union", ["-n", "4", "-k", "3"]),
        ("star", ["-n", "3"]),
        ("path", ["-n", "6"]),
    ],
)
def test_gen_and_formula_take_the_same_size_flags(tmp_path, capsys, family, flags) -> None:
    parser = hamcolor.cli._build_parser()
    gen = vars(parser.parse_args(["gen", family, *flags]))
    formula = vars(parser.parse_args(["formula", family, *flags]))
    assert (gen.pop("command"), gen.pop("output")) == ("gen", None)
    assert formula.pop("command") == "formula"
    assert gen == formula
    for i in range(0, len(flags), 2):  # every size flag is required by both
        for command in ("gen", "formula"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, family, *flags[:i], *flags[i + 2 :]])
    assert run(["gen", family, *flags, "-o", str(tmp_path / "g.json")]) == 0
    assert run(["formula", family, *flags]) == 0


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


@pytest.mark.parametrize(
    ("flags", "make"),
    [
        (["path", "-n", "2"], lambda: gen_path(2)),
        (["path", "-n", "1024"], lambda: gen_path(1024)),
        (["path", "-n", "1025"], lambda: gen_path(1025)),
        (["path", "-n", "1026"], lambda: gen_path(1026)),
        (["star", "-n", "5001"], lambda: gen_star(5001)),
        (["sym", "--block-size", "4", "--cut-degree", "3", "--diameter", "6"],
         lambda: gen_symmetric(SymmetricSpec(4, 3, 6))[0]),
        (["random", "--seed", "3", "--max-p", "4000"], lambda: gen_random_block_graph(3, 4000)),
    ],
    ids=["1-block", "1023-blocks", "1024-blocks", "1025-blocks", "5001-blocks", "sym", "random"],
)
def test_gen_streams_the_bytes_of_to_json(tmp_path, capsys, flags, make) -> None:
    # gen writes its JSON a slice of blocks at a time, to a file or to stdout
    want = to_json(make())
    assert '"meta":{' in want
    out = tmp_path / "g.json"
    assert run(["gen", *flags, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == want
    capsys.readouterr()
    assert run(["gen", *flags]) == 0
    assert capsys.readouterr().out == want


def test_streamed_json_without_meta_is_to_json(tmp_path) -> None:
    g = BlockGraph(1026, [[v, v + 1] for v in range(1025)])
    out = tmp_path / "g.json"
    hamcolor.cli._write(str(out), hamcolor.graphs._json_parts(g))
    assert out.read_text(encoding="utf-8") == to_json(g) and '"meta"' not in to_json(g)


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


def test_table_work_stops_with_its_rows(monkeypatch, capsys) -> None:
    # p grows with d, so no diameter past the first too-large one is counted
    calls = []

    def counting(spec):
        calls.append(spec)
        return sym_order_count(spec)

    monkeypatch.setattr(hamcolor.cli, "sym_order_count", counting)
    grid = ["table", "--block-size", "3", "--cut-degree", "2"]
    assert run([*grid, "--diameter", "3-2000"]) == 0
    wide = capsys.readouterr().out
    assert len(calls) <= 25
    assert run([*grid, "--diameter", "3-20"]) == 0
    assert wide == capsys.readouterr().out
    assert len(wide.splitlines()) == 19


TABLE_HEADER = "m,kappa,d,p,omega,xi,total_level,lower_bound,closed_form,algorithm_span,valid"


@pytest.mark.parametrize(
    "flags, rows",
    [
        # every spec is a path: kn = 1
        (["--block-size", "2", "--cut-degree", "2"], []),
        # the smallest m's smallest spec is too large, so no m is tried further
        (["--block-size", "30-40", "--max-p", "100"], []),
        # each kappa stops at its first too-large d; m = 3 runs out of kappas, m = 4 stops at 6
        (
            ["--block-size", "3-4", "--cut-degree", "2-9", "--diameter", "3-9", "--max-p", "60"],
            [
                "3,2,3,9,3,0,12,24,24,24,true",
                "3,2,4,13,1,2,40,66,66,66,true",
                "3,2,5,21,3,0,60,240,240,240,true",
                "3,2,6,29,1,2,136,514,514,514,true",
                "3,2,7,45,3,0,204,1440,1440,1440,true",
                "3,3,3,15,3,0,24,120,120,120,true",
                "3,3,4,31,1,2,108,686,686,686,true",
                "3,4,3,21,3,0,36,288,288,288,true",
                "3,4,4,57,1,2,208,2722,2722,2722,true",
                "3,5,3,27,3,0,48,528,528,528,true",
                "3,6,3,33,3,0,60,840,840,840,true",
                "3,7,3,39,3,0,72,1224,1224,1224,true",
                "3,8,3,45,3,0,84,1680,1680,1680,true",
                "3,9,3,51,3,0,96,2208,2208,2208,true",
                "4,2,3,16,4,0,36,108,108,108,true",
                "4,2,4,25,1,3,126,327,327,327,true",
                "4,2,5,52,4,0,252,1944,1944,1944,true",
                "4,3,3,28,4,0,72,504,504,504,true",
                "4,4,3,40,4,0,108,1188,1188,1188,true",
                "4,5,3,52,4,0,144,2160,2160,2160,true",
            ],
        ),
    ],
    ids=["paths-only", "every-m-too-large", "kappa-and-m-stops"],
)
def test_table_grid_stops_early(flags, rows, capsys) -> None:
    assert run(["table", *flags]) == 0
    assert capsys.readouterr().out == "\n".join([TABLE_HEADER, *rows]) + "\n"


def test_table_takes_no_family_flag(capsys) -> None:
    # the table covers the symmetric family only; --family was never read
    with pytest.raises(SystemExit) as caught:
        run(["table", "--family", "sym"])
    assert caught.value.code == 2
    assert "--family" in capsys.readouterr().err


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
