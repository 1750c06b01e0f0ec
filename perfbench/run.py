"""Benchmark runner for the hamcolor CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it generates the workload's graphs with ``hamcolor gen``
(three times, timing each set-up), then runs rounds of the workload's
``color`` / ``verify`` / ``exact`` calls, each in a fresh process, until
``--seconds`` have passed and at least three rounds are done.  Every output
is checked by the independent checker.  It reports ``wall_s`` (sum over the
operations of each one's median wall time), ``peak_rss_mb`` (largest peak
RSS of any program process) and ``setup_s`` (median set-up time).

With ``--trace 1`` it runs one round of the same operations in process
through ``hamcolor.cli.run``: twice plain (the first pass warms up) and once
with every traced function wrapped (see tracing.py), and reports
per-module metrics.

The last line of standard output is the JSON result.  Inputs, results and
span traces are written under ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI = "import sys; sys.argv[0] = 'hamcolor'; from hamcolor.cli import main; main()"
SETUP_REPS = 3
MIN_ROUNDS = 3
HARD_LIMIT_S = 120  # no new round starts after this, so a run ends in time
OP_TIMEOUT_S = 60


class Spawner:
    """Client of spawner.py, which runs each program process."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        return json.loads(line)

    def run(self, args: list[str]) -> dict:
        return self._ask({"argv": [sys.executable, "-c", CLI, *args], "timeout": OP_TIMEOUT_S})

    def python(self, code: str) -> dict:
        return self._ask({"argv": [sys.executable, "-c", code], "timeout": OP_TIMEOUT_S})

    def peak_rss_mb(self) -> float:
        return self._ask({"rss": True})["peak_rss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hamcolor" / "cli.py").is_file():
        print(f"error: hamcolor sources not found under {SRC}", file=sys.stderr)
        return 2
    # started before the runner loads numpy and the checked graphs
    spawner = Spawner()
    try:
        return _run(args, spawner)
    finally:
        spawner.close()


def _run(args, spawner: Spawner) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workdir = HERE / "out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    w = workloads.build(args.workload, args.seed, workdir)

    setup_times = []
    for _ in range(SETUP_REPS):
        total = 0.0
        for i in w.inputs:
            res = spawner.run(["gen", *i.gen, "-o", str(i.gen_path)])
            if res["rc"] != 0:
                print(f"error: gen {i.gen} exited {res['rc']}: {res['stderr']}", file=sys.stderr)
                return 1
            total += res["wall_s"]
        setup_times.append(total)
    workloads.prepare(w, args.seed)
    checker = workloads.Checker()

    attempted = failed = 0

    def record(op, rc: int, stdout: str, stderr: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        problem = checker.check(op, rc, stdout)
        if problem:
            failed += 1
            print(f"FAIL {op.kind} {op.input.name}: {problem} {stderr[-300:]}", file=sys.stderr)

    if args.trace:
        metrics = _traced(w, spawner, checker, record, workdir, args.seed)
    else:
        walls: list[list[float]] = [[] for _ in w.ops]
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while (rounds < MIN_ROUNDS or time.perf_counter() < deadline) and (
            time.perf_counter() - started < HARD_LIMIT_S
        ):
            for k, op in enumerate(w.ops):
                res = spawner.run(op.args)
                walls[k].append(res["wall_s"])
                record(op, res["rc"], res["stdout"], res["stderr"])
            rounds += 1
        metrics = {
            "wall_s": {"value": sum(statistics.median(x) for x in walls), "unit": "s"},
            "peak_rss_mb": {"value": spawner.peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
        print(f"{args.workload}: {rounds} rounds of {len(w.ops)} operations", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (workdir / f"result-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


def _traced(w, spawner, checker, record, workdir: Path, seed: int) -> dict:
    import hamcolor.cli
    from tracing import Tracer

    def in_process(op) -> float:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = hamcolor.cli.run(op.args)
            except SystemExit as exc:
                rc = exc.code
        elapsed = time.perf_counter() - t0
        record(op, rc, out.getvalue(), err.getvalue())
        return elapsed

    # the first pass pays for warming the allocator; the second is the baseline
    plain = [sum(in_process(op) for op in w.ops) for _ in range(2)][-1]
    with Tracer() as tracer:
        traced = sum(in_process(op) for op in w.ops)
    (workdir / f"trace-seed{seed}.json").write_text(json.dumps(tracer.records()))

    starts = [spawner.python("import hamcolor.cli")["wall_s"] for _ in range(3)]
    own = tracer.self_times()
    calls = tracer.calls
    values = {
        "graphs.from_json_s": own["graphs.from_json"],
        "graphs.block_cut_tree_s": own["graphs.block_cut_tree"],
        "detour.detour_profile_s": own["detour.detour_profile"],
        "detour.detour_profile_calls": calls["detour.detour_profile"],
        "detour.detour_matrix_s": own["detour.detour_matrix"],
        "detour.detour_matrix_calls": calls["detour.detour_matrix"],
        "detour.matrix_bytes": tracer.matrix_bytes,
        "detour.branch_relation_calls": calls["detour.branch_relation"],
        "coloring.greedy_ordering_s": own["coloring.greedy_ordering"],
        "families.symmetric_coordinates_s": own["families.symmetric_coordinates"],
        "coloring.sym_ordering_s": own["coloring.sym_ordering"],
        "coloring.coloring_from_ordering_s": own["coloring.coloring_from_ordering"],
        "coloring.validate_coloring_s": own["coloring.validate_coloring"],
        "coloring.validate_coloring_calls": calls["coloring.validate_coloring"],
        "coloring.violations": tracer.violations,
        "coloring.span_excess": sum(checker.span_excess.values()),
        "exact.greedy_min_coloring_s": own["exact.greedy_min_coloring"],
        "exact.greedy_min_coloring_calls": calls["exact.greedy_min_coloring"],
        "exact.exact_hc_s": own["exact.exact_hc"],
        "cli.startup_s": statistics.median(starts),
        "cli.self_s": own["cli.run"],
        "trace.overhead_pct": 100 * (traced - plain) / plain,
    }
    return {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
