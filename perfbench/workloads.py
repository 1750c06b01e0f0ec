"""The benchmark's workloads: their inputs, timed operations and checks.

Every input is written by ``hamcolor gen``.  Symmetric graphs and the union
graph have fixed shapes; the run's seed only relabels their vertices, so
the work per run stays the same while the labels the program sees change.
The random graphs of ``greedy`` and ``verify-dense`` come from generator
seeds drawn from the run's seed, kept only when their order falls in a
narrow band, so that run times and peak memory do not swing with the draw.
The ``exact`` graphs keep the generator's fixed seeds and labels: the
branch-and-bound breaks ties by vertex id, and across relabelings its time
on one graph varies by up to 70 %, more than the comparison could absorb.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path

from checker import Graph

# generator seed -> exact hamiltonian chromatic number of
# ``gen random --seed S --max-p 12``, recomputed by
# ``python3 perfbench/checker.py exact-values``
EXACT_GEN_MAX_P = 12
EXACT_GRAPHS = {29: 28, 33: 36, 38: 39, 58: 36}

# the paper's goldens
GOLDEN_SPANS = {(4, 2, 4): 327, (4, 2, 5): 1944}

COARSEN = 16  # vertices sharing each color of the coarsened coloring


@dataclass
class Input:
    """One graph: how gen makes it and what its outputs must show."""

    name: str
    gen: list[str]
    relabel: bool
    method: str | None = None
    span: int | None = None
    exact: int | None = None
    band: tuple[int, int] | None = None
    dense: str | None = None  # "all-equal" or "coarsened": verify-dense's coloring
    dir: Path = Path(".")
    graph: Graph | None = None

    @property
    def gen_path(self) -> Path:
        return self.dir / f"{self.name}.gen.json"

    @property
    def path(self) -> Path:
        return self.dir / f"{self.name}.json" if self.relabel else self.gen_path

    @property
    def colors_path(self) -> Path:
        return self.dir / f"{self.name}.colors.json"


@dataclass
class Op:
    """One timed CLI call; ``args`` follow ``hamcolor``."""

    kind: str
    input: Input
    args: list[str]


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    ops: list[Op]


def _sym(m: int, kappa: int, d: int, **kw) -> Input:
    gen = ["sym", "--block-size", str(m), "--cut-degree", str(kappa), "--diameter", str(d)]
    return Input(f"sym-{m}-{kappa}-{d}", gen, relabel=True, span=GOLDEN_SPANS.get((m, kappa, d)), **kw)


def _random(rng: random.Random, name: str, max_p: int, lo: int, **kw) -> Input:
    """A random graph from the first drawn generator seed giving lo <= p <= max_p."""
    from hamcolor import gen_random_block_graph

    for _ in range(5000):
        seed = rng.randrange(10**9)
        if gen_random_block_graph(seed, max_p).p >= lo:
            gen = ["random", "--seed", str(seed), "--max-p", str(max_p)]
            return Input(name, gen, relabel=False, band=(lo, max_p), **kw)
    raise RuntimeError(f"no generator seed gives p in [{lo}, {max_p}]")


def _ops(kinds: tuple[str, ...], i: Input) -> list[Op]:
    graph, colors = str(i.path), str(i.colors_path)
    args = {
        "color": ["color", graph, "-o", colors],
        "verify": ["verify", graph, colors],
        "exact": ["exact", graph, "--max-p", "12"],
    }
    return [Op(k, i, args[k]) for k in kinds]


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "sym-color":
        inputs = [_sym(5, 6, 7, method="symmetric"), _sym(6, 6, 7, method="symmetric")]
        kinds = ("color",)
    elif name == "sym-verify":
        inputs = [Input("union-7-4", ["union", "-n", "7", "-k", "4"], relabel=True, method="union")]
        inputs += [_sym(4, 2, 4, method="symmetric"), _sym(4, 2, 5, method="symmetric")]
        inputs += [_sym(5, 5, 6, method="symmetric")]
        kinds = ("color", "verify")
    elif name == "greedy":
        inputs = [
            _random(rng, "random-a", 1500, 1300, method="greedy"),
            _random(rng, "random-b", 2000, 1950, method="greedy"),
        ]
        kinds = ("color", "verify")
    elif name == "exact":
        inputs = [
            Input(f"random-{s}", ["random", "--seed", str(s), "--max-p", str(EXACT_GEN_MAX_P)],
                  relabel=False, exact=value)
            for s, value in EXACT_GRAPHS.items()
        ]
        kinds = ("exact",)
    elif name == "verify-dense":
        inputs = [
            _sym(6, 4, 5, dense="all-equal"),
            _random(rng, "random-dense", 2000, 1950, dense="coarsened"),
        ]
        kinds = ("verify",)
    else:
        raise KeyError(name)
    for i in inputs:
        i.dir = workdir
    return Workload(name, inputs, [op for i in inputs for op in _ops(kinds, i)])


WORKLOADS = ("sym-color", "sym-verify", "greedy", "exact", "verify-dense")


def prepare(w: Workload, seed: int) -> None:
    """Relabel the generated graphs, load them, and write dense colorings."""
    for i in w.inputs:
        doc = json.loads(i.gen_path.read_text())
        if i.relabel:
            perm = list(range(doc["p"]))
            random.Random(f"{seed}:{i.name}").shuffle(perm)
            doc = {"p": doc["p"], "blocks": [[perm[v] for v in b] for b in doc["blocks"]]}
            i.path.write_text(json.dumps(doc))
        if i.band and not i.band[0] <= doc["p"] <= i.band[1]:
            raise RuntimeError(f"{i.name}: p={doc['p']} outside {i.band}")
        i.graph = Graph(doc["p"], doc["blocks"])
        p = doc["p"]
        if i.dense == "all-equal":
            colors = [0] * p
        elif i.dense == "coarsened":
            # a valid coloring (distinct colors p - 2 apart), then groups of
            # COARSEN consecutive colors merged into one
            rank = list(range(p))
            random.Random(f"{seed}:{i.name}:colors").shuffle(rank)
            colors = [(p - 2) * COARSEN * (rank[v] // COARSEN) for v in range(p)]
        else:
            continue
        i.colors_path.write_text(json.dumps({"colors": colors}))


class Checker:
    """Checks each operation's output against the independent checker.

    Colorings are judged once per distinct content; a later output with
    the same bytes gets the same verdict.
    """

    def __init__(self):
        self._verdicts: dict[tuple[str, str], int] = {}
        self.span_excess: dict[str, int] = {}

    def violations(self, i: Input, colors: list[int]) -> int:
        key = (i.name, hashlib.sha256(json.dumps(colors).encode()).hexdigest())
        if key not in self._verdicts:
            if len(set(colors)) == 1 and not i.graph.block_cut_tree_is_path():
                # D < p - 1 for every pair, so every pair is short
                self._verdicts[key] = comb(i.graph.p, 2)
            else:
                self._verdicts[key] = i.graph.violation_count(colors)
        return self._verdicts[key]

    def check(self, op: Op, rc: int, stdout: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        try:
            return getattr(self, f"_check_{op.kind}")(op, rc, stdout)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_color(self, op: Op, rc: int, stdout: str) -> str | None:
        i = op.input
        if rc != 0:
            return f"exit {rc}"
        m = re.match(r"method=(\S+) span=(\d+) lower_bound=(\d+) status=", stdout)
        if not m:
            return f"unexpected output {stdout[:80]!r}"
        method, span, bound = m.group(1), int(m.group(2)), int(m.group(3))
        want = i.graph.bound.lower_bound
        colors = json.loads(i.colors_path.read_text())["colors"]
        if method != i.method:
            return f"method {method}, expected {i.method}"
        if bound != want:
            return f"lower_bound {bound}, independent bound {want}"
        if self.violations(i, colors):
            return "coloring is not hamiltonian"
        if max(colors) - min(colors) != span:
            return f"printed span {span} differs from the coloring's"
        if i.span is not None and span != i.span:
            return f"span {span}, expected {i.span}"
        if method != "greedy" and span != want:
            return f"span {span} misses the bound {want}"
        if span < want:
            return f"span {span} below the bound {want}"
        self.span_excess[i.name] = span - want
        return None

    def _check_verify(self, op: Op, rc: int, stdout: str) -> str | None:
        colors = json.loads(op.input.colors_path.read_text())["colors"]
        count = self.violations(op.input, colors)
        span = max(colors) - min(colors)
        if count == 0:
            want_rc, want = 0, f"valid span={span} pairs_checked={comb(op.input.graph.p, 2)}"
        else:
            want_rc, want = 1, f"invalid span={span} violations={count}"
        first = stdout.split("\n", 1)[0]
        if rc != want_rc or first != want:
            return f"exit {rc} {first[:80]!r}, expected exit {want_rc} {want!r}"
        return None

    def _check_exact(self, op: Op, rc: int, stdout: str) -> str | None:
        i = op.input
        if rc != 0:
            return f"exit {rc}"
        lines = stdout.splitlines()
        m = re.fullmatch(r"exact_hc=(\d+) lower_bound=(\d+) gap=(-?\d+)", lines[0])
        if not m:
            return f"unexpected output {lines[0][:80]!r}"
        value, bound, gap = (int(x) for x in m.groups())
        want = i.graph.bound.lower_bound
        colors = json.loads(lines[1])["colors"]
        if bound != want:
            return f"lower_bound {bound}, independent bound {want}"
        if value != i.exact or gap != value - bound or value < bound:
            return f"exact_hc={value} gap={gap}, expected {i.exact} over bound {want}"
        if self.violations(i, colors):
            return "witness is not hamiltonian"
        if max(colors) - min(colors) != value:
            return "witness span differs from the printed value"
        return None
