"""Command-line interface.

Exit codes: 0 success (and valid colorings), 1 invalid coloring from
``verify``, 2 input or parameter errors or running out of memory, 3 search
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations, takewhile
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .coloring import check_colors, color_graph, validate_coloring
from .detour import detour_profile
from .errors import BudgetExceededError, HamcolorError, InvalidSpecError
from .exact import SearchBudget, exact_hc
from .families import (
    SymmetricSpec,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
)
from .formulas import (
    lower_bound,
    path_hc,
    star_hc,
    sym_hc,
    sym_order_count,
    sym_total_level,
    union_hc,
)
from .graphs import BlockGraph, _json_parts, _load_json, from_json, to_dot


def _write(path: str | None, text: str | Iterable[str]) -> None:
    """Write text, or each piece of an iterable of texts, to path or, for None or "-", stdout."""
    pieces = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _int_list_json(key: str, values: Sequence[int] | np.ndarray) -> str:
    """The bytes of ``json.dumps({key: list(values)}) + "\\n"``, built a slice at a time.

    json.dumps makes a string per value before it joins them, about 50 bytes
    each; here only one slice's strings exist at a time.  An array's slice
    becomes a list first: str of a Python int is several times faster than
    str of a numpy integer.
    """
    step = 4096
    parts = []
    for i in range(0, len(values), step):
        part = values[i : i + step]
        parts.append(", ".join(map(str, part.tolist() if isinstance(part, np.ndarray) else part)))
    return f'{{"{key}": [{", ".join(parts)}]}}\n'


def _load_graph(path: str) -> BlockGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def _load_colors(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = _load_json(fh.read(), "coloring")
    if not isinstance(doc, dict) or not isinstance(doc.get("colors"), list):
        raise InvalidSpecError('coloring JSON must be an object with a "colors" list')
    return doc["colors"]


def _parse_range(text: str, least: int, most: int) -> list[int]:
    """Accept "3", "3,4,5" or "3-5"; values outside least..most are dropped."""
    values: set[int] = set()
    for part in text.split(","):
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            values.update(range(max(int(lo), least), min(int(hi), most) + 1))
        else:
            values.add(int(part))
    return sorted(v for v in values if least <= v <= most)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "sym":
        # only the graph: the coordinates are not held while the JSON is written
        g = gen_symmetric(SymmetricSpec(args.block_size, args.cut_degree, args.diameter))[0]
    elif args.family == "union":
        g = gen_union(args.n, args.k)
    elif args.family == "star":
        g = gen_star(args.n)
    elif args.family == "path":
        g = gen_path(args.n)
    else:
        g = gen_random_block_graph(
            args.seed, args.max_p, args.max_block_size, args.max_blocks_per_cut
        )
    _write(args.output, _json_parts(g))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    profile = detour_profile(g)
    doc = {
        "p": g.p,
        "omega": profile.omega,
        "xi": profile.xi,
        "center": list(profile.center),
        "levels": profile.level.tolist(),
        "total_level": profile.total_level,
        "lower_bound": lower_bound(g, profile),
    }
    _write(args.output, json.dumps(doc, sort_keys=True) + "\n")
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    if args.family == "sym":
        spec = SymmetricSpec(args.block_size, args.cut_degree, args.diameter)
        value = sym_hc(spec) if args.diameter >= 3 else union_hc(args.block_size, args.cut_degree)
        echo = f"sym block_size={args.block_size} cut_degree={args.cut_degree} diameter={args.diameter}"
    elif args.family == "star":
        value = star_hc(args.n)
        echo = f"star leaves={args.n}"
    elif args.family == "path":
        value = path_hc(args.n)
        echo = f"path order={args.n}"
    else:
        value = union_hc(args.n, args.k)
        echo = f"union n={args.n} k={args.k}"
    print(echo, file=sys.stderr)
    print(value)
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    result = color_graph(_load_graph(args.graph))
    print(
        f"method={result.method} span={result.coloring.span} "
        f"lower_bound={result.bound} status={result.status}"
    )
    # the profile is not written, so it goes before the writes, and the
    # colors before the ordering's
    colors, ordering = result.coloring._array, result.ordering
    del result
    _write(args.output, _int_list_json("colors", colors))
    del colors
    if args.emit_ordering:
        _write(args.emit_ordering, _int_list_json("ordering", ordering))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    colors = _load_colors(args.coloring)
    violations = validate_coloring(g, colors)
    span = max(colors) - min(colors)
    if not violations:
        print(f"valid span={span} pairs_checked={g.p * (g.p - 1) // 2}")
        return 0
    print(f"invalid span={span} violations={len(violations)}")
    for u, v, deficit in violations[:20]:
        print(f"  pair ({u}, {v}) short by {deficit}")
    if len(violations) > 20:
        print(f"  ... and {len(violations) - 20} more")
    return 1


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    budget = SearchBudget(max_p=args.max_p, time_limit=args.time_limit)
    value, witness = exact_hc(g, budget)
    profile = detour_profile(g)
    bound = lower_bound(g, profile)
    print(f"exact_hc={value} lower_bound={bound} gap={value - bound}")
    _write(None, _int_list_json("colors", witness.colors))
    return 0


def _table_specs(args: argparse.Namespace):
    """The specs with kn >= 2, d >= 3 and p <= --max-p, in grid order.

    p exceeds m, kappa and d and grows with each of them, so each loop
    stops at the first value whose smallest spec is too large.
    """
    limits = ((args.block_size, 2), (args.cut_degree, 2), (args.diameter, 3))
    ms, kappas, ds = (_parse_range(text, least, args.max_p) for text, least in limits)
    fits = lambda spec: sym_order_count(spec) <= args.max_p
    for m in ms:
        for kappa in kappas:
            if (m - 1) * (kappa - 1) < 2:
                continue  # a path, which path_hc covers
            specs = list(takewhile(fits, (SymmetricSpec(m, kappa, d) for d in ds)))
            if not specs:
                break
            yield from specs
        else:
            continue  # no kappa stopped the loop
        if kappa == kappas[0]:  # m's smallest spec is too large, so any larger m's is
            break


def _cmd_table(args: argparse.Namespace) -> int:
    rows = ["m,kappa,d,p,omega,xi,total_level,lower_bound,closed_form,algorithm_span,valid"]
    for spec in _table_specs(args):
        g, _ = gen_symmetric(spec)
        result = color_graph(g)
        ok = not validate_coloring(g, result.coloring.colors)
        rows.append(
            f"{spec.block_size},{spec.cut_degree},{spec.diameter},{g.p},{result.profile.omega},"
            f"{result.profile.xi},{sym_total_level(spec)},{result.bound},{sym_hc(spec)},"
            f"{result.coloring.span},{str(ok).lower()}"
        )
    _write(args.output, "\n".join(rows) + "\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    colors = _load_colors(args.coloring) if args.coloring else None
    if colors is not None:
        check_colors(g, colors)
    if args.format == "dot":
        _write(args.output, to_dot(g, colors, clusters=args.clusters))
    elif args.format == "json":
        _write(args.output, _json_parts(g))
    else:
        lines = ["u,v,block"]
        lines += [f"{u},{v},{bi}" for bi, b in enumerate(g.blocks) for u, v in combinations(b, 2)]
        _write(args.output, "\n".join(lines) + "\n")
    return 0


def _add_families(sub) -> list[argparse.ArgumentParser]:
    """Declare the sym, union, star and path subcommands with their size arguments."""
    sym = sub.add_parser("sym", help="symmetric block graph")
    sym.add_argument("--block-size", type=int, required=True)
    sym.add_argument("--cut-degree", type=int, required=True)
    sym.add_argument("--diameter", type=int, required=True)
    union = sub.add_parser("union", help="one-point union of k cliques")
    union.add_argument("-n", type=int, required=True, help="clique size")
    union.add_argument("-k", type=int, required=True, help="number of cliques")
    star = sub.add_parser("star", help="star graph")
    star.add_argument("-n", type=int, required=True, help="number of leaves")
    path = sub.add_parser("path", help="path graph")
    path.add_argument("-n", type=int, required=True, help="number of vertices")
    return [sym, union, star, path]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamcolor",
        description="Hamiltonian colorings of block graphs: generate, bound, color, verify, solve.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph and write its JSON")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    families = _add_families(gen_sub)
    g_rand = gen_sub.add_parser("random", help="seeded random block graph")
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--max-p", type=int, required=True)
    g_rand.add_argument("--max-block-size", type=int, default=5)
    g_rand.add_argument("--max-blocks-per-cut", type=int, default=3)
    for sp in (*families, g_rand):
        sp.add_argument("-o", "--output", default=None)

    p_bound = sub.add_parser("bound", help="detour profile and lower bound as JSON")
    p_bound.add_argument("graph")
    p_bound.add_argument("-o", "--output", default=None)

    p_formula = sub.add_parser("formula", help="closed-form value for a family")
    _add_families(p_formula.add_subparsers(dest="family", required=True))

    p_color = sub.add_parser("color", help="color a graph (symmetric construction or greedy)")
    p_color.add_argument("graph")
    p_color.add_argument("-o", "--output", default=None)
    p_color.add_argument("--emit-ordering", default=None, metavar="FILE")

    p_verify = sub.add_parser("verify", help="check a coloring; exit 1 with violations if invalid")
    p_verify.add_argument("graph")
    p_verify.add_argument("coloring")

    p_exact = sub.add_parser("exact", help="exact hamiltonian chromatic number (small graphs)")
    p_exact.add_argument("graph")
    p_exact.add_argument("--max-p", type=int, default=10)
    p_exact.add_argument("--time-limit", type=float, default=None)

    p_table = sub.add_parser("table", help="CSV over a symmetric-family parameter grid")
    p_table.add_argument("--block-size", default="3-5")
    p_table.add_argument("--cut-degree", default="2-4")
    p_table.add_argument("--diameter", default="3-7")
    p_table.add_argument("--max-p", type=int, default=5000)
    p_table.add_argument("-o", "--output", default=None)

    p_export = sub.add_parser("export", help="export a graph as dot, json or csv edges")
    p_export.add_argument("graph")
    p_export.add_argument("--format", choices=["dot", "json", "csv"], default="dot")
    p_export.add_argument("--coloring", default=None)
    p_export.add_argument("--clusters", action="store_true")
    p_export.add_argument("-o", "--output", default=None)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "bound": _cmd_bound,
    "formula": _cmd_formula,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "exact": _cmd_exact,
    "table": _cmd_table,
    "export": _cmd_export,
}


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (HamcolorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


def main() -> None:
    """Run the CLI, then end the process without the interpreter's teardown.

    With numpy loaded, teardown takes about 20 ms and has nothing left to
    do: every output file is closed by then.  The standard streams are
    flushed first; a flush that fails, as on a closed pipe, exits 120
    without a traceback, as the interpreter's own exit does.
    """
    code = run()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except (OSError, ValueError):
            code = 120
    os._exit(code)


if __name__ == "__main__":
    main()
