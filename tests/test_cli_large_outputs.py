"""The CLI's output bytes on two graphs above p = 46,341, pinned by sha256 digest.

At p = 46,341 a vertex id times p passes 2**31, so a sort key such as
``first * p + second`` overflows if it is formed in int32.  The overflow
does not fail loudly: the blocks sort into another order and ``color``
prints the same span with different colors.  ``tests/test_cli_outputs.py``
stops at p = 300; these two cases pin ``color`` (its stdout, its ``-o``
file and ``--emit-ordering``), ``bound`` and ``verify`` of the coloring and
of a copy with the colors of the ordering's first two vertices swapped,
which has a violation.
A digest is the first 16 hex digits of the sha256 of the output; a
``verify`` output is its exit code, a newline, then its stdout.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from hamcolor.cli import run

# case -> (gen arguments, shuffle seed or None)
CASES = {
    "sym-6-6-7-relabeled": (
        ["sym", "--block-size", "6", "--cut-degree", "6", "--diameter", "7"], 4242,
    ),
    "star-100000": (["star", "-n", "100000"], None),
}

DIGESTS = {
    "sym-6-6-7-relabeled": {
        "color": "206ec1c74c9839e0", "colors": "c841ad3a956faf5e", "ordering": "76e66bccfe759e1c",
        "bound": "28f9973d6d2c54b2", "verify": "830f48b132d247fc",
        "verify_swapped": "d549d602c4d20ea8",
    },
    "star-100000": {
        "color": "162ed0e4610900a5", "colors": "e2bea77a4c848f22", "ordering": "0f652e69e8cb37ea",
        "bound": "8bbed7625a591594", "verify": "b42df884a9f84001",
        "verify_swapped": "8133ac2bf0928d47",
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(capsys, *argv) -> tuple[int, str]:
    capsys.readouterr()
    code = run([str(a) for a in argv])
    return code, capsys.readouterr().out


def _outputs(case: str, tmp_path, capsys) -> dict[str, str]:
    graph, colors, ordering, swapped = (
        tmp_path / f for f in ("g.json", "c.json", "o.json", "s.json")
    )
    gen, seed = CASES[case]
    assert run(["gen", *gen, "-o", str(graph)]) == 0
    if seed is not None:
        doc = json.loads(graph.read_text())
        perm = list(range(doc["p"]))
        random.Random(seed).shuffle(perm)
        doc["blocks"] = [[perm[v] for v in block] for block in doc["blocks"]]
        graph.write_text(json.dumps(doc))
        del doc, perm
    out = {}
    code, out["color"] = _run(capsys, "color", graph, "-o", colors, "--emit-ordering", ordering)
    assert code == 0
    out["colors"] = colors.read_text()
    out["ordering"] = ordering.read_text()
    out["bound"] = _run(capsys, "bound", graph)[1]
    values = json.loads(out["colors"])["colors"]
    u, v = json.loads(out["ordering"])["ordering"][:2]
    values[u], values[v] = values[v], values[u]
    swapped.write_text(json.dumps({"colors": values}))
    for name, path in (("verify", colors), ("verify_swapped", swapped)):
        code, text = _run(capsys, "verify", graph, path)
        out[name] = f"{code}\n{text}"
    return out


@pytest.mark.parametrize("case", CASES)
def test_large_outputs_match_their_digests(case, tmp_path, capsys) -> None:
    outputs = _outputs(case, tmp_path, capsys)
    assert json.loads(outputs["bound"])["p"] > 46_341
    assert outputs["verify"].startswith("0\n") and outputs["verify_swapped"].startswith("1\n")
    digests = {name: _digest(text) for name, text in outputs.items()}
    assert digests == DIGESTS[case]
