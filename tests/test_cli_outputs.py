"""The CLI's output bytes on a fixed corpus, pinned by sha256 digest.

Each case generates or writes one graph, then runs ``color``, ``bound``,
``verify`` (of the coloring and of an all-zero coloring), ``export`` and,
for p <= 12, ``exact`` on it, all through ``hamcolor.cli.run`` in process.
Every output is hashed and compared with the digest recorded here, so a
change that alters any byte of them fails with the outputs it altered.
A digest is the first 16 hex digits of the sha256 of the output; a
``verify`` output is its exit code, a newline, then its stdout.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from hamcolor.cli import run

GEN = {
    "sym-4-2-4": ["sym", "--block-size", "4", "--cut-degree", "2", "--diameter", "4"],
    "sym-4-2-5": ["sym", "--block-size", "4", "--cut-degree", "2", "--diameter", "5"],
    "sym-3-3-3": ["sym", "--block-size", "3", "--cut-degree", "3", "--diameter", "3"],
    "union-7-4": ["union", "-n", "7", "-k", "4"],
    "union-5-2": ["union", "-n", "5", "-k", "2"],
    "star-40": ["star", "-n", "40"],
    "path-40": ["path", "-n", "40"],
    **{f"random-{s}": ["random", "--seed", str(s), "--max-p", "300"] for s in (1, 2, 3)},
}
# case -> (generated case, shuffle seed): the same graph with its vertex ids permuted
RELABELED = {"sym-4-2-5-relabeled": ("sym-4-2-5", 1), "union-7-4-relabeled": ("union-7-4", 1)}

DIGESTS = {
    "sym-4-2-4": {
        "gen": "b3899d7aecb61991", "color": "068b3e57a4944197", "colors": "5b4e3181ad6c5603",
        "ordering": "97c6bbcffb684bb8", "bound": "1511c1923dc13b6c", "verify": "9119750fffb6de53",
        "verify_zero": "4b3e8eeb08dd478f", "dot": "ac3babe0fbe208f1", "csv": "fb66a490e198585d",
    },
    "sym-4-2-5": {
        "gen": "abf11fe9b4d0a196", "color": "475c9412828f441b", "colors": "d9742506c276b7e7",
        "ordering": "1d19dc4ab7d40730", "bound": "dff3f84b577ec134", "verify": "c61ec3d61a185802",
        "verify_zero": "c8d2170fa5ec634b", "dot": "0b44a5cf25de1610", "csv": "5f14495f433f083c",
    },
    "sym-3-3-3": {
        "gen": "1eda5e5308a42d91", "color": "59d6a2a782c11b68", "colors": "f8c432474babb77a",
        "ordering": "018273bafe679faa", "bound": "77de829d8640405c", "verify": "c58672592449b90d",
        "verify_zero": "34b22bba2da259a7", "dot": "e34874358165c53f", "csv": "0af6ae3ea5e1c2cb",
    },
    "union-7-4": {
        "gen": "9af9468385ab6e18", "color": "eb112c4b06e3c0da", "colors": "c7491104b64b0ffd",
        "ordering": "7353bbfb01bb16b4", "bound": "827e79ac9cf0b498", "verify": "42dca4bb37dd3ce9",
        "verify_zero": "6ebc52450b3d4828", "dot": "0e0a91c9efaaee1b", "csv": "3a332243797ab1f6",
    },
    "union-5-2": {
        "gen": "a72399e3a23c0315", "color": "a80091c1ef783365", "colors": "1be70daa07bb09aa",
        "ordering": "281aa0a310acc5dd", "bound": "77b34eddaf5742c4", "verify": "f2db5eac3ade6f8a",
        "verify_zero": "9942c496559f6b51", "dot": "ae2743691ddd11c2", "csv": "e88c9fd34c4fd0a9",
        "exact": "72c6282972bc1e3e",
    },
    "star-40": {
        "gen": "c4ec68eef3f0903a", "color": "b51b07dbaba64d8d", "colors": "6438107e1f2f24c2",
        "ordering": "e224cee16ed1f5fe", "bound": "99cc1df68e1875e6", "verify": "0b88773960b09bec",
        "verify_zero": "90f8e620c6971b62", "dot": "994bc35c8d50847a", "csv": "e7eecdcadcdd8bd3",
    },
    "path-40": {
        "gen": "9e20e45a9bac2f78", "color": "7946d3e03eb2affb", "colors": "4e859377ec588793",
        "ordering": "bfed85b296220ba0", "bound": "45783e22bfbf43e4", "verify": "8f6a2555bf9fcf84",
        "verify_zero": "e0fad1327772e42d", "dot": "500d7a68ff91e03c", "csv": "d348eb39095c22fc",
    },
    "random-1": {
        "gen": "8f2b6aee8f856239", "color": "469435796db5bc14", "colors": "469ac6e6b010cfec",
        "ordering": "2ebff427cc3d9630", "bound": "6fc3f491e415fcdc", "verify": "69131a6be96718b4",
        "verify_zero": "69066632867b3280", "dot": "b1e9ada22e250415", "csv": "7b9d6ca0309328bb",
    },
    "random-2": {
        "gen": "c895b4d4267402a3", "color": "a0a2f299ee8dc79d", "colors": "3f33f311d9320638",
        "ordering": "e1ebe24b5c694f0b", "bound": "d225e3a41d0bd42d", "verify": "16308b30358ac049",
        "verify_zero": "73e0577e2523890f", "dot": "29b5b4a7a3e0a3e8", "csv": "701b64eb62999ddd",
    },
    "random-3": {
        "gen": "3952d39b5d729342", "color": "794f22a4a42248b1", "colors": "19a3fee7e545b348",
        "ordering": "867721fb1302ead9", "bound": "a346b38958e19a11", "verify": "01a14b7d6c529e91",
        "verify_zero": "dfee006882063d67", "dot": "7de1a621bb38a563", "csv": "94dc24368f65cfa9",
    },
    "sym-4-2-5-relabeled": {
        "color": "475c9412828f441b", "colors": "17430fc9d6a9efdf", "ordering": "ff027d7a86bcf38c",
        "bound": "b9bc232eb21ea6a6", "verify": "c61ec3d61a185802", "verify_zero": "652f57b88b5c49d6",
        "dot": "13579c1a6f1e67e7", "csv": "f732281a524c7b36",
    },
    "union-7-4-relabeled": {
        "color": "eb112c4b06e3c0da", "colors": "f26063bd1db5d602", "ordering": "57c026a49ec93d3c",
        "bound": "ee17d89310ef85f5", "verify": "42dca4bb37dd3ce9", "verify_zero": "2df28bae112e0ff8",
        "dot": "c4b4242d753762f1", "csv": "578085191f3377d1",
    },
}

TABLE_DIGEST = "38c15b5669a7e8fa"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(capsys, *argv) -> tuple[int, str]:
    capsys.readouterr()
    code = run([str(a) for a in argv])
    return code, capsys.readouterr().out


def _write_graph(case: str, path) -> dict[str, str]:
    """Write the case's graph JSON to path; return the gen output to pin, if any."""
    if case in RELABELED:
        base, seed = RELABELED[case]
        _write_graph(base, path)
        doc = json.loads(path.read_text())
        perm = list(range(doc["p"]))
        random.Random(seed).shuffle(perm)
        doc["blocks"] = [[perm[v] for v in block] for block in doc["blocks"]]
        path.write_text(json.dumps(doc))
        return {}
    assert run(["gen", *GEN[case], "-o", str(path)]) == 0
    return {"gen": path.read_text()}


def _outputs(case: str, tmp_path, capsys) -> dict[str, str]:
    graph, colors, ordering, zeros = (tmp_path / f for f in ("g.json", "c.json", "o.json", "z.json"))
    out = _write_graph(case, graph)
    code, out["color"] = _run(capsys, "color", graph, "-o", colors, "--emit-ordering", ordering)
    assert code == 0
    out["colors"] = colors.read_text()
    out["ordering"] = ordering.read_text()
    out["bound"] = _run(capsys, "bound", graph)[1]
    p = json.loads(graph.read_text())["p"]
    zeros.write_text(json.dumps({"colors": [0] * p}))
    for name, path in (("verify", colors), ("verify_zero", zeros)):
        code, text = _run(capsys, "verify", graph, path)
        out[name] = f"{code}\n{text}"
    out["dot"] = _run(capsys, "export", graph, "--coloring", colors)[1]
    out["csv"] = _run(capsys, "export", graph, "--format", "csv")[1]
    if p <= 12:
        out["exact"] = _run(capsys, "exact", graph, "--max-p", "12")[1]
    return out


@pytest.mark.parametrize("case", [*GEN, *RELABELED])
def test_outputs_match_their_digests(case, tmp_path, capsys) -> None:
    digests = {name: _digest(text) for name, text in _outputs(case, tmp_path, capsys).items()}
    assert digests == DIGESTS[case]


def test_table_matches_its_digest(capsys) -> None:
    code, text = _run(capsys, "table")
    assert code == 0 and _digest(text) == TABLE_DIGEST
