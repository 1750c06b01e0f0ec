"""The traced benchmark binds its spans to hamcolor's function names.

``perfbench/tracing.py`` resolves each target when a traced run starts,
so a renamed or deleted function would only show up as a failed
``--trace 1`` run.  These tests resolve every target and trace one
command, so such a rename fails here instead.
"""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import hamcolor.detour
from hamcolor.cli import run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves() -> None:
    tracing = _tracing()
    for name, target in {**tracing.SPANS, **tracing.COUNTS}.items():
        assert callable(tracing._resolve(target)), name


def test_tracer_sees_the_profile_and_restores_it(tmp_path) -> None:
    tracing = _tracing()
    graph = tmp_path / "g.json"
    run(["gen", "sym", "--block-size", "3", "--cut-degree", "2", "--diameter", "4",
         "-o", str(graph)])
    original = hamcolor.detour.detour_profile
    with tracing.Tracer() as tracer, redirect_stdout(io.StringIO()):
        assert run(["color", str(graph)]) == 0
    assert tracer.calls["graphs.from_json"] == 1
    # color_graph asks for the profile, then symmetric_coordinates, the
    # spec check in sym_ordering, sym_ordering and the forced coloring ask the cache
    assert tracer.calls["detour.detour_profile"] == 5
    assert tracer.calls["graphs.block_cut_tree"] >= 1
    assert hamcolor.detour.detour_profile is original
