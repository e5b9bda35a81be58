"""The benchmark's hold on the program: ``perfbench/layers.py`` wraps
hooks, entry points and module globals of ``repro`` by name.

Entering its recorders here makes a renamed or removed hook fail this
test instead of the benchmark, and checks that leaving them puts every
wrapped attribute back. ``perfbench/`` itself is only imported.
"""

from __future__ import annotations

import importlib.util
import sys
import types
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.distributed import DistributedEngine

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

_MISSING = object()


@pytest.fixture(scope="module")
def layers() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(layers: types.ModuleType) -> List[object]:
    """Every loaded ``repro`` module, every class defined in one, and
    every subclass the tracer walks (test modules define policies too)."""
    from repro.core.scheduler import Scheduler
    from repro.net.delays import DelayModel

    out: List[object] = []
    out += layers._subclasses(Scheduler) + layers._subclasses(DelayModel)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        out.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("repro"):
                out.append(value)
    return out


def _own(owner: object, attr: str) -> object:
    """The attribute as set on ``owner`` itself, not inherited."""
    return vars(owner).get(attr, _MISSING)


def _enter_and_exit(
    layers: types.ModuleType, recorder
) -> Tuple[List[Tuple[object, str]], Dict]:
    """Enter and leave ``recorder``; return the (owner, attribute) pairs
    it patched and the namespaces as they were before it was entered."""
    before = {id(ns): dict(vars(ns)) for ns in _namespaces(layers)}
    with recorder:
        patched = [(owner, attr) for owner, attr, _ in recorder._patches._undo]
        for owner, attr in patched:
            assert _own(owner, attr) is not before[id(owner)].get(attr, _MISSING), (
                f"{owner!r}.{attr} was not replaced"
            )
    return patched, before


def _leftovers(patched, before) -> List[str]:
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in patched
        if _own(owner, attr) is not before[id(owner)].get(attr, _MISSING)
    ]


def _undo_leak(patched, before) -> None:
    """Put back what a recorder left behind, so later tests run the
    program unwrapped."""
    for owner, attr in patched:
        original = before[id(owner)].get(attr, _MISSING)
        if original is _MISSING:
            if attr in vars(owner):
                delattr(owner, attr)
        else:
            setattr(owner, attr, original)


#: ``LayerTracer`` patches ``step_cycle`` on ``DistributedEngine`` too,
#: which inherits it from ``Engine`` since the two cycle loops became
#: one: the second patch wraps the first, and restoring it leaves the
#: ``Engine`` wrapper set on ``DistributedEngine`` (a benchmark defect,
#: queued on ROADMAP for the next change to ``perfbench/``).
KNOWN_LEAK = (DistributedEngine, "step_cycle")


def test_setup_probe_restores_engine_run(layers):
    patched, before = _enter_and_exit(layers, layers.SetupProbe())
    try:
        assert [attr for _, attr in patched] == ["run"]
        assert _leftovers(patched, before) == []
    finally:
        _undo_leak(patched, before)


def test_layer_tracer_wraps_the_named_hooks_and_restores_them(layers):
    patched, before = _enter_and_exit(layers, layers.LayerTracer())
    try:
        names = {(getattr(o, "__name__", o), attr) for o, attr in patched}
        for expected in [
            ("Engine", "run"),
            ("Engine", "step_cycle"),
            ("AuditLog", "on_cycle"),
            ("TelemetrySampler", "on_cycle"),
            ("LineageTracker", "on_ingested"),
            ("LineageTracker", "on_swm_ingested"),
            ("LineageTracker", "on_consumed"),
            ("LineageTracker", "on_pane_fire"),
            ("TraceWriter", "finalize"),
            ("repro.resilience.checkpoint", "capture"),
            ("repro.resilience.checkpoint", "serialize"),
        ]:
            assert expected in names, expected
        leftovers = _leftovers(
            [pair for pair in patched if pair != KNOWN_LEAK], before
        )
        assert leftovers == []
    finally:
        _undo_leak(patched, before)


@pytest.mark.xfail(
    strict=True,
    reason="perfbench/layers.py leaves its Engine.step_cycle wrapper set "
    "on DistributedEngine after restore (ROADMAP benchmark follow-ups)",
)
def test_layer_tracer_leaves_distributed_step_cycle_inherited(layers):
    patched, before = _enter_and_exit(layers, layers.LayerTracer())
    try:
        assert _leftovers([KNOWN_LEAK], before) == []
    finally:
        _undo_leak(patched, before)
