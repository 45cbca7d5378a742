"""The benchmark in perfbench/ reaches into the library by name: its
tracer wraps module attributes and its campaign log patches
experiments.classify. These tests fail when a rename or an inlined call
would make that instrumentation miss silently. They only read perfbench/."""

import importlib
import importlib.util
from pathlib import Path

from lqgames import analysis, experiments, riccati
from lqgames.analysis import ClassifyOptions
from lqgames.model import GameSpec, PTuple

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for name, module, path in tracing.TRACED:
        target = importlib.import_module(f"lqgames.{module}")
        for attr in path.split("."):
            assert hasattr(target, attr), f"{name}: no {attr} in {target}"
            target = getattr(target, attr)
        assert callable(target), name
    for module in tracing.MODULES + tracing.UNTRACED_MODULES:
        importlib.import_module(f"lqgames.{module}")


def test_campaigns_classify_through_module_global(monkeypatch, fig1_game,
                                                  fig1_equilibria):
    calls = []
    original = experiments.classify

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "classify", counting)
    experiments.run_basin_grid(fig1_game, axis_samples=2,
                               equilibria=fig1_equilibria)
    assert len(calls) == 4
    experiments.run_ensemble([(1, 1, 2)], trials=3, master_seed=0,
                             opts=ClassifyOptions(horizon=200))
    assert len(calls) == 7


def test_recursion_steps_through_riccati_step(monkeypatch, fig1_game):
    """The tracer counts steps on the riccati_step module global; a loop
    calling the stage map directly would zero that count silently."""
    calls = []
    original = riccati.riccati_step

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(riccati, "riccati_step", counting)
    terminal = PTuple([1.0, 2.0])
    trace = riccati.run_recursion(fig1_game, terminal, 40)
    assert trace.steps == 40
    assert len(calls) == trace.steps
    calls.clear()
    opts = ClassifyOptions()
    stop = riccati.ConvergenceStop()
    trace = riccati.run_recursion(fig1_game, terminal, opts.horizon, stop)
    calls.clear()
    assert analysis.classify(fig1_game, terminal, opts).verdict == "converged"
    assert len(calls) == trace.steps
    # A divergence inside a block of steps discards the rest of the block.
    calls.clear()
    game = GameSpec(2, [[0]], [1], [1])
    trace = riccati.run_recursion(game, PTuple([1.0]), 1_000)
    assert trace.terminated.reason == "diverged"
    assert trace.steps <= len(calls) < trace.steps + riccati.BLOCK_STEPS
