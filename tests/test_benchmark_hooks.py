"""The benchmark in perfbench/ reaches into the library by name: its
tracer wraps module attributes and its campaign log patches
experiments.classify. These tests fail when a rename or an inlined call
would make that instrumentation miss silently. They only read perfbench/."""

import importlib
import importlib.util
from pathlib import Path

from lqgames import experiments
from lqgames.analysis import ClassifyOptions

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
