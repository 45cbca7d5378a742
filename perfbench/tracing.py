"""Spans around the public functions of each lqgames module.

A Tracer replaces a function's attribute in every lqgames module that
holds it by name (riccati_step lives in riccati, analysis and equilibria;
run_recursion in riccati, analysis and cli), so calls made inside the
library are recorded too. Nothing under src/ changes. Spans stay in memory
as (name, start, end, parent, note); when the run ends they are written
out and summarised.
A span's self time is its duration minus the durations of its children;
calls are single-threaded, so children never overlap.
"""

import csv
import gzip
import sys
import time

from lqgames.experiments import VERDICTS

# (span name, module, attribute path). The span name's first component
# is the module its self time is charged to.
TRACED = (
    ("riccati.riccati_step", "riccati", "riccati_step"),
    ("riccati.run_recursion", "riccati", "run_recursion"),
    ("model.PTuple.distance", "model", "PTuple.distance"),
    ("model.validate_game", "model", "validate_game"),
    ("analysis.classify", "analysis", "classify"),
    ("analysis.detect_convergence", "analysis", "detect_convergence"),
    ("analysis.detect_cycle", "analysis", "detect_cycle"),
    ("analysis.verify_cycle", "analysis", "verify_cycle"),
    ("equilibria.scalar_two_agent_equilibria", "equilibria",
     "scalar_two_agent_equilibria"),
    ("experiments.random_game", "experiments", "random_game"),
    ("experiments.run_basin_grid", "experiments", "run_basin_grid"),
    ("experiments.run_ensemble", "experiments", "run_ensemble"),
    ("fileio.write_trace_csv", "fileio", "write_trace_csv"),
    ("cli.main", "cli", "main"),
)

MODULES = ("riccati", "model", "analysis", "equilibria", "experiments",
           "fileio", "cli")
UNTRACED_MODULES = ("simulate",)

# name -> unit of every per-layer metric, in report order: each module's
# metrics end with its total self time.
LAYER_UNITS = {
    "riccati.riccati_step.calls": "count",
    "riccati.riccati_step.us": "us",
    "riccati.run_recursion.self_us_per_step": "us",
    "riccati.self_s": "s",
    "model.PTuple.distance.calls": "count",
    "model.PTuple.distance.us": "us",
    "model.validate_game.s": "s",
    "model.self_s": "s",
    "analysis.classify.self_s": "s",
    "analysis.detect_convergence.s": "s",
    "analysis.detect_cycle.s": "s",
    "analysis.verify_cycle.s": "s",
    "analysis.verify_cycle.calls": "count",
    "analysis.verify_cycle.certified_ratio": "ratio",
    **{f"analysis.steps.{v}": "count" for v in VERDICTS},
    "analysis.self_s": "s",
    "equilibria.scalar_two_agent_equilibria.s": "s",
    "equilibria.self_s": "s",
    "experiments.random_game.s": "s",
    "experiments.run_basin_grid.self_s": "s",
    "experiments.run_ensemble.self_s": "s",
    "experiments.self_s": "s",
    "fileio.write_trace_csv.s": "s",
    "fileio.bytes_written": "bytes",
    "fileio.self_s": "s",
    "cli.main.self_s": "s",
    "cli.self_s": "s",
    "trace.ops": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

_NOTE = {"analysis.classify": lambda result: result.verdict}


class Tracer:
    """Records nested spans while installed; uninstall restores the
    original attributes."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, note]
        self._stack = [-1]
        self._saved = []         # (owner, attribute, original)

    def install(self):
        for name, module, path in TRACED:
            owner_name, _, attr = path.rpartition(".")
            home = sys.modules[f"lqgames.{module}"]
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "lqgames" or mod_name.startswith("lqgames.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapped):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note_of = _NOTE.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1], None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = clock()
                span[4] = type(err).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if note_of is not None:
                span[4] = note_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """All spans as gzipped CSV, times in seconds of perf_counter."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start", "end", "parent", "note"])
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent,
                              "" if note is None else note])

    def layer_metrics(self, wall_s: float, untraced_wall_s: float,
                      ops: int, bytes_written: int) -> dict:
        """Per-layer metrics from the recorded spans (see LAYER_UNITS)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = {}
        total: dict = {}
        own: dict = {}
        classify_of = [-1] * len(spans)
        steps = {v: 0 for v in VERDICTS}
        steps_in_recursion = 0
        rooted = 0.0
        for i, (name, start, end, parent, note) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child[i]
            if parent < 0:
                rooted += dur
            classify_of[i] = i if name == "analysis.classify" else (
                classify_of[parent] if parent >= 0 else -1)
            if name == "riccati.riccati_step":
                if classify_of[i] >= 0:
                    verdict = spans[classify_of[i]][4]
                    steps[verdict] = steps.get(verdict, 0) + 1
                if parent >= 0 and spans[parent][0] == "riccati.run_recursion":
                    steps_in_recursion += 1

        def mean_us(name):
            n = calls.get(name, 0)
            return 1e6 * own.get(name, 0.0) / n if n else 0.0

        verify = [s for s in spans if s[0] == "analysis.verify_cycle"]
        certified = sum(1 for s in verify if s[4] is None)
        out = {
            "riccati.riccati_step.calls": calls.get("riccati.riccati_step", 0),
            "riccati.riccati_step.us": mean_us("riccati.riccati_step"),
            "riccati.run_recursion.self_us_per_step": (
                1e6 * own.get("riccati.run_recursion", 0.0) / steps_in_recursion
                if steps_in_recursion else 0.0),
            "model.PTuple.distance.calls": calls.get("model.PTuple.distance", 0),
            "model.PTuple.distance.us": mean_us("model.PTuple.distance"),
            "model.validate_game.s": total.get("model.validate_game", 0.0),
            "analysis.classify.self_s": own.get("analysis.classify", 0.0),
            "analysis.detect_convergence.s":
                total.get("analysis.detect_convergence", 0.0),
            "analysis.detect_cycle.s": total.get("analysis.detect_cycle", 0.0),
            "analysis.verify_cycle.s": total.get("analysis.verify_cycle", 0.0),
            "analysis.verify_cycle.calls": len(verify),
            # 0 when nothing was attempted; the base is .calls above.
            "analysis.verify_cycle.certified_ratio":
                certified / len(verify) if verify else 0.0,
            **{f"analysis.steps.{v}": steps.get(v, 0) for v in VERDICTS},
            "equilibria.scalar_two_agent_equilibria.s":
                total.get("equilibria.scalar_two_agent_equilibria", 0.0),
            "experiments.random_game.s":
                total.get("experiments.random_game", 0.0),
            "experiments.run_basin_grid.self_s":
                own.get("experiments.run_basin_grid", 0.0),
            "experiments.run_ensemble.self_s":
                own.get("experiments.run_ensemble", 0.0),
            "fileio.write_trace_csv.s": total.get("fileio.write_trace_csv", 0.0),
            "fileio.bytes_written": bytes_written,
            "cli.main.self_s": own.get("cli.main", 0.0),
        }
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                t for name, t in own.items() if name.split(".")[0] == module)
        out["trace.ops"] = ops
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        # Module self times sum to the rooted span time; the remainder of
        # the traced wall time is the benchmark's own loop.
        out["trace.coverage"] = rooted / wall_s if wall_s > 0 else 0.0
        return out
