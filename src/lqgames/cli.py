"""Command-line entry point.

Commands: validate, run, classify, basin, ensemble, census, equilibria,
verify-cycle, simulate. Each writes its artifacts into one output
directory per invocation together with a manifest that echoes the fully
resolved configuration. Option values resolve as: command-line flag over
config-file entry over built-in default; unknown config keys are rejected
by name. Exit codes: 0 success, 1 domain failure, 2 usage error.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import (ClassifyOptions, CertificationFailed, classify,
                       verify_cycle, VERDICT_SINGULAR)
from .equilibria import (NoEquilibriumFound, residual_descent_search,
                         scalar_two_agent_equilibria)
from .experiments import (CensusIncomplete, cycle_census, run_basin_grid,
                          run_ensemble)
from .model import PTuple, validate_game, validate_terminal
from .riccati import ConvergenceStop, run_recursion
from .simulate import simulate

# name -> (type, default, help). None defaults mean "required".
_COMMON = {
    "out": (str, None, "output directory (default: ./runs/<command>)"),
    "config": (str, None, "JSON config file; flags override its entries"),
}

_OPTIONS = {
    "validate": {
        "game": (str, None, "game file (JSON)"),
    },
    "run": {
        "game": (str, None, "game file (JSON)"),
        "terminal": (str, None, "terminal value tuple file (JSON)"),
        "horizon": (int, 1000, "backward steps to take"),
        "conv-tol": (float, 1e-9, "early-stop tolerance (0 disables)"),
        "conv-window": (int, 10, "consecutive small steps before stopping"),
    },
    "classify": {
        "game": (str, None, "game file (JSON)"),
        "terminal": (str, None, "terminal value tuple file (JSON)"),
        "horizon": (int, 10_000, "recursion horizon"),
        "conv-tol": (float, 1e-9, "convergence tolerance"),
        "conv-window": (int, 10, "convergence window"),
        "cycle-tol": (float, 1e-8, "cycle phase-match tolerance"),
        "max-period": (int, 100, "largest period searched"),
    },
    "basin": {
        "game": (str, None, "scalar two-agent game file"),
        "grid": (int, 100, "samples per terminal-cost axis"),
        "range": (str, "0.3:30", "terminal-cost interval lo:hi"),
        "horizon": (int, 10_000, "recursion horizon per cell"),
    },
    "ensemble": {
        "cells": (str, "1,1,2", "space-separated n,m,N triples"),
        "trials": (int, 1000, "games per cell"),
        "seed": (int, 0, "master seed"),
        "horizon": (int, 10_000, "recursion horizon per trial"),
    },
    "census": {
        "cells": (str, "2,2,2", "space-separated n,m,N triples"),
        "target": (int, 50, "certified cycles to collect per cell"),
        "seed": (int, 0, "master seed"),
        "horizon": (int, 10_000, "recursion horizon per trial"),
        "cap": (int, 10 ** 6, "examination cap per cell"),
    },
    "equilibria": {
        "game": (str, None, "game file (JSON)"),
        "method": (str, "auto", "enumeration | descent | auto"),
        "restarts": (int, 20, "random descent initializations"),
        "seed": (int, 0, "seed for descent initializations"),
    },
    "verify-cycle": {
        "game": (str, None, "game file (JSON)"),
        "phases": (str, None, "JSON file with a 'phases' list"),
        "tol": (float, 1e-8, "orbit residual tolerance"),
    },
    "simulate": {
        "game": (str, None, "game file (JSON)"),
        "terminal": (str, None, "terminal value tuple file (JSON)"),
        "horizon": (int, 50, "forward simulation horizon"),
        "x0": (str, "1", "comma-separated initial state"),
        "seed": (int, None, "noise seed (omit for a noise-free rollout)"),
    },
}


@dataclass
class RunConfig:
    command: str
    params: dict


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqgames",
        description="LQ-game recursion experiments: equilibria, cycles, "
                    "basins, ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in _OPTIONS.items():
        p = sub.add_parser(command)
        for name, (typ, default, help_text) in {**opts, **_COMMON}.items():
            p.add_argument(f"--{name}", type=typ, default=None,
                           help=help_text)
    return parser


def parse_config(argv) -> RunConfig:
    """Resolve flags, config file, and defaults into one RunConfig.

    Raises UsageError (exit code 2) on unknown config keys or missing
    required values.
    """
    args = _build_parser().parse_args(argv)
    command = args.command
    table = {**_OPTIONS[command], **_COMMON}

    from_file: dict = {}
    config_path = getattr(args, "config")
    if config_path:
        try:
            from_file = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {config_path}")
        except json.JSONDecodeError as err:
            raise UsageError(f"config file {config_path} is not valid JSON: {err}")
        for key in from_file:
            if key not in table:
                raise UsageError(
                    f"unknown config key '{key}' for command '{command}'")

    params = {}
    for name, (typ, default, _) in table.items():
        flag_value = getattr(args, name.replace("-", "_"))
        if flag_value is not None:
            params[name] = flag_value
        elif name in from_file and from_file[name] is not None:
            params[name] = typ(from_file[name])
        else:
            params[name] = default
    for name in ("game", "terminal", "phases"):
        if name in table and table[name][1] is None and params.get(name) is None:
            raise UsageError(f"--{name} is required for '{command}'")
    return RunConfig(command=command, params=params)


def _make_out_dir(config: RunConfig) -> Path:
    base = config.params.get("out") or f"runs/{config.command}"
    path = Path(base)
    suffix = 1
    while path.exists() and any(path.iterdir()):
        suffix += 1
        path = Path(f"{base}-{suffix}")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_game(config: RunConfig):
    path = config.params["game"]
    if not Path(path).exists():
        raise UsageError(f"game file not found: {path}")
    return fileio.read_game(path)


def _load_terminal(config: RunConfig, game) -> PTuple:
    """Read the terminal value tuple; a missing, unreadable or invalid one
    (wrong count or shape, non-finite, not positive definite) is a usage
    error."""
    path = config.params["terminal"]
    if not Path(path).exists():
        raise UsageError(f"terminal file not found: {path}")
    try:
        terminal = fileio.read_ptuple(path)
    except ValueError as err:
        raise UsageError(f"terminal file {path} is unreadable: {err}")
    report = validate_terminal(game, terminal)
    if not report.ok:
        failures = (report.dimension_failures + report.finiteness_failures
                    + [f"{name} not positive definite (min eig {v:.3e})"
                       for name, v in report.definiteness_failures])
        raise UsageError(f"invalid terminal cost in {path}: "
                         + "; ".join(failures))
    return terminal


def _parse_cells(text: str) -> list[tuple[int, int, int]]:
    cells = []
    for chunk in text.split():
        parts = chunk.split(",")
        if len(parts) != 3:
            raise UsageError(f"cell '{chunk}' is not an n,m,N triple")
        cells.append(tuple(int(p) for p in parts))
    return cells


def _echo(resolved: dict) -> None:
    print(json.dumps({"resolved_config": resolved}, indent=1))


def dispatch(config: RunConfig) -> int:
    """Run one resolved command; returns the process exit code."""
    out = _make_out_dir(config)
    resolved = dict(config.params)
    resolved["out"] = str(out)
    _echo(resolved)
    artifacts: list[Path] = []
    code = 0
    p = config.params

    if config.command == "validate":
        game = _load_game(config)
        report = validate_game(game)
        doc = {
            "ok": report.ok,
            "stabilizable": report.stabilizable,
            "definiteness_failures": report.definiteness_failures,
            "dimension_failures": report.dimension_failures,
            "symmetry_failures": report.symmetry_failures,
            "provenance": resolved,
        }
        target = out / "validation.json"
        target.write_text(json.dumps(doc, indent=1))
        artifacts.append(target)
        print(f"ok={report.ok} stabilizable={report.stabilizable}")
        code = 0 if report.ok else 1

    elif config.command == "run":
        game = _load_game(config)
        terminal = _load_terminal(config, game)
        stop = None
        if p["conv-tol"] > 0:
            stop = ConvergenceStop(tol=p["conv-tol"], window=p["conv-window"])
        trace = run_recursion(game, terminal, p["horizon"], stop=stop)
        prov = {"command": "run", "horizon": p["horizon"],
                "conv_tol": p["conv-tol"]}
        target = out / "trace.csv"
        fileio.write_trace_csv(trace, target, prov)
        artifacts.append(target)
        target = out / "termination.json"
        fileio.write_termination_json(trace.terminated, target,
                                      extra={"provenance": resolved})
        artifacts.append(target)
        print(f"terminated: {trace.terminated.reason} "
              f"after {trace.terminated.steps} steps")
        code = 1 if trace.terminated.reason == "singular" else 0

    elif config.command == "classify":
        game = _load_game(config)
        terminal = _load_terminal(config, game)
        opts = ClassifyOptions(horizon=p["horizon"], conv_tol=p["conv-tol"],
                               conv_window=p["conv-window"],
                               cycle_tol=p["cycle-tol"],
                               max_period=p["max-period"])
        verdict = classify(game, terminal, opts)
        target = out / "classification.json"
        doc = fileio.classification_dict(verdict)
        doc["provenance"] = resolved
        target.write_text(json.dumps(doc, indent=1))
        artifacts.append(target)
        if verdict.certificate is not None:
            target = out / "certificate.json"
            fileio.write_certificate_json(verdict.certificate, target,
                                          extra={"provenance": resolved})
            artifacts.append(target)
            target = out / "phase_spectra.csv"
            fileio.write_phase_spectra_csv(verdict.certificate, target)
            artifacts.append(target)
        print(f"verdict: {verdict.verdict}")
        code = 1 if verdict.verdict == VERDICT_SINGULAR else 0

    elif config.command == "basin":
        game = _load_game(config)
        lo, _, hi = p["range"].partition(":")
        opts = ClassifyOptions(horizon=p["horizon"])
        basin = run_basin_grid(game, axis_samples=p["grid"],
                               q_range=(float(lo), float(hi)), opts=opts)
        prov = {"command": "basin", "grid": p["grid"],
                "range": p["range"], "horizon": p["horizon"]}
        target = out / "basin.csv"
        fileio.write_basin_csv(basin, target, prov)
        artifacts.append(target)
        target = out / "equilibria.csv"
        fileio.write_equilibria_csv(basin.equilibria, game, target, prov)
        artifacts.append(target)
        counts = basin.label_counts()
        print(f"cells: {len(basin.cells)}, labels: {counts}")

    elif config.command == "ensemble":
        cells = _parse_cells(p["cells"])
        opts = ClassifyOptions(horizon=p["horizon"])
        report = run_ensemble(cells, p["trials"], p["seed"], opts)
        prov = {"command": "ensemble", "seed": p["seed"],
                "trials": p["trials"], "horizon": p["horizon"]}
        target = out / "ensemble.csv"
        fileio.write_ensemble_csv(report, target, prov)
        artifacts.append(target)
        print(fileio.format_ensemble_table(report))

    elif config.command == "census":
        cells = _parse_cells(p["cells"])
        opts = ClassifyOptions(horizon=p["horizon"])
        try:
            census = cycle_census(cells, p["target"], p["seed"], opts,
                                  cap=p["cap"])
        except CensusIncomplete as err:
            census = err.census
            code = 1
            print(f"census incomplete: {err}", file=sys.stderr)
        prov = {"command": "census", "seed": p["seed"],
                "target": p["target"], "horizon": p["horizon"],
                "cap": p["cap"]}
        target = out / "census.csv"
        fileio.write_census_csv(census, target, prov)
        artifacts.append(target)
        for cell, cc in sorted(census.cells.items()):
            print(f"cell {cell}: {sum(cc.histogram.values())} cycles in "
                  f"{cc.games_examined} games, histogram {dict(sorted(cc.histogram.items()))}")

    elif config.command == "equilibria":
        game = _load_game(config)
        method = p["method"]
        if method == "auto":
            method = ("enumeration"
                      if game.n == 1 and game.num_agents == 2 else "descent")
        try:
            if method == "enumeration":
                eqs = scalar_two_agent_equilibria(game)
            elif method == "descent":
                eqs = residual_descent_search(game, restarts=p["restarts"],
                                              seed=p["seed"])
            else:
                raise UsageError(f"unknown method '{method}'")
        except NoEquilibriumFound as err:
            print(f"no equilibrium found: {err}", file=sys.stderr)
            return 1
        prov = {"command": "equilibria", "method": method,
                "seed": p["seed"], "restarts": p["restarts"]}
        target = out / "equilibria.csv"
        fileio.write_equilibria_csv(eqs, game, target, prov)
        artifacts.append(target)
        print(f"{len(eqs)} stationary equilibria ({method})")
        code = 0 if len(eqs) else 1

    elif config.command == "verify-cycle":
        game = _load_game(config)
        phases_path = p["phases"]
        if not Path(phases_path).exists():
            raise UsageError(f"phases file not found: {phases_path}")
        phases = fileio.read_phases(phases_path)
        try:
            cert = verify_cycle(phases, game, tol=p["tol"])
        except CertificationFailed as err:
            print(f"certification failed: {err}", file=sys.stderr)
            return 1
        target = out / "certificate.json"
        fileio.write_certificate_json(cert, target,
                                      extra={"provenance": resolved})
        artifacts.append(target)
        target = out / "phase_spectra.csv"
        fileio.write_phase_spectra_csv(cert, target,
                                       {"command": "verify-cycle"})
        artifacts.append(target)
        print(f"certified cycle of period {cert.period}, "
              f"rho(period product)={cert.product_spectral_radius:.6f}")

    elif config.command == "simulate":
        game = _load_game(config)
        terminal = _load_terminal(config, game)
        T = p["horizon"]
        trace = run_recursion(game, terminal, T)
        if trace.terminated.reason != "completed":
            print(f"recursion ended early: {trace.terminated.reason}",
                  file=sys.stderr)
            return 1
        x0 = np.array([float(v) for v in p["x0"].split(",")])
        traj = simulate(game, trace.forward_gains(T), x0, T, seed=p["seed"])
        prov = {"command": "simulate", "horizon": T, "seed": p["seed"]}
        target = out / "trajectory.csv"
        fileio.write_trajectory_csv(traj, target, prov)
        artifacts.append(target)
        artifacts.extend(fileio.export_trace_figures(trace, game, out, prov))
        print(f"simulated {T} steps; final state norm "
              f"{float(np.linalg.norm(traj.states[-1])):.3e}")

    fileio.write_manifest(out, config.command, resolved, artifacts)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return dispatch(config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
