"""Command-line entry point.

Commands: validate, run, classify, basin, ensemble, census, equilibria,
verify-cycle, simulate. Each writes its artifacts into one output
directory per invocation together with a manifest that echoes the fully
resolved configuration and lists every artifact. The directory is made
with the first artifact, so a run that fails before writing one (every
usage error among them) leaves no directory. Option values resolve as:
command-line flag over config-file entry over built-in default; unknown
config keys, booleans, non-integral numbers for integer options, and a
--conv-tol that is not finite and at least 0 are rejected by name. The
tolerances that decide a verdict are library constants, not options.
Exit codes: 0 success (and --help), 1 domain failure, 2 usage error;
main returns the code rather than raising SystemExit. A game, terminal
or phases file that is missing, unreadable or fails validation is a
usage error, except that validate reports a failing game with exit 1.
Phases are checked for count, shape and finiteness; certification
judges the rest. equilibria enumerates a scalar two-agent game and
searches any other game by residual descent; it prints how many fixed
points the search discarded as unstable or unverified, and its manifest
records the search metadata.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
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
from .riccati import (FULL_STORAGE_LIMIT, ConvergenceStop, _one_blas_thread,
                      run_recursion)
from .simulate import simulate

# Integer options that count steps or items and must be at least 1.
_POSITIVE = ("horizon", "grid", "trials", "target", "cap", "restarts")

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
    },
    "classify": {
        "game": (str, None, "game file (JSON)"),
        "terminal": (str, None, "terminal value tuple file (JSON)"),
        "horizon": (int, 10_000, "recursion horizon"),
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
        "restarts": (int, 20, "random descent initializations"),
        "seed": (int, 0, "seed for descent initializations"),
    },
    "verify-cycle": {
        "game": (str, None, "game file (JSON)"),
        "phases": (str, None, "JSON file with a 'phases' list"),
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

    Raises UsageError (exit code 2) on unknown config keys, config
    entries of the wrong type, or missing required values.
    """
    args = _build_parser().parse_args(argv)
    command = args.command
    table = {**_OPTIONS[command], **_COMMON}

    from_file: dict = {}
    config_path = getattr(args, "config")
    if config_path:
        from_file = _read(config_path,
                          lambda path: json.loads(Path(path).read_text()),
                          "config")
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
            value = from_file[name]
            try:
                if isinstance(value, bool) or (
                        typ is int and isinstance(value, float)
                        and not value.is_integer()):
                    raise ValueError
                params[name] = typ(value)
            except (TypeError, ValueError, OverflowError):
                raise UsageError(f"config entry '{name}' is not a "
                                 f"{typ.__name__}: {value!r}")
        else:
            params[name] = default
    for name in _POSITIVE:
        if name in params and params[name] < 1:
            raise UsageError(f"--{name} must be at least 1, got {params[name]}")
    if "conv-tol" in params and not 0 <= params["conv-tol"] < math.inf:
        raise UsageError("--conv-tol must be finite and at least 0, "
                         f"got {params['conv-tol']}")
    if command == "simulate" and params["horizon"] > FULL_STORAGE_LIMIT:
        raise UsageError(f"--horizon must be at most {FULL_STORAGE_LIMIT} "
                         "for simulate, which needs every stage's gains")
    for name in ("game", "terminal", "phases"):
        if name in table and table[name][1] is None and params.get(name) is None:
            raise UsageError(f"--{name} is required for '{command}'")
    return RunConfig(command=command, params=params)


def _read(path, reader, what: str):
    """Parse a config, game, terminal or phases file; a missing or
    unreadable one is a usage error."""
    try:
        return reader(path)
    except (OSError, ValueError, TypeError, AttributeError) as err:
        raise UsageError(f"{what} file {path} is unreadable: {err}")


def _load_game(config: RunConfig):
    """Read the game; one that validate_game rejects is a usage error."""
    path = config.params["game"]
    game = _read(path, fileio.read_game, "game")
    report = validate_game(game)
    if not report.ok:
        raise UsageError(f"invalid game in {path}: {report.failure_text()}")
    return game


def _load_terminal(config: RunConfig, game) -> PTuple:
    """Read the terminal value tuple; an invalid one (wrong count or
    shape, non-finite, not positive definite) is a usage error."""
    path = config.params["terminal"]
    terminal = _read(path, fileio.read_ptuple, "terminal")
    report = validate_terminal(game, terminal)
    if not report.ok:
        raise UsageError(f"invalid terminal cost in {path}: "
                         f"{report.failure_text()}")
    return terminal


def _load_phases(config: RunConfig, game) -> list[PTuple]:
    """Read the cycle phases; no phase at all, or a phase of the wrong
    count or shape, or with non-finite entries, is a usage error.
    Certification judges the rest; one phase is a stationary point."""
    path = config.params["phases"]
    phases = _read(path, fileio.read_phases, "phases")
    if not phases:
        raise UsageError(f"phases file {path} holds no phase; "
                         "a cycle needs at least one phase")
    for l, phase in enumerate(phases):
        report = validate_terminal(game, phase)
        failures = report.dimension_failures + report.finiteness_failures
        if failures:
            raise UsageError(f"phase {l} in {path} does not fit the game: "
                             + "; ".join(failures))
    return phases


def _parse_cells(text: str) -> list[tuple[int, int, int]]:
    cells = []
    for chunk in text.split():
        parts = chunk.split(",")
        if len(parts) != 3 or not all(p.isdecimal() and int(p) > 0
                                      for p in parts):
            raise UsageError(
                f"cell '{chunk}' is not an n,m,N triple of positive integers")
        cells.append(tuple(int(p) for p in parts))
    return cells


def _parse_floats(text: str, sep: str, count: int, flag: str) -> list[float]:
    """Exactly `count` finite numbers separated by sep, else a usage error."""
    try:
        values = [float(v) for v in text.split(sep)]
    except ValueError:
        values = []
    if len(values) != count or not all(map(math.isfinite, values)):
        raise UsageError(f"--{flag} '{text}' is not {count} finite numbers "
                         f"separated by '{sep}'")
    return values


def dispatch(config: RunConfig) -> int:
    """Run one resolved command; returns the process exit code. The output
    directory, --out or runs/<command> suffixed -2, -3, ... while it holds
    files, is made with the first artifact."""
    base = config.params.get("out") or f"runs/{config.command}"
    out = Path(base)
    suffix = 1
    while out.exists() and any(out.iterdir()):
        suffix += 1
        out = Path(f"{base}-{suffix}")
    resolved = dict(config.params)
    resolved["out"] = str(out)
    print(json.dumps({"resolved_config": resolved}, indent=1))
    artifacts: list[Path] = []
    manifest_extra = None
    code = 0
    p = config.params

    def save(name: str, write, obj, *args) -> None:
        """Make the output directory, write(obj, out / name, *args) and
        list the file for the manifest."""
        out.mkdir(parents=True, exist_ok=True)
        write(obj, out / name, *args)
        artifacts.append(out / name)

    if config.command == "validate":
        report = validate_game(_read(p["game"], fileio.read_game, "game"))
        save("validation.json", fileio._write_json, asdict(report),
             {"provenance": resolved})
        print(f"ok={report.ok} stabilizable={report.stabilizable}")
        code = 0 if report.ok else 1

    elif config.command == "run":
        game = _load_game(config)
        terminal = _load_terminal(config, game)
        stop = None
        if p["conv-tol"] > 0:
            stop = ConvergenceStop(tol=p["conv-tol"])
        trace = run_recursion(game, terminal, p["horizon"], stop=stop)
        prov = {"command": "run", "horizon": p["horizon"],
                "conv_tol": p["conv-tol"]}
        save("trace.csv", fileio.write_trace_csv, trace, prov)
        save("termination.json", fileio.write_termination_json,
             trace.terminated, {"provenance": resolved})
        print(f"terminated: {trace.terminated.reason} "
              f"after {trace.terminated.steps} steps")
        code = 1 if trace.terminated.reason == "singular" else 0

    elif config.command == "classify":
        game = _load_game(config)
        terminal = _load_terminal(config, game)
        verdict = classify(game, terminal,
                           ClassifyOptions(horizon=p["horizon"]))
        save("classification.json", fileio._write_json,
             fileio.classification_dict(verdict), {"provenance": resolved})
        if verdict.certificate is not None:
            save("certificate.json", fileio.write_certificate_json,
                 verdict.certificate, {"provenance": resolved})
            save("phase_spectra.csv", fileio.write_phase_spectra_csv,
                 verdict.certificate)
        print(f"verdict: {verdict.verdict}")
        code = 1 if verdict.verdict == VERDICT_SINGULAR else 0

    elif config.command == "basin":
        game = _load_game(config)
        q_range = _parse_floats(p["range"], ":", 2, "range")
        if not 0 <= q_range[0] < q_range[1]:
            raise UsageError(f"--range '{p['range']}' needs 0 <= lo < hi")
        opts = ClassifyOptions(horizon=p["horizon"])
        basin = run_basin_grid(game, axis_samples=p["grid"],
                               q_range=q_range, opts=opts)
        prov = {"command": "basin", "grid": p["grid"],
                "range": p["range"], "horizon": p["horizon"]}
        save("basin.csv", fileio.write_basin_csv, basin, prov)
        save("equilibria.csv", fileio.write_equilibria_csv,
             basin.equilibria, prov)
        counts = basin.label_counts()
        print(f"cells: {len(basin.cells)}, labels: {counts}")

    elif config.command == "ensemble":
        cells = _parse_cells(p["cells"])
        opts = ClassifyOptions(horizon=p["horizon"])
        report = run_ensemble(cells, p["trials"], p["seed"], opts)
        prov = {"command": "ensemble", "seed": p["seed"],
                "trials": p["trials"], "horizon": p["horizon"]}
        save("ensemble.csv", fileio.write_ensemble_csv, report, prov)
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
        save("census.csv", fileio.write_census_csv, census, prov)
        for cell, cc in sorted(census.cells.items()):
            print(f"cell {cell}: {sum(cc.histogram.values())} cycles in "
                  f"{cc.games_examined} games, histogram {dict(sorted(cc.histogram.items()))}")

    elif config.command == "equilibria":
        game = _load_game(config)
        try:
            if game.n == 1 and game.num_agents == 2:
                method = "enumeration"
                eqs = scalar_two_agent_equilibria(game)
            else:
                method = "descent"
                eqs = residual_descent_search(game, restarts=p["restarts"],
                                              seed=p["seed"])
        except NoEquilibriumFound as err:
            print(f"no equilibrium found: {err}", file=sys.stderr)
            return 1
        prov = {"command": "equilibria", "method": method,
                "seed": p["seed"], "restarts": p["restarts"]}
        save("equilibria.csv", fileio.write_equilibria_csv, eqs, prov)
        meta = eqs.search_metadata
        manifest_extra = {"search_metadata": meta}
        print(f"{len(eqs)} stationary equilibria ({method})")
        print(f"fixed points discarded: {meta['unstable_discarded']} "
              f"unstable, {meta['verification_failed']} failed verification")
        code = 0 if len(eqs) else 1

    elif config.command == "verify-cycle":
        game = _load_game(config)
        phases = _load_phases(config, game)
        try:
            cert = verify_cycle(phases, game)
        except CertificationFailed as err:
            print(f"certification failed: {err}", file=sys.stderr)
            return 1
        save("certificate.json", fileio.write_certificate_json, cert,
             {"provenance": resolved})
        save("phase_spectra.csv", fileio.write_phase_spectra_csv, cert,
             {"command": "verify-cycle"})
        print(f"certified cycle of period {cert.period}, "
              f"rho(period product)={cert.product_spectral_radius:.6f}")

    elif config.command == "simulate":
        game = _load_game(config)
        terminal = _load_terminal(config, game)
        x0 = np.array(_parse_floats(p["x0"], ",", game.n, "x0"))
        T = p["horizon"]
        trace = run_recursion(game, terminal, T)
        if trace.terminated.reason != "completed":
            print(f"recursion ended early: {trace.terminated.reason}",
                  file=sys.stderr)
            return 1
        traj = simulate(game, trace.forward_gains(T), x0, T, seed=p["seed"])
        prov = {"command": "simulate", "horizon": T, "seed": p["seed"]}
        save("trajectory.csv", fileio.write_trajectory_csv, traj, prov)
        artifacts.extend(fileio.export_trace_figures(trace, game, out, prov))
        print(f"simulated {T} steps; final state norm "
              f"{float(np.linalg.norm(traj.states[-1])):.3e}")

    fileio.write_manifest(out, config.command, resolved, artifacts,
                          manifest_extra)
    return code


@_one_blas_thread
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return dispatch(parse_config(argv))
    except SystemExit as stop:      # argparse printed --help or a usage error
        return stop.code
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
