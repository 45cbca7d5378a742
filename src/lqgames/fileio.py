"""Reading and writing games, traces, certificates, and experiment reports.

Game files are JSON with keys "n", "num_agents", "input_dims", "A", "B",
"Q", "R", "W"; matrices serialize as lists of rows. Floats round-trip
exactly (shortest decimal repr). Tabular outputs are CSV with a header
row, preceded by one '#' provenance comment carrying the seed and
tolerance set of the run.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .analysis import (Classification, CycleCertificate, NashVerification,
                       spectral_radius)
from .equilibria import EquilibriumSet
from .experiments import BasinMap, CycleCensus, EnsembleReport, VERDICTS
from .model import GameSpec, PTuple
from .riccati import RecursionTrace, TerminationRecord, closed_loop


def _matrix(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(m)]


def write_game(game: GameSpec, path) -> None:
    doc = {
        "n": game.n,
        "num_agents": game.num_agents,
        "input_dims": list(game.input_dims),
        "A": _matrix(game.A),
        "B": [_matrix(b) for b in game.B],
        "Q": [_matrix(q) for q in game.Q],
        "R": [_matrix(r) for r in game.R],
        "W": _matrix(game.W),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def read_game(path) -> GameSpec:
    doc = json.loads(Path(path).read_text())
    required = {"n", "num_agents", "input_dims", "A", "B", "Q", "R"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"game file {path} missing keys: {sorted(missing)}")
    return GameSpec(doc["A"], doc["B"], doc["Q"], doc["R"], doc.get("W"))


def write_ptuple(p: PTuple, path) -> None:
    Path(path).write_text(json.dumps(
        {"entries": [_matrix(m) for m in p]}, indent=1))


def read_ptuple(path) -> PTuple:
    doc = json.loads(Path(path).read_text())
    if "entries" not in doc:
        raise ValueError(f"value-tuple file {path} has no 'entries' key")
    return PTuple(doc["entries"])


def provenance_line(**fields) -> str:
    parts = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"# {parts}"


def _open_csv(path, provenance: dict | None):
    fh = open(path, "w", newline="")
    if provenance:
        fh.write(provenance_line(**provenance) + "\n")
    return fh


def write_trace_csv(trace: RecursionTrace, path, provenance=None) -> None:
    """One row per (step, agent): row-major P entries then row-major K
    entries. Gain columns are padded to the widest agent and left empty on
    the final state (no step was taken from it)."""
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        n = trace.p_states[0][0].shape[0]
        m_max = max((k.shape[0] for k in trace.gains[0]), default=0) \
            if trace.gains else 0
        w.writerow(["step", "agent"]
                   + [f"p_{r}_{c}" for r in range(n) for c in range(n)]
                   + [f"k_{r}_{c}" for r in range(m_max) for c in range(n)])
        k_width = m_max * n
        w.writerows(_trace_rows(trace, k_width))


def _trace_rows(trace: RecursionTrace, k_width: int):
    gains = trace.gains
    blank = [""] * k_width
    for s, p in enumerate(trace.p_states):
        k = gains[s] if s < len(gains) else None
        for i, Pi in enumerate(p):
            row = [trace.first_step + s, i]
            row += map(repr, Pi.ravel().tolist())
            if k is None:
                row += blank
            else:
                kcols = list(map(repr, k[i].ravel().tolist()))
                row += kcols
                row += blank[len(kcols):]
            yield row


def termination_dict(term: TerminationRecord) -> dict:
    doc = {"reason": term.reason, "steps": term.steps,
           "final_residual": term.final_residual}
    if term.rcond is not None:
        doc["rcond"] = term.rcond
    return doc


def write_termination_json(term: TerminationRecord, path,
                           extra: dict | None = None) -> None:
    doc = termination_dict(term)
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=1))


def nash_verification_dict(rep: NashVerification) -> dict:
    return {
        "ok": rep.ok,
        "precondition_ok": rep.precondition_ok,
        "fixed_point_residual": rep.fixed_point_residual,
        "closed_loop_spectral_radius": rep.closed_loop_spectral_radius,
        "best_response_gaps": rep.best_response_gaps,
        "tol": rep.tol,
    }


def certificate_dict(cert: CycleCertificate) -> dict:
    return {
        "period": cert.period,
        "cycle_residual": cert.cycle_residual,
        "product_spectral_radius": cert.product_spectral_radius,
        "loop_identity_residual": cert.loop_identity_residual,
        "periodic_br_residual": cert.periodic_br_residual,
        "phase_spectral_radii": list(cert.phase_spectral_radii),
        "phases": [[_matrix(m) for m in p] for p in cert.phases],
        "gains": [[_matrix(m) for m in k] for k in cert.gains],
    }


def write_certificate_json(cert: CycleCertificate, path,
                           extra: dict | None = None) -> None:
    doc = certificate_dict(cert)
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=1))


def read_phases(path) -> list[PTuple]:
    """Phases from a certificate JSON or a bare {"phases": [...]} file."""
    doc = json.loads(Path(path).read_text())
    if "phases" not in doc:
        raise ValueError(f"{path} has no 'phases' key")
    return [PTuple(mats) for mats in doc["phases"]]


def write_phase_spectra_csv(cert: CycleCertificate, path, provenance=None) -> None:
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        w.writerow(["phase", "closed_loop_spectral_radius"])
        for l, rho in enumerate(cert.phase_spectral_radii):
            w.writerow([l, repr(float(rho))])


def classification_dict(c: Classification) -> dict:
    doc: dict = {"verdict": c.verdict}
    if c.fixed_point is not None:
        doc["fixed_point"] = [_matrix(m) for m in c.fixed_point]
    if c.steps_to_converge is not None:
        doc["steps_to_converge"] = c.steps_to_converge
    if c.certificate is not None:
        doc["certificate"] = certificate_dict(c.certificate)
    if c.sup_norm is not None:
        doc["sup_norm"] = c.sup_norm
    if c.steps_observed is not None:
        doc["steps_observed"] = c.steps_observed
    if c.step is not None:
        doc["step"] = c.step
    if c.rcond is not None:
        doc["rcond"] = c.rcond
    return doc


def write_equilibria_csv(eqs: EquilibriumSet, game: GameSpec, path,
                         provenance=None) -> None:
    """One row per equilibrium: P entries, K entries, rho(Acl), residual."""
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        w.writerow(["index", "p_entries", "k_entries",
                    "closed_loop_spectral_radius", "fixed_point_residual"])
        for idx, pt in enumerate(eqs.points):
            p_flat = ";".join(repr(float(v)) for m in pt.p
                              for v in np.asarray(m).ravel())
            k_flat = ";".join(repr(float(v)) for m in pt.gains
                              for v in np.asarray(m).ravel())
            rho = spectral_radius(closed_loop(game, pt.gains))
            w.writerow([idx, p_flat, k_flat, repr(rho),
                        repr(pt.verification.fixed_point_residual)])


def write_basin_csv(basin: BasinMap, path, provenance=None) -> None:
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        w.writerow(["qt1", "qt2", "verdict", "label", "steps_to_converge",
                    "distance"])
        for c in basin.cells:
            w.writerow([repr(c.qt1), repr(c.qt2), c.verdict,
                        "" if c.label is None else c.label,
                        "" if c.steps_to_converge is None else c.steps_to_converge,
                        "" if c.distance is None else repr(c.distance)])


def write_ensemble_csv(report: EnsembleReport, path, provenance=None) -> None:
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        w.writerow(["n", "m", "N", "trials"] + list(VERDICTS)
                   + [f"frac_{v}" for v in VERDICTS] + ["generation_failures"])
        for (n, m, N), stats in sorted(report.cells.items()):
            fr = stats.fractions(report.trials_per_cell)
            w.writerow([n, m, N, report.trials_per_cell]
                       + [stats.counts.get(v, 0) for v in VERDICTS]
                       + [repr(fr[v]) for v in VERDICTS]
                       + [stats.generation_failures])


def format_ensemble_table(report: EnsembleReport) -> str:
    """Three aligned percentage tables: converged, cycle, not converging."""
    lines = [f"trials per cell: {report.trials_per_cell}   "
             f"master seed: {report.master_seed}"]
    groups = (("converged", "converged to an equilibrium point"),
              ("cycle", "converged to a cycle"),
              ("bounded_nonconvergent", "not converging (bounded)"))
    for verdict, title in groups:
        lines.append(f"\n% of games {title}:")
        lines.append(f"  {'cell (n,m,N)':<16} {'percent':>8}")
        for cell, stats in sorted(report.cells.items()):
            frac = stats.fractions(report.trials_per_cell)[verdict]
            lines.append(f"  {str(cell):<16} {100.0 * frac:>7.1f}%")
    return "\n".join(lines)


def write_census_csv(census: CycleCensus, path, provenance=None) -> None:
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        w.writerow(["n", "m", "N", "period", "count", "games_examined",
                    "complete"])
        for (n, m, N), cc in sorted(census.cells.items()):
            for period in sorted(cc.histogram):
                w.writerow([n, m, N, period, cc.histogram[period],
                            cc.games_examined, cc.complete])


def write_trajectory_csv(traj, path, provenance=None) -> None:
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        n = traj.states.shape[1]
        header = ["t"] + [f"x_{j}" for j in range(n)]
        for i, u in enumerate(traj.inputs):
            header += [f"u{i}_{j}" for j in range(u.shape[1])]
        w.writerow(header)
        T = traj.horizon
        for t in range(T + 1):
            row = [t] + [repr(float(v)) for v in traj.states[t]]
            for u in traj.inputs:
                row += [repr(float(v)) for v in u[t]] if t < T \
                    else [""] * u.shape[1]
            w.writerow(row)


def write_series_csv(rows, header, path, provenance=None) -> None:
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def export_trace_figures(trace_or_cert, game: GameSpec, out_dir,
                         provenance: dict | None = None) -> list:
    """Emit the plot-ready series for a trace or a cycle certificate.

    Writes gain_series.csv (per-step gain entries), value_distance_series.csv
    (per-step Frobenius distance of each agent's value matrix to the first
    state or phase), and closed_loop_spectra.csv (per-step spectral radius
    of the closed loop). Certificates are unrolled over four periods.
    Returns the written paths.
    """
    from pathlib import Path

    from .experiments import (certificate_series, trace_gain_series,
                              trace_value_series)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(trace_or_cert, CycleCertificate):
        diff_rows, rho_rows, gain_rows = certificate_series(
            trace_or_cert, game)
    elif isinstance(trace_or_cert, RecursionTrace):
        diff_rows, rho_rows = trace_value_series(trace_or_cert, game)
        gain_rows = trace_gain_series(trace_or_cert)
    else:
        raise TypeError("expected a RecursionTrace or a CycleCertificate")
    paths = []
    for rows, header, name in (
            (gain_rows, ["step", "agent", "row", "col", "value"],
             "gain_series.csv"),
            (diff_rows, ["step", "agent", "frobenius_diff"],
             "value_distance_series.csv"),
            (rho_rows, ["step", "spectral_radius"],
             "closed_loop_spectra.csv")):
        target = out / name
        write_series_csv(rows, header, target, provenance)
        paths.append(target)
    return paths


def write_manifest(out_dir, command: str, resolved: dict, artifacts) -> None:
    doc = {
        "command": command,
        "resolved_config": resolved,
        "artifacts": [str(a) for a in artifacts],
    }
    Path(out_dir, "manifest.json").write_text(json.dumps(doc, indent=1))
