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

from .analysis import Classification, CycleCertificate, spectral_radius
from .equilibria import EquilibriumSet
from .experiments import BasinMap, CycleCensus, EnsembleReport, VERDICTS
from .model import GameSpec, PTuple
from .riccati import RecursionTrace, TerminationRecord, closed_loop


# States (or time steps) formatted and written at a time by the long
# float tables: the trace and the trajectory.
CHUNK_ROWS = 256


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


def _float_text(values: np.ndarray) -> np.ndarray:
    """repr of every float in values, as an object array of its shape.

    repr runs once per distinct bit pattern: keys are bits, never float
    values, because -0.0 == 0.0 prints differently and NaN never compares
    equal. Long traces repeat their settled floats, so this is far fewer
    calls than one per entry.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())),
                    dtype=object)
    return text[inverse].reshape(values.shape)


def _write_rows(fh, rows) -> None:
    """Rows of str cells as comma-separated lines ending in \\r\\n: what
    csv.writer writes for cells that need no quoting, as no header name,
    integer or float repr here does."""
    fh.write("".join([",".join(row) + "\r\n" for row in rows]))


def write_trace_csv(trace: RecursionTrace, path, provenance=None) -> None:
    """One row per (step, agent): row-major P entries then row-major K
    entries. Gain columns are padded to the widest agent and left empty on
    the final state (no step was taken from it). Only the value and gain
    stacks are read, CHUNK_ROWS states at a time."""
    states, gains = trace.p_states, trace.gains
    N, n = states[0].stack.shape[:2]
    rows = gains[0].rows if gains else ()
    m_max = max((r.stop - r.start for r in rows), default=0)
    k0 = 2 + n * n
    with _open_csv(path, provenance) as fh:
        _write_rows(fh, [["step", "agent"]
                         + [f"p_{r}_{c}" for r in range(n) for c in range(n)]
                         + [f"k_{r}_{c}" for r in range(m_max)
                            for c in range(n)]])
        for start in range(0, len(states), CHUNK_ROWS):
            P = np.stack([p.stack for p in states[start:start + CHUNK_ROWS]])
            K = [k.stack for k in gains[start:start + CHUNK_ROWS]]
            S = len(P)
            step = trace.first_step + start
            cells = np.full((S, N, k0 + m_max * n), "", dtype=object)
            cells[:, :, 0] = np.arange(step, step + S).astype(str)[:, None]
            cells[:, :, 1] = np.arange(N).astype(str)
            cells[:, :, 2:k0] = _float_text(P).reshape(S, N, n * n)
            if K:
                text = _float_text(np.stack(K))
                for i, r in enumerate(rows):
                    cells[:len(K), i, k0:k0 + (r.stop - r.start) * n] = \
                        text[:, r].reshape(len(K), -1)
            _write_rows(fh, cells.reshape(S * N, -1).tolist())


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


def write_equilibria_csv(eqs: EquilibriumSet, path, provenance=None) -> None:
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
            w.writerow([idx, p_flat, k_flat,
                        repr(pt.verification.closed_loop_spectral_radius),
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
    """One row per time t: the state, then every agent's input, left empty
    on the final state."""
    n = traj.states.shape[1]
    header = ["t"] + [f"x_{j}" for j in range(n)]
    for i, u in enumerate(traj.inputs):
        header += [f"u{i}_{j}" for j in range(u.shape[1])]
    inputs = np.hstack(traj.inputs)
    with _open_csv(path, provenance) as fh:
        _write_rows(fh, [header])
        for t in range(0, traj.horizon + 1, CHUNK_ROWS):
            x = traj.states[t:t + CHUNK_ROWS]
            u = inputs[t:t + CHUNK_ROWS]
            cells = np.full((len(x), len(header)), "", dtype=object)
            cells[:, 0] = np.arange(t, t + len(x)).astype(str)
            cells[:, 1:1 + n] = _float_text(x)
            cells[:len(u), 1 + n:] = _float_text(u)
            _write_rows(fh, cells.tolist())


def write_series_csv(rows, header, path, provenance=None) -> None:
    with _open_csv(path, provenance) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def trace_gain_series(trace: RecursionTrace):
    """Rows (step, agent, row, col, gain value) over a trace."""
    rows = []
    for s, k in enumerate(trace.gains):
        for i, Ki in enumerate(k):
            for r in range(Ki.shape[0]):
                for c in range(Ki.shape[1]):
                    rows.append((trace.first_step + s, i, r, c,
                                 float(Ki[r, c])))
    return rows


def trace_value_series(trace: RecursionTrace, game: GameSpec):
    """Per-step Frobenius distance to the first stored state (one row per
    step and agent) and closed-loop spectral radius (one row per step)."""
    ref = trace.p_states[0]
    diff_rows = []
    for s, p in enumerate(trace.p_states):
        for i in range(game.num_agents):
            d = float(np.linalg.norm(np.asarray(p[i]) - np.asarray(ref[i])))
            diff_rows.append((trace.first_step + s, i, d))
    rho_rows = []
    for s, k in enumerate(trace.gains):
        rho_rows.append((trace.first_step + s,
                         spectral_radius(closed_loop(game, k))))
    return diff_rows, rho_rows


def certificate_trace(cert: CycleCertificate, periods: int = 4) -> RecursionTrace:
    """A cycle certificate's loop unrolled `periods` times in loop order:
    state s is phase s mod L and gain s the gain tuple applied moving
    into it."""
    return RecursionTrace(
        list(cert.phases) * periods, list(cert.gains) * periods,
        TerminationRecord("completed", periods * cert.period,
                          cert.cycle_residual))


def export_trace_figures(trace_or_cert, game: GameSpec, out_dir,
                         provenance: dict | None = None) -> list:
    """Emit the plot-ready series for a trace or a cycle certificate.

    Writes gain_series.csv (per-step gain entries), value_distance_series.csv
    (per-step Frobenius distance of each agent's value matrix to the first
    state or phase), and closed_loop_spectra.csv (per-step spectral radius
    of the closed loop). Certificates are unrolled over four periods.
    Returns the written paths.
    """
    trace = trace_or_cert
    if isinstance(trace, CycleCertificate):
        trace = certificate_trace(trace)
    elif not isinstance(trace, RecursionTrace):
        raise TypeError("expected a RecursionTrace or a CycleCertificate")
    diff_rows, rho_rows = trace_value_series(trace, game)
    gain_rows = trace_gain_series(trace)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
