"""Reading and writing games, traces, certificates, and experiment reports.

Game files are JSON with keys "n", "num_agents", "input_dims", "A", "B",
"Q", "R", "W"; matrices serialize as lists of rows. Floats round-trip
exactly (shortest decimal repr). Every JSON file is written by one
writer, with one-space indentation. Tabular outputs are CSV with a header
row, preceded by one '#' provenance comment carrying the seed and
tolerance set of the run; every table is written by one row writer.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analysis import VERDICTS, Classification, CycleCertificate
from .equilibria import EquilibriumSet
from .experiments import BasinMap, CycleCensus, EnsembleReport
from .model import GameSpec, PTuple, stack_norms, stack_stacks
from .riccati import RecursionTrace, TerminationRecord


# States (or time steps) formatted and written at a time by the long
# float tables: the trace and the trajectory.
CHUNK_ROWS = 256
# Rows of a plot series formatted and written at a time.
SERIES_CHUNK_ROWS = 4096
# Periods a cycle certificate is unrolled over for its plot series.
CERTIFICATE_PERIODS = 4


def _matrix(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(m)]


def _write_json(doc: dict, path, extra: dict | None = None) -> None:
    """doc, then the entries of extra, as indented JSON."""
    Path(path).write_text(json.dumps({**doc, **(extra or {})}, indent=1))


def write_game(game: GameSpec, path) -> None:
    _write_json({
        "n": game.n,
        "num_agents": game.num_agents,
        "input_dims": list(game.input_dims),
        "A": _matrix(game.A),
        "B": [_matrix(b) for b in game.B],
        "Q": [_matrix(q) for q in game.Q],
        "R": [_matrix(r) for r in game.R],
        "W": _matrix(game.W),
    }, path)


def read_game(path) -> GameSpec:
    doc = json.loads(Path(path).read_text())
    required = {"n", "num_agents", "input_dims", "A", "B", "Q", "R"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"game file {path} missing keys: {sorted(missing)}")
    game = GameSpec(doc["A"], doc["B"], doc["Q"], doc["R"], doc.get("W"))
    for key, value in (("n", game.n), ("num_agents", game.num_agents),
                       ("input_dims", list(game.input_dims))):
        if doc[key] != value:
            raise ValueError(f"game file {path} gives {key} {doc[key]}, "
                             f"but its matrices give {value}")
    return game


def write_ptuple(p: PTuple, path) -> None:
    _write_json({"entries": [_matrix(m) for m in p]}, path)


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


class _Text:
    """repr of every entry of a float64 array, as an object array of its
    shape, for a table formatted a chunk at a time.

    repr runs once per distinct bit pattern: keys are bits, never float
    values, because -0.0 == 0.0 prints differently and NaN never compares
    equal. Each call keeps its chunk's sorted patterns and their strings;
    the next call looks its own patterns up in them with searchsorted and
    formats only the misses. Long traces repeat their settled floats from
    chunk to chunk, so this is far fewer calls than one per entry, and
    only two chunks' strings are held at a time.
    """

    def __init__(self):
        self.bits = np.empty(0, dtype=np.int64)
        self.text = np.empty(0, dtype=object)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=np.float64)
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        text = np.empty(len(bits), dtype=object)
        miss = np.ones(len(bits), dtype=bool)
        if len(self.bits):
            at = np.searchsorted(self.bits, bits).clip(max=len(self.bits) - 1)
            hit = self.bits[at] == bits
            text[hit] = self.text[at[hit]]
            miss = ~hit
        text[miss] = list(map(repr, bits[miss].view(np.float64).tolist()))
        self.bits, self.text = bits, text
        return text[inverse].reshape(values.shape)


def _write_rows(fh, rows) -> None:
    """Rows of str cells as comma-separated lines ending in \\r\\n: what
    csv.writer writes for cells that need no quoting, as no header name,
    integer or float repr here does. A chunk's lines are joined into one
    string and written in one call; no rows write nothing."""
    if rows:
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _write_table(path, provenance, header, rows) -> None:
    """A small table through _write_rows: None as an empty cell and any
    other value as its str, as csv.writer writes ints, bools and strs."""
    with _open_csv(path, provenance) as fh:
        _write_rows(fh, [header] + [["" if v is None else str(v) for v in row]
                                    for row in rows])


def write_trace_csv(trace: RecursionTrace, path, provenance=None) -> None:
    """One row per (step, agent): row-major P entries then row-major K
    entries. Gain columns are padded to the widest agent and left empty on
    the final state (no step was taken from it). Only the trace's stacked
    values and the gain stacks are read, CHUNK_ROWS states at a time, into
    one cell array."""
    values, gains = trace.values, trace.gains
    N, n = values.shape[1:3]
    rows = gains[0].rows if gains else ()
    m_max = max((r.stop - r.start for r in rows), default=0)
    k0 = 2 + n * n
    p_text, k_text = _Text(), _Text()
    cells = np.full((min(CHUNK_ROWS, len(values)), N, k0 + m_max * n), "",
                    dtype=object)
    cells[:, :, 1] = [str(i) for i in range(N)]
    with _open_csv(path, provenance) as fh:
        _write_rows(fh, [["step", "agent"]
                         + [f"p_{r}_{c}" for r in range(n) for c in range(n)]
                         + [f"k_{r}_{c}" for r in range(m_max)
                            for c in range(n)]])
        for start in range(0, len(values), CHUNK_ROWS):
            P = values[start:start + CHUNK_ROWS]
            K = [k.stack for k in gains[start:start + CHUNK_ROWS]]
            S = len(P)
            step = trace.first_step + start
            cells[:S, :, 0] = np.arange(step, step + S).astype(str)[:, None]
            cells[:S, :, 2:k0] = p_text(P).reshape(S, N, n * n)
            cells[len(K):S, :, k0:] = ""
            if K:
                text = k_text(stack_stacks(K))
                for i, r in enumerate(rows):
                    cells[:len(K), i, k0:k0 + (r.stop - r.start) * n] = \
                        text[:, r].reshape(len(K), -1)
            _write_rows(fh, cells[:S].reshape(S * N, -1).tolist())


def write_termination_json(term: TerminationRecord, path,
                           extra: dict | None = None) -> None:
    doc = {"reason": term.reason, "steps": term.steps,
           "final_residual": term.final_residual}
    if term.rcond is not None:
        doc["rcond"] = term.rcond
    _write_json(doc, path, extra)


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
    _write_json(certificate_dict(cert), path, extra)


def read_phases(path) -> list[PTuple]:
    """Phases from a certificate JSON or a bare {"phases": [...]} file."""
    doc = json.loads(Path(path).read_text())
    if "phases" not in doc:
        raise ValueError(f"{path} has no 'phases' key")
    return [PTuple(mats) for mats in doc["phases"]]


def write_phase_spectra_csv(cert: CycleCertificate, path, provenance=None) -> None:
    _write_table(path, provenance, ["phase", "closed_loop_spectral_radius"],
                 [(l, repr(float(rho)))
                  for l, rho in enumerate(cert.phase_spectral_radii)])


def classification_dict(c: Classification) -> dict:
    """The fields of c that are set, in field order."""
    doc = {f.name: v for f in fields(c)
           if (v := getattr(c, f.name)) is not None}
    if c.fixed_point is not None:
        doc["fixed_point"] = [_matrix(m) for m in c.fixed_point]
    if c.certificate is not None:
        doc["certificate"] = certificate_dict(c.certificate)
    return doc


def write_equilibria_csv(eqs: EquilibriumSet, path, provenance=None) -> None:
    """One row per equilibrium from its certificate: P entries, K entries,
    rho(Acl), residual."""
    def flat(mats):
        return ";".join(repr(float(v)) for m in mats
                        for v in np.asarray(m).ravel())

    _write_table(path, provenance,
                 ["index", "p_entries", "k_entries",
                  "closed_loop_spectral_radius", "fixed_point_residual"],
                 [(idx, flat(pt.p), flat(pt.certificate.gains[0]),
                   repr(pt.certificate.product_spectral_radius),
                   repr(pt.certificate.cycle_residual))
                  for idx, pt in enumerate(eqs.points)])


def write_basin_csv(basin: BasinMap, path, provenance=None) -> None:
    _write_table(path, provenance,
                 ["qt1", "qt2", "verdict", "label", "steps_to_converge",
                  "distance"],
                 [(repr(c.qt1), repr(c.qt2), c.verdict, c.label,
                   c.steps_to_converge,
                   None if c.distance is None else repr(c.distance))
                  for c in basin.cells])


def write_ensemble_csv(report: EnsembleReport, path, provenance=None) -> None:
    rows = []
    for cell, stats in sorted(report.cells.items()):
        fr = stats.fractions(report.trials_per_cell)
        rows.append([*cell, report.trials_per_cell]
                    + [stats.counts.get(v, 0) for v in VERDICTS]
                    + [repr(fr[v]) for v in VERDICTS]
                    + [stats.generation_failures])
    _write_table(path, provenance,
                 ["n", "m", "N", "trials"] + list(VERDICTS)
                 + [f"frac_{v}" for v in VERDICTS] + ["generation_failures"],
                 rows)


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
    _write_table(path, provenance,
                 ["n", "m", "N", "period", "count", "games_examined",
                  "complete"],
                 [(*cell, period, cc.histogram[period], cc.games_examined,
                   cc.complete)
                  for cell, cc in sorted(census.cells.items())
                  for period in sorted(cc.histogram)])


def write_trajectory_csv(traj, path, provenance=None) -> None:
    """One row per time t: the state, then every agent's input, left empty
    on the final state."""
    n = traj.states.shape[1]
    header = ["t"] + [f"x_{j}" for j in range(n)]
    for i, u in enumerate(traj.inputs):
        header += [f"u{i}_{j}" for j in range(u.shape[1])]
    inputs = np.hstack(traj.inputs)
    x_text, u_text = _Text(), _Text()
    with _open_csv(path, provenance) as fh:
        _write_rows(fh, [header])
        for t in range(0, traj.horizon + 1, CHUNK_ROWS):
            x = traj.states[t:t + CHUNK_ROWS]
            u = inputs[t:t + CHUNK_ROWS]
            cells = np.full((len(x), len(header)), "", dtype=object)
            cells[:, 0] = np.arange(t, t + len(x)).astype(str)
            cells[:, 1:1 + n] = x_text(x)
            cells[:len(u), 1 + n:] = u_text(u)
            _write_rows(fh, cells.tolist())


def write_series_csv(series, header, path, provenance=None) -> None:
    """One row per row of an (R, c) series: its c - 1 leading columns as
    integers, then its value as repr, SERIES_CHUNK_ROWS rows at a time."""
    value_text = _Text()
    with _open_csv(path, provenance) as fh:
        _write_rows(fh, [header])
        for start in range(0, len(series), SERIES_CHUNK_ROWS):
            chunk = series[start:start + SERIES_CHUNK_ROWS]
            cells = np.empty(chunk.shape, dtype=object)
            cells[:, :-1] = chunk[:, :-1].astype(np.int64).astype(str)
            cells[:, -1] = value_text(chunk[:, -1])
            _write_rows(fh, cells.tolist())


def _series(*columns) -> np.ndarray:
    """Index columns and a value column, broadcast together, as the rows
    of an (R, len(columns)) series."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(
        -1, len(columns))


def trace_gain_series(trace: RecursionTrace) -> np.ndarray:
    """Rows (step, agent, row, col, gain value) over a trace, read from the
    gain stacks, whose rows run agent by agent."""
    if not trace.gains:
        return np.empty((0, 5))
    K = stack_stacks([k.stack for k in trace.gains])
    widths = [r.stop - r.start for r in trace.gains[0].rows]
    agent = np.repeat(np.arange(len(widths)), widths)
    row = np.concatenate([np.arange(m) for m in widths])
    return _series((trace.first_step + np.arange(len(K)))[:, None, None],
                   agent[:, None], row[:, None], np.arange(K.shape[2]), K)


def trace_value_series(trace: RecursionTrace, game: GameSpec):
    """Per-step Frobenius distance to the first stored state, as (step,
    agent, distance) rows, and closed-loop spectral radius, as (step,
    radius) rows, read from the stacks."""
    P = trace.values
    S, N = P.shape[:2]
    norms = stack_norms(P - P[0])
    steps = trace.first_step + np.arange(S)
    diffs = _series(steps[:, None], np.arange(N), norms)
    if not trace.gains:
        return diffs, np.empty((0, 2))
    K = stack_stacks([k.stack for k in trace.gains])
    Acl = np.repeat(game.A[None], len(K), axis=0)
    for Bj, rows in zip(game.B, trace.gains[0].rows):
        Acl -= Bj @ K[:, rows]
    rho = np.max(np.abs(np.linalg.eigvals(Acl)), axis=-1)
    return diffs, _series(steps[:len(K)], rho)


def certificate_trace(cert: CycleCertificate) -> RecursionTrace:
    """A cycle certificate's loop unrolled CERTIFICATE_PERIODS times in
    loop order: state s is phase s mod L and gain s the gain tuple applied
    moving into it."""
    return RecursionTrace(
        list(cert.phases) * CERTIFICATE_PERIODS,
        list(cert.gains) * CERTIFICATE_PERIODS,
        TerminationRecord("completed", CERTIFICATE_PERIODS * cert.period,
                          cert.cycle_residual))


def export_trace_figures(trace_or_cert, game: GameSpec, out_dir,
                         provenance: dict | None = None) -> list:
    """Emit the plot-ready series for a trace or a cycle certificate.

    Writes gain_series.csv (per-step gain entries), value_distance_series.csv
    (per-step Frobenius distance of each agent's value matrix to the first
    state or phase), and closed_loop_spectra.csv (per-step spectral radius
    of the closed loop). Certificates are unrolled over
    CERTIFICATE_PERIODS periods.
    Returns the written paths.
    """
    trace = trace_or_cert
    if isinstance(trace, CycleCertificate):
        trace = certificate_trace(trace)
    elif not isinstance(trace, RecursionTrace):
        raise TypeError("expected a RecursionTrace or a CycleCertificate")
    diffs, rhos = trace_value_series(trace, game)
    gains = trace_gain_series(trace)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for series, header, name in (
            (gains, ["step", "agent", "row", "col", "value"],
             "gain_series.csv"),
            (diffs, ["step", "agent", "frobenius_diff"],
             "value_distance_series.csv"),
            (rhos, ["step", "spectral_radius"], "closed_loop_spectra.csv")):
        target = out / name
        write_series_csv(series, header, target, provenance)
        paths.append(target)
    return paths


def write_manifest(out_dir, command: str, resolved: dict, artifacts,
                   extra: dict | None = None) -> None:
    _write_json({"command": command, "resolved_config": resolved,
                 "artifacts": [str(a) for a in artifacts]},
                Path(out_dir, "manifest.json"), extra)
