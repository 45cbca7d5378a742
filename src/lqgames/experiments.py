"""Experiment campaigns: basin maps, regime ensembles, cycle censuses.

All randomness flows through numpy SeedSequence spawn keys derived from a
master seed and the (cell, trial) indices, so every report is reproducible
bit for bit from its master seed regardless of execution order.

Random games draw A entries uniform on [-2, 2] (spanning stable and
unstable dynamics), B^i entries uniform on [-1, 1], and build Q^i, R^i,
and random terminal costs as G G' + 0.1 I with G standard normal - the
0.1 floor guarantees definiteness. Experiment cells are (n, m, N) triples
where m is the common per-agent input dimension.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (ClassifyOptions, VERDICT_CONVERGED, VERDICT_CYCLE,
                       VERDICTS, classify)
from .equilibria import EquilibriumSet, _newton, scalar_two_agent_equilibria
from .model import (GameSpec, PTuple, stack_distances, stack_stacks,
                    validate_game)
from .riccati import _agent_max, _one_blas_thread

# Basin cells whose fixed point sits farther than this (relative) from
# every known equilibrium land in the unmatched bucket.
BASIN_LABEL_TOL = 1e-4
CENSUS_EXAMINATION_CAP = 10 ** 6
RESAMPLE_CAP = 100


class GenerationFailed(RuntimeError):
    """random_game could not draw a valid stabilizable game."""


class CensusIncomplete(RuntimeError):
    """A census cell hit its examination cap; carries the partial census."""

    def __init__(self, census: "CycleCensus", cell):
        self.census = census
        self.cell = cell
        super().__init__(f"cycle census incomplete for cell {cell}")


def _rng_for(master_seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def random_game(n: int, m: int, N: int, rng: np.random.Generator) -> GameSpec:
    """Draw a valid stabilizable random game; resamples on validation
    failure up to RESAMPLE_CAP times before raising GenerationFailed."""
    for _ in range(RESAMPLE_CAP):
        A = rng.uniform(-2.0, 2.0, size=(n, n))
        B = [rng.uniform(-1.0, 1.0, size=(n, m)) for _ in range(N)]
        Q = []
        R = []
        for _ in range(N):
            g = rng.standard_normal((n, n))
            Q.append(g @ g.T + 0.1 * np.eye(n))
            h = rng.standard_normal((m, m))
            R.append(h @ h.T + 0.1 * np.eye(m))
        game = GameSpec(A, B, Q, R)
        if validate_game(game).ok:
            return game
    raise GenerationFailed(f"no valid game after {RESAMPLE_CAP} draws "
                           f"for (n={n}, m={m}, N={N})")


def random_terminal(game: GameSpec, rng: np.random.Generator) -> PTuple:
    """Random positive-definite terminal costs, same family as Q."""
    n = game.n
    mats = []
    for _ in range(game.num_agents):
        g = rng.standard_normal((n, n))
        mats.append(g @ g.T + 0.1 * np.eye(n))
    return PTuple(mats)


def _draw_trial(master_seed: int, ci: int, t: int,
                cell) -> tuple[GameSpec, PTuple] | None:
    """Trial t of cell index ci: a random game of the (n, m, N) cell and a
    terminal cost from the same generator, or None when generation fails."""
    rng = _rng_for(master_seed, ci, t)
    try:
        game = random_game(*cell, rng)
    except GenerationFailed:
        return None
    return game, random_terminal(game, rng)


# ---------------------------------------------------------------------------
# Basin of attraction over terminal costs (scalar two-agent games)

@dataclass
class BasinCell:
    qt1: float
    qt2: float
    verdict: str
    label: int | None = None         # index into the equilibrium set
    steps_to_converge: int | None = None
    distance: float | None = None


@dataclass
class BasinMap:
    grid_axes: tuple[np.ndarray, np.ndarray]
    cells: list[BasinCell]
    equilibria: EquilibriumSet

    def label_counts(self) -> dict:
        counts: dict = {}
        for c in self.cells:
            key = c.label if c.verdict == VERDICT_CONVERGED else c.verdict
            counts[key] = counts.get(key, 0) + 1
        return counts


@_one_blas_thread
def run_basin_grid(game: GameSpec, axis_samples: int = 100,
                   q_range: tuple[float, float] = (0.3, 30.0),
                   opts: ClassifyOptions | None = None) -> BasinMap:
    """Classify the recursion over a grid of scalar terminal costs.

    Maps each (Q_T^1, Q_T^2) on a uniform grid over (lo, hi] (the lower
    endpoint is excluded), labels converged cells by the nearest of the
    game's enumerated equilibria, and records steps to converge. Converged
    fixed points are Newton-polished, in one batch after the grid, before
    matching so labels do not depend on how slowly a boundary cell
    settled. A cell's distance to an equilibrium is PTuple.distance's,
    taken for every cell and equilibrium in one stack_distances call; its
    label is the first nearest. Raises ValueError unless the range is
    finite with 0 <= lo < hi, so every terminal cost is positive definite.
    """
    if game.n != 1 or game.num_agents != 2:
        raise ValueError("basin mapping requires n = 1 and two agents")
    lo, hi = q_range
    if not (math.isfinite(hi) and 0 <= lo < hi):
        raise ValueError(f"terminal-cost range {q_range} needs finite "
                         "0 <= lo < hi")
    equilibria = scalar_two_agent_equilibria(game)
    axis = np.linspace(lo, hi, axis_samples + 1)[1:]

    cells, converged, starts = [], [], []
    for qt1 in axis:
        for qt2 in axis:
            verdict = classify(game, PTuple([qt1, qt2]), opts)
            cell = BasinCell(qt1=float(qt1), qt2=float(qt2),
                             verdict=verdict.verdict)
            if verdict.verdict == VERDICT_CONVERGED:
                cell.steps_to_converge = verdict.steps_to_converge
                converged.append(cell)
                starts.append(verdict.fixed_point.stack.ravel().tolist())
            cells.append(cell)
    if converged:
        polished, ok = _newton(game, np.array(starts))
        points = np.where(ok[:, None], polished, starts)
        known = stack_stacks([pt.p.stack for pt in equilibria])
        # (cells, equilibria, agents), the denominators from the equilibria.
        dists = stack_distances(known, points.reshape(-1, 1, 2, 1, 1))
        for cell, row in zip(converged, dists):
            tops = _agent_max(row)
            cell.distance = dist = min(tops)
            idx = tops.index(dist)
            cell.label = idx if dist <= BASIN_LABEL_TOL else None
    return BasinMap(grid_axes=(axis, axis), cells=cells, equilibria=equilibria)


# ---------------------------------------------------------------------------
# Random-game regime ensembles

@dataclass
class CellStats:
    counts: dict = field(default_factory=dict)
    generation_failures: int = 0

    def fractions(self, trials: int) -> dict:
        if trials == 0:
            return {k: 0.0 for k in VERDICTS}
        return {k: self.counts.get(k, 0) / trials for k in VERDICTS}


@dataclass
class EnsembleReport:
    cells: dict
    trials_per_cell: int
    master_seed: int

    def converged_fraction(self, cell) -> float:
        stats = self.cells[tuple(cell)]
        if self.trials_per_cell == 0:
            return 0.0
        return stats.counts.get(VERDICT_CONVERGED, 0) / self.trials_per_cell


@_one_blas_thread
def run_ensemble(cells, trials: int, master_seed: int,
                 opts: ClassifyOptions | None = None) -> EnsembleReport:
    """Classify `trials` random (game, terminal) draws per (n, m, N) cell.

    Each trial derives its own generator from (master_seed, cell index,
    trial index), so reports are reproducible and order-independent.
    Generation failures are counted per cell and never abort the run.
    """
    report = EnsembleReport(cells={}, trials_per_cell=trials,
                            master_seed=master_seed)
    for ci, cell in enumerate(cells):
        n, m, N = cell
        stats = CellStats(counts={k: 0 for k in VERDICTS})
        for t in range(trials):
            trial = _draw_trial(master_seed, ci, t, cell)
            if trial is None:
                stats.generation_failures += 1
                continue
            game, terminal = trial
            verdict = classify(game, terminal, opts)
            stats.counts[verdict.verdict] = stats.counts.get(verdict.verdict, 0) + 1
        report.cells[(n, m, N)] = stats
    return report


# ---------------------------------------------------------------------------
# Cycle census

@dataclass
class CellCensus:
    histogram: dict = field(default_factory=dict)    # period -> count
    games_examined: int = 0
    certificates: list = field(default_factory=list)
    complete: bool = True


@dataclass
class CycleCensus:
    target_count: int
    cells: dict = field(default_factory=dict)
    master_seed: int = 0
    examination_cap: int = CENSUS_EXAMINATION_CAP


@_one_blas_thread
def cycle_census(cells, target: int, master_seed: int,
                 opts: ClassifyOptions | None = None,
                 cap: int = CENSUS_EXAMINATION_CAP) -> CycleCensus:
    """Collect `target` certified cycles per cell and histogram their
    minimal periods.

    Keeps generating random (game, terminal) pairs until the target is
    met; every counted cycle carries a passing certificate. Raises
    CensusIncomplete (with the partial census attached) if any cell
    exhausts the examination cap first.
    """
    census = CycleCensus(target_count=target, cells={},
                         master_seed=master_seed, examination_cap=cap)
    for ci, cell in enumerate(cells):
        n, m, N = cell
        cc = CellCensus()
        found = 0
        g = 0
        while found < target:
            if g >= cap:
                cc.complete = False
                census.cells[(n, m, N)] = cc
                raise CensusIncomplete(census, (n, m, N))
            trial = _draw_trial(master_seed, ci, g, cell)
            g += 1
            cc.games_examined = g
            if trial is None:
                continue
            game, terminal = trial
            verdict = classify(game, terminal, opts)
            if verdict.verdict == VERDICT_CYCLE:
                cert = verdict.certificate
                cc.histogram[cert.period] = cc.histogram.get(cert.period, 0) + 1
                cc.certificates.append(cert)
                found += 1
        census.cells[(n, m, N)] = cc
    return census
