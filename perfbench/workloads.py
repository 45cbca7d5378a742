"""Workloads of the lqgames benchmark: inputs made from a seed, the timed
operation, and the check of its outputs.

Every input comes from the seed through SeedSequence children and the
public API (random_game, random_terminal, write_game, write_ptuple); the
library receives only the generated inputs. Operation k of a run draws
from child k, so the same seed gives the same inputs however long a run
lasts.

Why each workload:

basin     run_basin_grid on the Fig. 1 game (A=5, B=[1,1], Q=[1,1],
          R=[1,2]) over 30x30 grids of terminal costs inside (0.3, 30],
          each grid shifted by a fraction of its spacing drawn from a
          seeded low-discrepancy sequence. Every cell converges in a
          short orbit, so the time goes to per-step overhead at the
          smallest size, detect_convergence and the scalar equilibrium
          enumeration, which is inside the timed call as in
          `lqgames basin`. It never certifies a cycle and never runs a
          full horizon: the bypass workload for cycle retirement and
          certification changes. Its classifications cost nearly the
          same (about 2.3 ms, p99 under twice that), so beyond the 90th
          percentile their order is set by the host's millisecond jitter,
          not by the input: the cell times of one grid run twice
          correlate about 0.35. Its tail latency is therefore the 90th
          percentile, which spread 0.04 across seeds against 0.10-0.15
          for the 99th.
ensemble  run_ensemble on cells (1,1,2), (2,1,3) and (3,3,2), ten trials
          per cell per call. Many independent random games with mixed
          verdicts; the few that run the whole horizon take about half of
          the time. This is the throughput workload that batching and
          early retirement target, and the only one that exercises game
          generation, validation and cycle certification. The horizon is
          500 steps, not the default 10 000: at 10 000 about 2% of the
          games take 90% of the time, so throughput over a 30 s run would
          depend mostly on how many of them a seed draws (+-30% between
          seeds); at 500 the same mechanism holds with a spread that fits
          the benchmark's bound. About one game in twenty runs the whole
          horizon, so the tail latency is the 99th percentile, which
          falls among those games.
horizon   lqgames.cli.main(["run", ..., "--conv-tol", "0"]) in process,
          once per random (3,3,2) game, over 2000 steps. Each call runs
          exactly H steps with full trace storage and writes its trace CSV,
          termination JSON and manifest: the single-game path, which
          bypasses the campaigns, so a slower batch of one shows here.
          A run makes about 70 calls, so its tail latency is the highest
          percentile with ten calls beyond it.
"""

import contextlib
import csv
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from lqgames import analysis, cli, experiments, fileio
from lqgames.analysis import ClassifyOptions
from lqgames.experiments import VERDICTS
from lqgames.model import GameSpec, PTuple
from lqgames.riccati import riccati_step

# Checks call the library's own functions as they were at import, so a
# traced run checks with the same code as an untraced one.
_verify_cycle = analysis.verify_cycle
_riccati_step = riccati_step

REFERENCE_SEED = 0
# The two-dimensional R2 sequence advances by (1/g, 1/g**2), g the root
# of g**3 = g + 1.
R2_STEP = np.array([0.7548776662466927, 0.5698402909980532])
STAGE_MAP_TOL = 1e-10


def _child(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def count_mismatch(expected: dict, got: dict) -> int:
    """Operations a count fingerprint shows as wrong: the larger of the
    surplus and the shortfall, so one count off by one in either
    direction is one failed operation."""
    keys = set(expected) | set(got)
    over = sum(max(0, got.get(k, 0) - expected.get(k, 0)) for k in keys)
    under = sum(max(0, expected.get(k, 0) - got.get(k, 0)) for k in keys)
    return max(over, under)


class ClassifyLog:
    """Times each classify call made by the campaigns, in CPU seconds of
    the process, and keeps what the check needs. Installed in traced and
    untraced runs alike; it adds three clock reads per classification.
    Given a calibrate.Speed, it probes the host speed between
    classifications when one is due, outside the timed calls."""

    def __init__(self, speed=None):
        self.records = []        # (seconds, verdict, (game, certificate) | None)
        self.stamps = []         # wall clock at the start of each record
        self.speed = speed
        self._inner = None

    def install(self):
        inner = self._inner = experiments.classify
        records, stamps, clock = self.records, self.stamps, time.process_time
        probe = self.speed.maybe_probe if self.speed else None

        def timed(game, terminal, opts=None):
            if probe:
                probe()
            stamps.append(time.perf_counter())
            start = clock()
            result = inner(game, terminal, opts)
            seconds = clock() - start
            cert = result.certificate
            records.append((seconds, result.verdict,
                            (game, cert) if cert is not None else None))
            return result

        experiments.classify = timed

    def uninstall(self):
        experiments.classify = self._inner


class Basin:
    name = "basin"
    uses_classify_log = True
    tail_percentile = 90
    trace_ops = 2
    game = GameSpec(A=5, B=[1, 1], Q=[1, 1], R=[1, 2])
    q_range = (0.3, 30.0)
    equilibria = 3               # stationary equilibria of the Fig. 1 game

    def __init__(self, seed: int, workdir: Path, size: int = 30):
        self.seed = seed
        self.size = size

    def units(self, k: int) -> int:
        return self.size * self.size

    def reference_index(self, k: int) -> int:
        return k

    def grid_range(self, k: int) -> tuple[float, float]:
        """Range of grid k: each end moved inwards by a fraction in
        [0, 0.5) of the spacing. The fractions follow the R2
        low-discrepancy sequence from a seeded start, so that every run
        sweeps the range of shifts evenly, whatever the seed."""
        lo, hi = self.q_range
        h = (hi - lo) / self.size
        start = _child(self.seed, 0).uniform(0.0, 1.0, size=2)
        u = 0.5 * np.mod(start + (k + 1) * R2_STEP, 1.0)
        return lo + h * u[0], hi - h * u[1]

    def call(self, k: int):
        return experiments.run_basin_grid(self.game, axis_samples=self.size,
                                          q_range=self.grid_range(k))

    @staticmethod
    def fingerprint(basin) -> dict:
        labels = {str(key): n for key, n in basin.label_counts().items()}
        return {"equilibria": len(basin.equilibria), "labels": labels}

    def check(self, k, basin, records, expected) -> tuple[int, int, dict]:
        units = self.units(k)
        fp = self.fingerprint(basin)
        if fp["equilibria"] != self.equilibria or len(records) != units:
            return units, 0, fp
        failed = sum(1 for _, v, _ in records if v not in VERDICTS)
        failed += sum(1 for c in basin.cells
                      if c.verdict == "converged" and c.label is None)
        if expected is not None:
            failed += count_mismatch(expected["labels"], fp["labels"])
            if expected["equilibria"] != fp["equilibria"]:
                failed = units
        return min(failed, units), 0, fp


class Ensemble:
    name = "ensemble"
    uses_classify_log = True
    tail_percentile = 99
    trace_ops = 40
    cells = ((1, 1, 2), (2, 1, 3), (3, 3, 2))
    opts = ClassifyOptions(horizon=500)

    def __init__(self, seed: int, workdir: Path, trials: int = 10):
        self.seed = seed
        self.trials = trials

    def units(self, k: int) -> int:
        return len(self.cells) * self.trials

    def reference_index(self, k: int) -> int:
        return k

    def master_seed(self, k: int) -> int:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(k,))
        return int(ss.generate_state(1)[0])

    def call(self, k: int):
        return experiments.run_ensemble(self.cells, self.trials,
                                        self.master_seed(k), self.opts)

    @staticmethod
    def fingerprint(report) -> dict:
        fp = {}
        for cell, stats in sorted(report.cells.items()):
            counts = {v: n for v, n in stats.counts.items() if n}
            counts["generation_failed"] = stats.generation_failures
            fp[",".join(map(str, cell))] = counts
        return fp

    def check(self, k, report, records, expected) -> tuple[int, int, dict]:
        units = self.units(k)
        fp = self.fingerprint(report)
        failed = sum(1 for _, v, _ in records if v not in VERDICTS)
        logged: dict = {}
        for _, v, _ in records:
            logged[v] = logged.get(v, 0) + 1
        reported: dict = {}
        for counts in fp.values():
            for v, n in counts.items():
                if v != "generation_failed":
                    reported[v] = reported.get(v, 0) + n
        failed += count_mismatch(reported, logged)
        for _, _, cycle in records:
            if cycle is None:
                continue
            game, cert = cycle
            try:
                _verify_cycle(cert.phases, game)
            except (RuntimeError, ValueError):
                failed += 1
        if expected is not None:
            for cell in set(expected) | set(fp):
                failed += count_mismatch(expected.get(cell, {}),
                                         fp.get(cell, {}))
        return min(failed, units), 0, fp


class Horizon:
    name = "horizon"
    uses_classify_log = False
    tail_percentile = 99
    trace_ops = 16
    cell = (3, 3, 2)
    steps = 2000
    pool = 64                    # operation k runs game k % pool
    sampled_steps = 4            # trace steps checked against the stage map

    def __init__(self, seed: int, workdir: Path, steps: int | None = None,
                 pool: int | None = None):
        self.seed = seed
        self.steps = steps or self.steps
        self.pool = pool or self.pool
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.games = []
        for g in range(self.pool):
            rng = _child(seed, g)
            game = experiments.random_game(*self.cell, rng)
            terminal = experiments.random_terminal(game, rng)
            game_path = workdir / f"game-{g:03d}.json"
            terminal_path = workdir / f"terminal-{g:03d}.json"
            fileio.write_game(game, game_path)
            fileio.write_ptuple(terminal, terminal_path)
            self.games.append((game, game_path, terminal_path))

    def units(self, k: int) -> int:
        return 1

    def reference_index(self, k: int) -> int:
        return k % self.pool

    def out_dir(self, k: int) -> Path:
        return self.workdir / f"run-{k:05d}"

    def call(self, k: int):
        _, game_path, terminal_path = self.games[k % self.pool]
        argv = ["run", "--game", str(game_path),
                "--terminal", str(terminal_path),
                "--horizon", str(self.steps), "--conv-tol", "0",
                "--out", str(self.out_dir(k))]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, k, code, records, expected) -> tuple[int, int, dict]:
        """One failed operation if the exit code, the termination record,
        the stored trace or the reference fingerprint is wrong. Returns it
        with the bytes the call wrote and the fingerprint, and removes the
        call's output."""
        out = self.out_dir(k)
        fp = {"code": code}
        try:
            written = sum(p.stat().st_size for p in out.iterdir())
            term = json.loads((out / "termination.json").read_text())
            fp = {"code": code, "reason": term["reason"], "steps": term["steps"]}
            ok = (fp["code"] == (1 if fp["reason"] == "singular" else 0)
                  and (out / "manifest.json").is_file()
                  and fp["reason"] in ("completed", "diverged", "singular")
                  and (fp["reason"] != "completed" or fp["steps"] == self.steps)
                  and self._trace_ok(k, fp["steps"])
                  and (expected is None or expected == fp))
        except (OSError, ValueError, KeyError, StopIteration):
            return 1, 0, fp
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return (0 if ok else 1), written, fp

    def _trace_ok(self, k: int, steps: int) -> bool:
        """Sampled rows of the trace CSV satisfy the one-step stage map:
        riccati_step of the value tuple stored at step s reproduces the
        tuple at step s + 1 and the gains stored on row s."""
        game = self.games[k % self.pool][0]
        N, n = game.num_agents, game.n
        rows: dict = {}
        with open(self.out_dir(k) / "trace.csv", newline="") as fh:
            body = (line for line in fh if not line.startswith("#"))
            reader = csv.reader(body)
            next(reader)
            count = 0
            for row in reader:
                rows.setdefault(int(row[0]), []).append(row)
                count += 1
        if count != (steps + 1) * N or steps < 1:
            return False
        rng = _child(self.seed, k % self.pool, 1)
        picks = {0, steps - 1, *rng.integers(0, steps, self.sampled_steps - 2)}
        for s in picks:
            p = PTuple([np.array(r[2:2 + n * n], dtype=float).reshape(n, n)
                        for r in rows[s]])
            p_next = PTuple([np.array(r[2:2 + n * n], dtype=float).reshape(n, n)
                             for r in rows[s + 1]])
            image, gains = _riccati_step(p, game)
            if image.distance(p_next) > STAGE_MAP_TOL:
                return False
            for i, r in enumerate(rows[s]):
                m = game.input_dims[i]
                k_stored = np.array(r[2 + n * n:2 + n * n + m * n],
                                    dtype=float).reshape(m, n)
                if _rel(k_stored, gains[i]) > STAGE_MAP_TOL:
                    return False
        return True


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a)))


WORKLOADS = {w.name: w for w in (Basin, Ensemble, Horizon)}
