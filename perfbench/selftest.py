"""Self-test of the benchmark's checker.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it runs operations at
a tiny size, checks them against their own fingerprints (nothing may
fail), then against tampered fingerprints and outputs, each of which must
count as failed operations. It also checks operation 0 of each workload
at full size against the recorded reference, the scaling of times by the
host speed and the tail percentile, that the metric names match
BENCHMARK.json, and that the benchmark refuses to run outside a checkout.
Exits non-zero on the first failed expectation.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def run_once(workload, log, k=0):
    first = len(log.records)
    _, result = run.call(workload, k)
    expect(not isinstance(result, Exception),
           f"{workload.name} operation {k} runs")
    return result, log.records[first:]


def tampered_counts(fp: dict, path: tuple, delta: int) -> dict:
    out = copy.deepcopy(fp)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node.get(path[-1], 0) + delta
    return out


def check_basin(workloads, log):
    w = workloads.Basin(1, run.OUT / "selftest-basin", size=4)
    basin, records = run_once(w, log)
    failed, _, fp = w.check(0, basin, records, None)
    expect(failed == 0, "basin: tiny grid passes its invariants")
    expect(w.check(0, basin, records, fp)[0] == 0,
           "basin: tiny grid matches its own fingerprint")
    label = next(iter(fp["labels"]))
    for delta in (1, -1):
        bad = tampered_counts(fp, ("labels", label), delta)
        expect(w.check(0, basin, records, bad)[0] >= 1,
               f"basin: label count off by {delta:+d} fails an operation")
    bad = dict(fp, equilibria=fp["equilibria"] + 1)
    expect(w.check(0, basin, records, bad)[0] == w.units(0),
           "basin: wrong equilibrium count fails every cell")
    expect(w.check(0, basin, records[:-1], None)[0] == w.units(0),
           "basin: a missing classification fails every cell")


def check_ensemble(workloads, log):
    from lqgames.model import PTuple

    w = workloads.Ensemble(1, run.OUT / "selftest-ensemble", trials=2)
    report, records = run_once(w, log)
    failed, _, fp = w.check(0, report, records, None)
    expect(failed == 0, "ensemble: tiny ensemble passes its invariants")
    expect(w.check(0, report, records, fp)[0] == 0,
           "ensemble: tiny ensemble matches its own fingerprint")
    cell = next(iter(fp))
    verdict = next(v for v in fp[cell] if v != "generation_failed")
    for delta in (1, -1):
        bad = tampered_counts(fp, (cell, verdict), delta)
        expect(w.check(0, report, records, bad)[0] >= 1,
               f"ensemble: verdict count off by {delta:+d} fails an operation")
    bad = tampered_counts(fp, (cell, "generation_failed"), 1)
    expect(w.check(0, report, records, bad)[0] >= 1,
           "ensemble: generation-failure count off by one fails an operation")

    class FakeCertificate:
        phases = (PTuple([1.0, 1.0]), PTuple([2.0, 2.0]))

    game = workloads.Basin.game
    extra = w.check(0, report, records + [(0.0, "cycle", None)], None)[0]
    forged = records + [(0.0, "cycle", (game, FakeCertificate()))]
    expect(w.check(0, report, forged, None)[0] == extra + 1,
           "ensemble: a cycle that fails re-certification fails an operation")
    unknown = records[:-1] + [(0.0, "unknown", None)]
    expect(w.check(0, report, unknown, None)[0] >= 1,
           "ensemble: a verdict outside VERDICTS fails an operation")


def check_horizon(workloads):
    w = workloads.Horizon(1, run.OUT / "selftest-horizon", steps=20, pool=2)
    code = w.call(0)
    failed, written, fp = w.check(0, code, [], None)
    expect(failed == 0 and written > 0,
           "horizon: tiny run passes its invariants and writes files")
    expect(fp == {"code": 0, "reason": "completed", "steps": 20},
           "horizon: tiny run completes every step")
    for key, value in (("steps", 21), ("reason", "diverged"), ("code", 1)):
        code = w.call(0)
        expect(w.check(0, code, [], dict(fp, **{key: value}))[0] == 1,
               f"horizon: wrong {key} in the fingerprint fails the run")
    code = w.call(0)
    csv_path = w.out_dir(0) / "trace.csv"
    lines = csv_path.read_text().splitlines()
    row = lines[3].split(",")          # comment, header, step 0 agent 0, ...
    row[2] = repr(float(row[2]) * (1 + 1e-6))
    lines[3] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    expect(w.check(0, code, [], None)[0] == 1,
           "horizon: a trace row off the stage map fails the run")
    code = w.call(0)
    expect(w.check(0, code + 1, [], None)[0] == 1,
           "horizon: an unexpected exit code fails the run")
    shutil.rmtree(w.workdir, ignore_errors=True)


def check_reference(workloads, log):
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.OUT / f"selftest-ref-{name}"
        w = cls(workloads.REFERENCE_SEED, workdir)
        reference = run.load_reference(w, workloads.REFERENCE_SEED)
        first = len(log.records)
        _, result = run.call(w, 0)
        failed, _, _ = run.check(w, 0, result, log.records[first:],
                                 reference)
        expect(failed == 0, f"{name}: operation 0 at the reference seed "
                            "matches the recorded fingerprint")
        shutil.rmtree(workdir, ignore_errors=True)


def check_scaling():
    import calibrate

    speed = calibrate.Speed()
    speed.stamps = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    ref = calibrate.REFERENCE_S
    speed.seconds = [ref] * 5 + [2 * ref] * 5
    expect(abs(speed.factor(2.0) - 1.0) < 1e-12
           and abs(speed.factor(12.0, 12.5) - 0.5) < 1e-12,
           "times are scaled by the host speed probed near them")
    speed.probe()
    expect(speed.seconds[-1] > 0 and speed.spent_cpu == speed.seconds[-1],
           "a probe records the kernel time it took from the run")
    values = [float(v) for v in range(1, 2001)]
    expect(run.tail(values, 99) == (1980.0, 99.0),
           "tail: the workload's percentile when enough samples lie beyond")
    expect(run.tail(values[:70], 99) == (60.0, 100.0 * 60 / 70),
           "tail: the highest percentile with ten samples beyond otherwise")


def check_metric_names(tracing):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.E2E_UNITS, "end-to-end metrics match BENCHMARK.json")
    expect(layers == tracing.LAYER_UNITS,
           "per-layer metrics match BENCHMARK.json")


def check_refuses_bare_directory():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    shutil.copy(run.HERE / "reference.json", bare / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "basin",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "refuses to run without src/lqgames, printing no result")


def main() -> int:
    run.import_library()
    import tracing
    import workloads

    log = workloads.ClassifyLog()
    log.install()
    check_basin(workloads, log)
    check_ensemble(workloads, log)
    check_horizon(workloads)
    check_reference(workloads, log)
    log.uninstall()
    check_scaling()
    check_metric_names(tracing)
    check_refuses_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
