"""The lqgames benchmark.

    python3 perfbench/run.py --workload basin|ensemble|horizon|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
With --trace 0 it repeats the workload's operation for S seconds and
reports the end-to-end metrics. With --trace 1 it runs a fixed number of
operations, each once untraced and once with spans around the public
functions of each lqgames module, and reports the per-layer metrics and
the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The results, an
environment record and, when traced, every span also go to
perfbench/out/results/.

End-to-end metrics (an operation is one classification on basin and
ensemble, one `lqgames run` call on horizon):
  setup_s         median over five fresh processes of the time from
                  process start to the first timed call: imports, inputs
                  from the seed, and the game files of horizon
  classify_per_s  operations completed per wall-clock second of timed calls
  run_p50_ms      median latency of one operation, in CPU time
  run_tail_ms     the workload's tail percentile of that latency (90 on
                  basin, 99 on the others; workloads.py says why), or
                  the highest one with at least ten samples beyond it
                  when that has fewer (printed with its sample count)
  peak_rss_mb     peak resident memory of the workload's process
failed_frac (failed over attempted operations) is printed too; it is 0
when the program is correct, so the JSON carries it as attempted/failed.

Every time above is scaled to a reference host speed: a fixed kernel
(calibrate.py) runs between timed calls every 50 ms, and each time is
multiplied by the kernel's reference time over its median time near that
moment. The speed of a shared VM's CPU drifts by up to 1.6 times within
a minute, which raw times would report as changes of the program. The raw
figures are printed in brackets and kept in the results file.

Latency is the CPU time of the process during the operation. On a shared
virtual machine the wall time of a 4 ms classification also holds pauses
of the virtual CPU, and those made up most of the wall-clock tail (its
spread across five seeds was 0.165 against 0.079 in CPU time on a 2-core
VM). The workloads are single-threaded and hardly wait on I/O, so on an
idle machine the two agree.

BLAS threads are pinned to 1 for this process and its children only.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
OUT = Path("perfbench") / "out"
SETUP_REPEATS = 5
SETUP_PROBES = 4             # host speed probes around each set-up
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "classify_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("basin", "ensemble", "horizon", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock and exit")
    return p.parse_args(argv)


def import_library():
    """Pin BLAS to one thread, put ./src first on the path and import
    lqgames from it; exits with code 1 when the working directory is not
    a checkout of the repo."""
    src = Path.cwd() / "src"
    if not (src / "lqgames" / "__init__.py").is_file():
        sys.exit(f"error: no src/lqgames under {Path.cwd()}; "
                 "run from the root of an lqgames checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import lqgames
    if Path(lqgames.__file__).resolve().parent != (src / "lqgames").resolve():
        sys.exit(f"error: lqgames imported from {lqgames.__file__}")


def tail(values, percentile):
    """(value, percentile) of the given percentile by nearest rank, or of
    the highest percentile with at least TAIL_BEYOND samples above it when
    the given one has fewer; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = min(n - TAIL_BEYOND, math.ceil(percentile / 100 * n))
    return ordered[rank - 1], 100.0 * rank / n


def call(workload, k):
    """Run operation k; returns ((wall seconds, CPU seconds of the
    process), result or the exception)."""
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        result = workload.call(k)
    except Exception as err:  # a failed operation, counted by check()
        result = err
    return (time.perf_counter() - start, time.process_time() - start_cpu), result


def check(workload, k, result, records, reference):
    """(failed, bytes written, fingerprint) of operation k, checked
    against the reference fingerprint when one is recorded for it."""
    if isinstance(result, Exception):
        print(f"operation {k} raised {type(result).__name__}: {result}",
              file=sys.stderr)
        return workload.units(k), 0, None
    i = workload.reference_index(k)
    expected = reference[i] if i < len(reference) else None
    return workload.check(k, result, records, expected)


@contextlib.contextmanager
def tracing_on(tracer, log):
    """Spans on for the block; the classify log stays outermost so the
    classify span is recorded inside it."""
    log.uninstall()
    tracer.install()
    log.install()
    try:
        yield
    finally:
        log.uninstall()
        tracer.uninstall()
        log.install()


def load_reference(workload, seed) -> list:
    """Fingerprints recorded at the reference seed, one per operation."""
    import workloads
    if seed != workloads.REFERENCE_SEED:
        return []
    return json.loads((HERE / "reference.json").read_text())[workload.name]


def measure_setup(args, speed) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh process to its first timed call, raw
    and scaled by the host speed probed before and after each process."""
    raw, spans = [], []
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            speed.probe()
        start, wall_start = time.monotonic(), time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120)
        spans.append((wall_start, time.perf_counter()))
        if done.returncode != 0:
            raise RuntimeError(f"setup process failed: {done.stderr}")
        raw.append(float(done.stdout.split()[-1]) - start)
    for _ in range(SETUP_PROBES):
        speed.probe()
    return raw, [r * speed.factor(*span) for r, span in zip(raw, spans)]


def environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas_version(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return deps["blas"].get("version", "unknown")
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and
    scipy, read through ctypes; empty when none can be queried."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for module in (numpy, scipy):
        libdir = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = fn()
                    break
    return found


def run_all(args) -> int:
    """Each workload in its own process, so memory and set-up belong to
    it; prints a table and, last, a JSON object keyed by workload."""
    combined = {}
    for name in ("basin", "ensemble", "horizon"):
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        combined[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_library()
    if args.workload == "all":
        return run_all(args)
    import resource

    import calibrate
    import tracing
    import workloads

    if args.setup_only:
        workdir = OUT / f"setup-{os.getpid()}"
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(repr(time.monotonic()))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    reference = load_reference(workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    speed = None if tracer else calibrate.Speed()
    log = workloads.ClassifyLog(speed)
    log.install()
    starts, times, cpu_times, traced_times = [], [], [], []
    attempted = failed = written = 0
    k = 0
    # Checks run between calls, outside the timed region. With tracing,
    # each operation runs untraced and then traced, so drift over the run
    # falls on both sides of the overhead.
    while k < workload.trace_ops if tracer else sum(times) < args.seconds:
        first = len(log.records)
        if speed:
            speed.maybe_probe()
            spent = speed.spent_wall, speed.spent_cpu
        starts.append(time.perf_counter())
        (took, took_cpu), result = call(workload, k)
        if speed:           # probes that ran between classifications
            took -= speed.spent_wall - spent[0]
            took_cpu -= speed.spent_cpu - spent[1]
        bad, _, _ = check(workload, k, result, log.records[first:], reference)
        times.append(took)
        cpu_times.append(took_cpu)
        attempted += workload.units(k)
        failed += bad
        if tracer:
            first = len(log.records)
            with tracing_on(tracer, log):
                (took, _), result = call(workload, k)
            bad, nbytes, _ = check(workload, k, result, log.records[first:],
                                   reference)
            traced_times.append(took)
            attempted += workload.units(k)
            failed += bad
            written += nbytes
        k += 1
    log.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted if attempted else 1.0,
              "environment": environment()}
    if tracer is None:
        if workload.uses_classify_log:
            timed = [(r[0], t, t) for r, t in zip(log.records, log.stamps)]
        else:
            timed = [(c, t, t + w)
                     for c, t, w in zip(cpu_times, starts, times)]
        latencies = [c * speed.factor(t0, t1) for c, t0, t1 in timed]
        busy = sum(w * speed.factor(t, t + w) for t, w in zip(starts, times))
        units = sum(workload.units(i) for i in range(k))
        tail_value, tail_pct = tail(latencies, workload.tail_percentile)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw_setups, setups = measure_setup(args, speed)
        metrics = {
            "setup_s": statistics.median(setups),
            "classify_per_s": units / busy,
            "run_p50_ms": 1e3 * statistics.median(latencies),
            "run_tail_ms": 1e3 * tail_value,
            "peak_rss_mb": rss,
        }
        raw = [c for c, _, _ in timed]
        units_of = E2E_UNITS
        report.update(
            setup_samples_s=setups, latency_samples=len(latencies),
            tail_percentile=tail_pct, timed_s=sum(times), calls=k,
            speed=speed.summary(),
            raw={"setup_s": statistics.median(raw_setups),
                 "classify_per_s": units / sum(times),
                 "run_p50_ms": 1e3 * statistics.median(raw),
                 "run_tail_ms":
                     1e3 * tail(raw, workload.tail_percentile)[0]})
    else:
        metrics = tracer.layer_metrics(sum(traced_times), sum(times), k,
                                       written)
        units_of = tracing.LAYER_UNITS

    report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units_of.items()}
    print_report(report, tracing)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer:
        tracer.write(results / f"{stem}-spans.csv.gz")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


def print_report(report, tracing):
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} on {env['host']} "
          f"(nproc={env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, "
          f"OpenBLAS {env['numpy_openblas']}, "
          f"BLAS threads {env['blas_threads'] or env['blas_thread_env']})")
    metrics = report["metrics"]
    if report["trace"] == 0:
        for name, m in metrics.items():
            extra = ""
            if name == "run_tail_ms":
                extra = (f"  (p{report['tail_percentile']:.2f} of "
                         f"{report['latency_samples']} samples)")
            elif name == "run_p50_ms":
                extra = f"  ({report['latency_samples']} samples)"
            if name in report["raw"]:
                extra += f"  [raw {report['raw'][name]:.6g}]"
            print(f"{name:<16} {m['value']:>14.6g} {m['unit']}{extra}")
        speed = report["speed"]
        print(f"host speed: calibration kernel median "
              f"{1e3 * speed['kernel_median_s']:.3f} ms over "
              f"{speed['probes']} probes; times above are scaled to "
              f"{1e3 * speed['reference_s']:.3f} ms")
    else:
        group = None
        for name, m in metrics.items():
            head = name.split(".")[0]
            if head != group:
                print(f"[{head}]")
                group = head
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        for module in tracing.UNTRACED_MODULES:
            print(f"[{module}] not exercised by any workload")
        selfs = sum(metrics[f"{m}.self_s"]["value"] for m in tracing.MODULES)
        wall = metrics["trace.wall_s"]["value"]
        print(f"module self times {selfs:.4f} s of traced wall {wall:.4f} s; "
              f"the rest ({wall - selfs:.4f} s) is the benchmark's own loop")
    print(f"failed_frac      {report['failed_frac']:>14.6g} "
          f"({report['failed']} of {report['attempted']} operations)")


if __name__ == "__main__":
    sys.exit(main())
