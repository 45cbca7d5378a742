"""Record the reference fingerprints: the outputs of the first operations
of each workload at the reference seed, which later runs at that seed
must reproduce.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose results are trusted; it rewrites
perfbench/reference.json.
"""

import json
import shutil
import sys

import run

# Operations recorded per workload: several times what a run at the
# seed commit completes, so faster versions stay covered.
COUNTS = {"basin": 32, "ensemble": 400, "horizon": None}  # horizon: its pool


def main() -> int:
    run.import_library()
    import workloads

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.OUT / f"record-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workload = cls(workloads.REFERENCE_SEED, workdir)
        log = workloads.ClassifyLog()
        log.install()
        fingerprints = []
        for k in range(COUNTS[name] or workload.pool):
            first = len(log.records)
            _, result = run.call(workload, k)
            failed, _, fp = run.check(workload, k, result,
                                      log.records[first:], [])
            if failed:
                sys.exit(f"{name} operation {k}: {failed} failed checks")
            fingerprints.append(fp)
        log.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        reference[name] = fingerprints
        print(f"{name}: {len(fingerprints)} operations recorded")
    (run.HERE / "reference.json").write_text(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """JSON with one operation's fingerprint per line."""
    blocks = []
    for name, fingerprints in reference.items():
        rows = ",\n".join("  " + json.dumps(fp, sort_keys=True)
                          for fp in fingerprints)
        blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
