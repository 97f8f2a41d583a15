"""Record the reference summaries and artifact hashes for a range of seeds.

    python3 benchmarks/record_reference.py 0 20

Runs every workload once per seed at full size, untraced, checks the
artifacts, and writes benchmarks/reference.json: for each workload and
seed, the summary values (median final M, alpha_moments, c_hat) and the
sha256 of every artifact.  run.py compares against it when the seed it is
given has a record.  Record it again only when a change is meant to alter
results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run as bench


def main(argv: list[str]) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    os.makedirs(bench.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=bench.WORK_DIR)
    doc: dict = {}
    try:
        for name, (commands, _) in bench.WORKLOADS.items():
            for seed in range(lo, hi):
                runs = bench.run_iteration(commands, seed, False, os.path.join(work, "it"))
                failures = [f for r in runs for f in r.failures]
                if failures:
                    print(f"{name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                doc.setdefault(name, {})[str(seed)] = {
                    "summary": {f"{r.command.out}.{k}": v for r in runs
                                for k, v in r.summary.items()},
                    "sha256": {k: v for r in runs for k, v in r.hashes.items()},
                }
                print(f"{name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(bench.REFERENCE, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
