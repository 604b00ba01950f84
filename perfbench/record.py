"""Record SHA-256 digests of the experiment outputs for the default seeds.

    python3 perfbench/record.py [--workload NAME ...]

For each workload and each seed in DEFAULT_SEEDS, makes the first
RECORDED_CALLS calls of a run (the master seeds a run with that seed uses),
checks them as run.py does, and stores the digests of their CSV and JSON
bytes in perfbench/digests/<workload>.json. run.py then counts any call whose bytes
differ from a recorded digest as failed. Re-record only when a change alters
the outputs on purpose, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

DEFAULT_SEEDS = range(1, 11)
RECORDED_CALLS = 32


def record(workload: str) -> dict:
    from randcomplex.experiments import RegimeSpec

    regime, trials = run.WORKLOADS[workload]
    spec = RegimeSpec(**regime)
    calls = []
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    try:
        for seed in DEFAULT_SEEDS:
            for i in range(RECORDED_CALLS):
                calls.append(run.call_cli(regime, trials, run.master_seed(seed, i), workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = run.verify_calls(workload, spec, calls, trials)
    if failures:
        raise run.BenchError(f"{workload}: refusing to record failing output: {failures[0]}")
    return {
        "trials": trials,
        "calls": {str(c.master): [run.sha256(c.csv), run.sha256(c.json)] for c in calls},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    run.DIGESTS.mkdir(exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        digests = record(workload)
        path = run.DIGESTS / f"{workload}.json"
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(digests['calls'])} calls of {workload} in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
