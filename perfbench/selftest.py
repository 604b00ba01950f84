"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Smoke: every workload, traced and untraced, with tiny trial counts, must
   pass every output check.
2. A run against a corrupted program (Z counted one too high inside
   `randcomplex.experiments` only) must report the calls as failed, in both
   modes.
3. A directory holding only BENCHMARK.json and perfbench/ must make run.py
   exit non-zero without printing a result.
Exits 0 when all three hold.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def corrupted_run_fails() -> bool:
    from randcomplex import experiments

    real = experiments.z_count
    experiments.z_count = lambda g, k: real(g, k) + 1
    try:
        outcomes = [run.run("cech-k3-n2000", 1, 0.0, trace, trials=run.SMOKE_TRIALS, probes=1)
                    for trace in (0, 1)]
    finally:
        experiments.z_count = real
    return all(not o["result"]["correct"] and o["result"]["failed"] == o["result"]["attempted"]
               for o in outcomes)


def bare_directory_refused() -> bool:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "er-k1-n400", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return done.returncode != 0 and '"correct"' not in done.stdout


def main() -> int:
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    checks = {
        "smoke": run.smoke() == 0,
        "corrupted program fails": corrupted_run_fails(),
        "bare directory refused": bare_directory_refused(),
    }
    for name, ok in checks.items():
        print(f"selftest {name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
