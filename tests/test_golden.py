"""Byte-for-byte goldens of the `experiment` and `census` outputs, per model.

Each regime writes the experiment CSV and JSON and the census JSON of trial
CENSUS_STREAM of the same seed. After a deliberate output change, rewrite
the goldens with `PYTHONPATH=src python tests/test_golden.py` and record
the change in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from randcomplex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CENSUS_STREAM = 3

# name: (regime flags, trials, master seed); each runs in about a second
REGIMES = {
    "er-k1": (["--model", "er", "--k", "1", "--n", "80", "--gamma", "0.7"], 30, 11),
    "cech-k3": (
        ["--model", "cech", "--k", "3", "--d", "2", "--n", "400", "--alpha", "3"], 30, 12),
    "rips-k1": (
        ["--model", "rips", "--k", "1", "--d", "2", "--n", "150", "--alpha", "2"], 10, 13),
    "rips-k2": (
        ["--model", "rips", "--k", "2", "--d", "2", "--n", "80", "--alpha", "1"], 30, 14),
}


def write_outputs(name: str, directory: Path) -> list[Path]:
    flags, trials, seed = REGIMES[name]
    paths = [directory / f"{name}-experiment.{ext}" for ext in ("csv", "json")]
    paths.append(directory / f"{name}-census.json")
    code = main(["experiment", *flags, "--trials", str(trials), "--seed", str(seed),
                 "--out-csv", str(paths[0]), "--out-json", str(paths[1])])
    assert code == 0
    code = main(["census", *flags, "--seed", str(seed), "--stream", str(CENSUS_STREAM),
                 "--out", str(paths[2])])
    assert code == 0
    return paths


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_outputs_match_goldens(name, tmp_path):
    for path in write_outputs(name, tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for regime in REGIMES:
        write_outputs(regime, GOLDEN)
