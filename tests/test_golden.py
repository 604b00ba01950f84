"""Byte-for-byte goldens of the `experiment` and `census` outputs, per model.

Each regime writes the experiment CSV and JSON and the census JSON of trial
CENSUS_STREAM of the same seed. After a deliberate output change, rewrite
the goldens with `PYTHONPATH=src python tests/test_golden.py` and record
the change in CHANGES.md.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from randcomplex.cli import _REGIME_KEYS, _merge_config, _regime_from, build_parser, main

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


# The float bits the goldens rest on beyond IEEE-exact arithmetic: the scaling
# rules' float powers, and the C math library's lgamma, exp and log (Poisson
# masses of the TV) and erf (normal CDF of the KS). On a platform whose libm
# rounds one of these differently, this test names the function, where the
# golden test would only show a byte diff (docs/decisions.md, section 13).
PINNED_RESOLUTIONS = {
    "cech-k3": "0x1.e22746c9ce0dbp-7",
    "er-k1": "0x1.7d43d7d45b330p-5",
    "rips-k1": "0x1.45b6568d439bdp-5",
    "rips-k2": "0x1.2777065b0d0edp-4",
}
PINNED_LIBM = {
    "lgamma(4)": "0x1.cab0bfa2a2004p+0",
    "lgamma(29)": "0x1.0f8f18d33023fp+6",
    "lgamma(151)": "0x1.2e8292d416ddep+9",
    "log(28.7)": "0x1.adaece0f28464p+1",
    "exp(28 log(28.7) - 28.7 - lgamma(29))": "0x1.3140e322dc8a1p-4",
    "erf(0.5 / sqrt(2))": "0x1.881d788cab1dbp-2",
    "erf(-1.3 / sqrt(2))": "-0x1.9ce05571df147p-1",
    "0.3 ** (1 / 3)": "0x1.56bfea66ef78dp-1",
}


def test_platform_math_matches_the_goldens_platform():
    resolved = {}
    for name, (flags, _, _) in REGIMES.items():
        args = build_parser().parse_args(["census", *flags, "--seed", "1"])
        (value,) = _regime_from(_merge_config(args, _REGIME_KEYS)).resolved_parameters().values()
        resolved[name] = value.hex()
    assert resolved == PINNED_RESOLUTIONS
    log_lam = math.log(28.7)
    libm = {
        "lgamma(4)": math.lgamma(4),
        "lgamma(29)": math.lgamma(29),
        "lgamma(151)": math.lgamma(151),
        "log(28.7)": log_lam,
        "exp(28 log(28.7) - 28.7 - lgamma(29))": math.exp(28 * log_lam - 28.7 - math.lgamma(29)),
        "erf(0.5 / sqrt(2))": math.erf(0.5 / math.sqrt(2.0)),
        "erf(-1.3 / sqrt(2))": math.erf(-1.3 / math.sqrt(2.0)),
        "0.3 ** (1 / 3)": 0.3 ** (1.0 / 3),
    }
    assert {key: value.hex() for key, value in libm.items()} == PINNED_LIBM


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for regime in REGIMES:
        write_outputs(regime, GOLDEN)
