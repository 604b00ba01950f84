"""CLI contract: subcommands, exit codes, atomic and reproducible outputs."""

from __future__ import annotations

import json
import os
import stat

import pytest

from randcomplex.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def test_experiment_er_empty_graph(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = run_cli(
        ["experiment", "--model", "er", "--n", 10, "--p", 0, "--k", 1,
         "--trials", 5, "--seed", 7, "--out-csv", csv, "--out-json", summary]
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["aggregates"]["betti_0"]["mean"] == 10.0
    assert payload["master_seed"] == 7


def test_experiment_reruns_byte_identical(tmp_path):
    args = ["experiment", "--model", "er", "--n", 12, "--p", 0.3, "--k", 1,
            "--trials", 6, "--seed", 3]
    a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_json = tmp_path / "b.csv", tmp_path / "b.json"
    assert run_cli(args + ["--out-csv", a_csv, "--out-json", a_json]) == 0
    assert run_cli(args + ["--out-csv", b_csv, "--out-json", b_json,
                           "--workers", 3]) == 0
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()


def test_experiment_cech_alpha_resolution(tmp_path):
    summary = tmp_path / "s.json"
    code = run_cli(
        ["experiment", "--model", "cech", "--k", 3, "--d", 2, "--alpha", 3,
         "--n", 500, "--trials", 2, "--seed", 1,
         "--out-csv", tmp_path / "t.csv", "--out-json", summary]
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["regime"]["resolved"]["r"] == pytest.approx((3 / 500**3) ** 0.25)


def test_experiment_requires_seed(tmp_path, capsys):
    code = run_cli(["experiment", "--model", "er", "--n", 5, "--p", 0.5, "--k", 1,
                    "--out-csv", tmp_path / "t.csv", "--out-json", tmp_path / "s.json"])
    assert code == 2
    assert "error: config" in capsys.readouterr().err


def test_invalid_regime_leaves_no_partial_files(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = run_cli(["experiment", "--model", "er", "--n", 5, "--p", 2.0, "--k", 1,
                    "--trials", 2, "--seed", 1, "--out-csv", csv, "--out-json", summary])
    assert code == 2
    assert not csv.exists() and not summary.exists()
    assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("command", ["experiment", "census"])
@pytest.mark.parametrize(
    "regime",
    [
        ["--model", "rips", "--k", 1, "--n", 0, "--alpha", 2],
        ["--model", "cech", "--k", 3, "--n", 0, "--alpha", 2],
        ["--model", "er", "--k", 1, "--n", 0, "--gamma", 0.7],
        ["--model", "rips", "--k", 1, "--n", 10, "--alpha", -1],
        ["--model", "rips", "--k", 1, "--n", 10, "--alpha", "inf"],
        ["--model", "rips", "--k", 40, "--n", 100000, "--alpha", 2],
    ],
)
def test_degenerate_scaling_is_a_config_error(tmp_path, capsys, command, regime):
    extra = {
        "experiment": ["--trials", 2, "--out-csv", tmp_path / "t.csv",
                       "--out-json", tmp_path / "s.json"],
        "census": ["--out", tmp_path / "c.json"],
    }[command]
    code = run_cli([command] + regime + ["--seed", 1] + extra)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not list(tmp_path.iterdir())


def test_huge_explicit_radius_runs_and_warns(tmp_path, capsys):
    csv, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code = run_cli(["experiment", "--model", "rips", "--k", 1, "--n", 10, "--r", "1e200",
                    "--trials", 2, "--seed", 1, "--out-csv", csv, "--out-json", summary])
    assert code == 0, capsys.readouterr().err
    payload = json.loads(summary.read_text())
    assert payload["warnings"] == ["n*r^d=inf not small: outside the sparse regime"]
    assert payload["aggregates"]["f_1"]["mean"] == 45.0  # the complete graph K10
    assert csv.read_text().splitlines()[1].startswith("trial,f_0,f_1,f_2,")


def test_sweep_rejects_infinite_radius(tmp_path, capsys):
    code = run_cli(["sweep", "--model", "rips", "--k", 1, "--n", 10, "--grid", "inf",
                    "--trials", 2, "--seed", 1, "--out", tmp_path / "w.csv"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not list(tmp_path.iterdir())


def test_explicit_parameter_at_n0_gives_empty_census(capsys):
    for regime in (["--model", "rips", "--k", 1, "--r", 0.1],
                   ["--model", "cech", "--k", 3, "--r", 0.1],
                   ["--model", "er", "--k", 1, "--p", 0.5]):
        assert run_cli(["census", "--n", 0, "--seed", 1] + regime) == 0
        census = json.loads(capsys.readouterr().out)["census"]
        assert census["f_0"] == census["betti_0"] == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "er_clique", "n": 10, "k": 1, "p": 0.0}))
    summary = tmp_path / "s.json"
    code = run_cli(["experiment", "--config", cfg, "--n", 8, "--trials", 2,
                    "--seed", 5, "--out-csv", tmp_path / "t.csv",
                    "--out-json", summary])
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["regime"]["n"] == 8  # flag wins
    assert payload["regime"]["p"] == 0.0  # file value survives
    cfg.write_text(json.dumps({"model": "er", "n": 10, "k": 1, "p": 0.0}))
    census = tmp_path / "census.json"
    assert run_cli(["census", "--config", cfg, "--seed", 5, "--out", census]) == 0
    assert json.loads(census.read_text())["regime"]["model"] == "er_clique"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "er_clique", "bogus": 1}))
    code = run_cli(["experiment", "--config", cfg, "--seed", 1,
                    "--out-csv", tmp_path / "t.csv", "--out-json", tmp_path / "s.json"])
    assert code == 2


@pytest.mark.parametrize("command", ["experiment", "sweep", "census"])
@pytest.mark.parametrize(
    "bad, key",
    [
        ({"k": "1"}, "k"), ({"n": 10.5}, "n"), ({"alpha": True}, "alpha"),
        ({"density": "foo"}, "density"),
    ],
)
def test_config_file_rejects_mistyped_values(tmp_path, capsys, command, bad, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "er", "k": 1, "n": 10, **bad}))
    extra = {
        "experiment": ["--p", 0.1, "--trials", 2, "--out-csv", tmp_path / "t.csv",
                       "--out-json", tmp_path / "s.json"],
        "sweep": ["--grid", "0.1", "--trials", 2, "--out", tmp_path / "w.csv"],
        "census": ["--p", 0.1],
    }[command]
    code = run_cli([command, "--config", cfg, "--seed", 1] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and repr(key) in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("s.json"))


def test_census_command_stdout(capsys):
    code = run_cli(["census", "--model", "rips", "--k", 1, "--d", 2,
                    "--n", 50, "--alpha", 1.0, "--seed", 11])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    census = payload["census"]
    assert "betti_1" in census and "o_comp_1" in census and "f_1_ge_5" in census
    assert payload["regime"]["resolved"]["r"] > 0
    code = run_cli(["census", "--model", "er", "--k", 1, "--n", 20, "--p", 0.2,
                    "--seed", 11])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["regime"]["model"] == "er_clique"


def test_census_command_to_file(tmp_path):
    out = tmp_path / "census.json"
    code = run_cli(["census", "--model", "cech", "--k", 3, "--d", 2, "--n", 60,
                    "--alpha", 1.0, "--seed", 2, "--out", out])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["census"]["S_iso_3"] <= payload["census"]["S_3"]


def test_output_files_follow_umask(tmp_path):
    # written through a temp file, yet with the mode open(path, "w") gives
    old = os.umask(0o022)
    try:
        csv, summary, census = (tmp_path / n for n in ("t.csv", "s.json", "c.json"))
        assert run_cli(["experiment", "--model", "er", "--n", 8, "--p", 0.3,
                        "--k", 1, "--trials", 2, "--seed", 5,
                        "--out-csv", csv, "--out-json", summary]) == 0
        assert run_cli(["census", "--model", "er", "--k", 1, "--n", 8,
                        "--p", 0.3, "--seed", 5, "--out", census]) == 0
        for path in (csv, summary, census):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    finally:
        os.umask(old)


def test_extension_types_output(capsys):
    assert run_cli(["extension-types", "--k", 1]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k=1 classes=3"
    assert len(out.splitlines()) == 4


def test_extension_types_range_check(capsys):
    assert run_cli(["extension-types", "--k", 5]) == 2
    assert "error: config" in capsys.readouterr().err


def test_estimate_mu_command(capsys):
    assert run_cli(["estimate-mu", "--k", 3, "--d", 2, "--samples", 20000,
                    "--seed", 4]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 20000
    assert payload["mu"] > 0


def test_estimate_mu_rejects_k2(capsys):
    assert run_cli(["estimate-mu", "--k", 2, "--d", 2, "--seed", 4]) == 2


@pytest.mark.parametrize("d", [0, -1])
def test_estimate_mu_rejects_nonpositive_dimension(capsys, d):
    assert run_cli(["estimate-mu", "--k", 3, "--d", d, "--samples", 10, "--seed", 1]) == 2
    assert "error: config: d must be >= 1" in capsys.readouterr().err


def test_sweep_requires_model(tmp_path, capsys):
    code = run_cli(["sweep", "--n", 10, "--grid", "0.5", "--trials", 2, "--seed", 1,
                    "--out", tmp_path / "s.csv"])
    assert code == 2
    assert "error: config: missing required parameter --model" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_rejects_negative_max_k(tmp_path, capsys):
    code = run_cli(["sweep", "--model", "er", "--n", 10, "--grid", "0.5", "--max-k", -1,
                    "--trials", 2, "--seed", 1, "--out", tmp_path / "s.csv"])
    assert code == 2
    assert "error: config: --max-k must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("command", ["experiment", "sweep"])
def test_workers_below_one_is_a_config_error(tmp_path, capsys, command, workers):
    outputs = (["--out-csv", tmp_path / "t.csv", "--out-json", tmp_path / "s.json"]
               if command == "experiment" else ["--grid", "0.5", "--out", tmp_path / "s.csv"])
    code = run_cli([command, "--model", "er", "--n", 10, "--p", 0.5, "--k", 1, "--trials", 2,
                    "--seed", 1, "--workers", workers] + outputs)
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: config: trials and workers must be >= 1, got 2 and {workers}" in err
    assert not list(tmp_path.iterdir())


def test_sweep_er_trivial_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--model", "er", "--n", 30, "--grid", "0,1",
                    "--max-k", 2, "--trials", 3, "--seed", 9, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "param,betti_0_mean,betti_1_mean,betti_2_mean"
    row0 = [float(x) for x in lines[2].split(",")]
    row1 = [float(x) for x in lines[3].split(",")]
    assert row0 == [0.0, 30.0, 0.0, 0.0]
    assert row1 == [1.0, 1.0, 0.0, 0.0]


def test_sweep_rejects_empty_grid(tmp_path):
    code = run_cli(["sweep", "--model", "er", "--n", 10, "--grid", " ",
                    "--seed", 1, "--out", tmp_path / "s.csv"])
    assert code == 2


def test_rips_edge_counts_monotone_in_r():
    # fixed points and seed: the closed edge rule is monotone in the radius
    from randcomplex import RegimeSpec, run_experiment

    means = []
    for r in (0.01, 0.02, 0.04):
        res = run_experiment(RegimeSpec(model="rips", k=1, n=50, d=2, r=r), 10, 77)
        means.append(res.means["f_1"])
    assert means[0] <= means[1] <= means[2]


def test_io_failure_exits_three(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "t.csv"
    code = run_cli(["experiment", "--model", "er", "--n", 5, "--p", 0.1, "--k", 1,
                    "--trials", 2, "--seed", 1, "--out-csv", missing_dir,
                    "--out-json", tmp_path / "s.json"])
    assert code == 3
    assert "error: io" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_sweep_er_betti_hump(tmp_path):
    # Betti curves against p: beta_1 mean rises from the sparse edge and
    # collapses again in the dense range
    out = tmp_path / "hump.csv"
    code = run_cli(["sweep", "--model", "er", "--n", 30,
                    "--grid", "0.02,0.1,0.25,0.6,0.95", "--max-k", 1,
                    "--trials", 40, "--seed", 15, "--out", out])
    assert code == 0
    rows = [
        [float(x) for x in line.split(",")]
        for line in out.read_text().splitlines()[2:]
    ]
    beta1 = [row[2] for row in rows]
    assert all(v >= 0 for v in beta1)
    peak = max(beta1[1:4])
    assert peak > beta1[0] and peak > beta1[-1]
    beta0 = [row[1] for row in rows]
    assert beta0[0] > beta0[-1]  # connectivity climbs with p


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
