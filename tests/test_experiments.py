"""Harness behavior: regimes, distances to limit laws, determinism, targets."""

from __future__ import annotations

import json
import math
import re
import statistics
import sys
from collections import Counter

import numpy as np
import pytest

from randcomplex import (
    ComponentDecomposition,
    Graph,
    MuEstimate,
    RegimeSpec,
    RngStream,
    SimplicialComplex,
    cli,
    components,
    estimate_mu,
    experiments,
    generators,
    homology,
    instance_census,
    ks_to_normal,
    run_experiment,
    theorem_targets,
    tv_to_poisson,
)
from randcomplex import census, complexes, miniball
from randcomplex.experiments import density_power_integral

from oracles import (
    instance_census_per_trial,
    poisson_pmf_direct,
    tv_between_poissons,
    tv_to_poisson_full_tail,
    tv_to_poisson_loop,
    tv_to_poisson_two_pass,
)


# ---------------------------------------------------------------------------
# Regime resolution
# ---------------------------------------------------------------------------


def test_regime_requires_exactly_one_parameter_rule():
    with pytest.raises(ValueError):
        RegimeSpec(model="er_clique", k=1, n=10)
    with pytest.raises(ValueError):
        RegimeSpec(model="er_clique", k=1, n=10, p=0.1, gamma=0.5)
    with pytest.raises(ValueError):
        RegimeSpec(model="rips", k=1, n=10, d=2)
    with pytest.raises(ValueError):
        RegimeSpec(model="nope", k=1, n=10, p=0.5)


def test_regime_resolution_formulas():
    er = RegimeSpec(model="er_clique", k=2, n=100, gamma=0.5)
    assert er.resolve_p() == pytest.approx(0.1)
    cech = RegimeSpec(model="cech", k=3, n=500, d=2, alpha=3.0)
    assert cech.resolve_r() == pytest.approx((3.0 / 500**3) ** 0.25)
    rips = RegimeSpec(model="rips", k=1, n=300, d=2, alpha=2.0)
    assert rips.resolve_r() == pytest.approx((2.0 / 300**4) ** (1.0 / 6.0))
    assert RegimeSpec(model="er_clique", k=1, n=1, gamma=0.7).resolve_p() == 1.0


def test_regime_rejects_unscaled_models():
    with pytest.raises(ValueError):
        RegimeSpec(model="cech", k=2, n=100, d=2, alpha=1.0)  # k<3
    with pytest.raises(ValueError):
        RegimeSpec(model="er_clique", k=1, n=10, p=1.5).resolve_p()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(model="rips", k=1, n=0, alpha=2.0), "needs n >= 1"),
        (dict(model="cech", k=3, n=0, alpha=2.0), "needs n >= 1"),
        (dict(model="er_clique", k=1, n=0, gamma=0.7), "needs n >= 1"),
        (dict(model="rips", k=1, n=10, alpha=-1.0), "must be positive"),
        (dict(model="cech", k=3, n=10, alpha=0.0), "must be positive"),
        (dict(model="rips", k=1, n=10, alpha=math.nan), "must be positive"),
        (dict(model="rips", k=1, n=10, alpha=math.inf), "finite"),
        (dict(model="cech", k=3, n=10, r=math.inf), "finite"),
        (dict(model="rips", k=1, n=10, r=math.nan), "finite"),
        (dict(model="er_clique", k=1, n=10, p=math.inf), "outside"),
        (dict(model="er_clique", k=1, n=10, p=math.nan), "outside"),
        (dict(model="rips", k=40, n=100_000, alpha=2.0), "float range"),
        (dict(model="er_clique", k=1, n=10, p=0.2, density="foo"), "'density' must be one of"),
        (dict(model="rips", k=1, n=10, alpha=2.0, density="Gaussian"), "'density' must be"),
        (dict(model="er_clique", k=1, n=10.5, p=0.2), "'n' must be an int"),
        (dict(model="er_clique", k=1, n=True, p=0.2), "'n' must be an int"),
        (dict(model="er_clique", k=1.0, n=10, p=0.2), "'k' must be an int"),
        (dict(model="cech", k=3, n=10, d=2.0, alpha=2.0), "'d' must be an int"),
        (dict(model="rips", k=1, n=10, d=False, alpha=2.0), "'d' must be an int"),
        (dict(model="er_clique", k=1, n=10, p=True), "'p' must be a real number"),
        (dict(model="rips", k=1, n=10, alpha="2"), "'alpha' must be a real number"),
    ],
)
def test_regime_rejects_degenerate_scaling(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RegimeSpec(**kwargs)


def test_regime_warnings():
    inside = RegimeSpec(model="er_clique", k=1, n=400, gamma=0.7)
    assert inside.regime_warnings() == ()
    low = RegimeSpec(model="er_clique", k=1, n=400, gamma=1.2)
    assert any("below" in w for w in low.regime_warnings())
    high = RegimeSpec(model="er_clique", k=1, n=400, gamma=0.3)
    assert any("above" in w for w in high.regime_warnings())
    dense = RegimeSpec(model="rips", k=1, n=400, d=2, r=0.2)
    assert any("sparse" in w for w in dense.regime_warnings())


# ---------------------------------------------------------------------------
# tv_to_poisson
# ---------------------------------------------------------------------------


def test_tv_all_zero_samples():
    assert tv_to_poisson([0] * 50, 1.0) == pytest.approx(1.0 - math.exp(-1.0))


def test_tv_exact_poisson_pmf_is_zero():
    lam = 2.0
    support = list(range(60))
    weights = [poisson_pmf_direct(j, lam) for j in support]
    assert tv_to_poisson(support, lam, weights=weights) <= 1e-9


def test_tv_shifted_pmf_matches_direct_summation():
    support = list(range(80))
    weights = [poisson_pmf_direct(j, 1.0) for j in support]
    got = tv_to_poisson(support, 2.0, weights=weights)
    assert got == pytest.approx(tv_between_poissons(1.0, 2.0), abs=1e-9)


def test_tv_on_synthetic_poisson_draws():
    gen = RngStream(404).generator()
    for lam in (0.5, 3.0, 10.0):
        samples = gen.poisson(lam, size=100_000)
        assert tv_to_poisson(samples.tolist(), lam) <= 0.01


def test_tv_large_rate_no_underflow():
    gen = RngStream(405).generator()
    samples = gen.poisson(1500.0, size=2000)
    v = tv_to_poisson(samples.tolist(), 1500.0)
    assert 0.0 < v < 0.5


def test_tv_one_pass_matches_two_loops_bit_for_bit():
    gen = RngStream(409).generator()
    lams = [1e-3, 0.1, 0.5, 1.0, 2.5, 7.0, 40.0, 3250.0, 4e4]
    for lam in lams:
        draws = gen.poisson(lam, size=25).tolist()
        weights = gen.random(25).tolist()
        cases = [
            (draws, None),
            (draws, weights),
            ([0] * 10, None),
            # samples past the cutoff, where the tail sum has already stopped
            (draws + [int(lam + 60.0 * math.sqrt(lam) + 300)], None),
            (list(range(60)), [poisson_pmf_direct(j, min(lam, 20.0)) for j in range(60)]),
        ]
        for samples, w in cases:
            assert repr(tv_to_poisson(samples, lam, weights=w)) == repr(
                tv_to_poisson_two_pass(samples, lam, weights=w)
            )


def _exp_calls(f, *args, **kwargs):
    """f(*args, **kwargs) and its count of math.exp calls, one per mass evaluated."""
    calls, exp = [], math.exp
    math.exp = lambda x: calls.append(x) or exp(x)
    try:
        return f(*args, **kwargs), len(calls)
    finally:
        math.exp = exp


def test_tv_tail_exit_matches_full_loop_bit_for_bit():
    gen = RngStream(410).generator()
    lams = sorted({1e-3, 0.3, 1.0, 40.0, 3250.3, 3860.0, 4e4} | set(10 ** gen.uniform(-3, 4.6, 20)))
    for lam in lams:
        draws = gen.poisson(lam, size=10).tolist()
        cases = [
            (draws, None),
            (draws, gen.random(10).tolist()),
            ([0] * 5, None),
            ([int(lam)] * 3, None),
            (draws + [int(lam + 60.0 * math.sqrt(lam) + 300)], None),
            (gen.poisson(1.3 * lam, size=20).tolist(), None),
        ]
        for samples, w in cases:
            assert repr(tv_to_poisson(samples, lam, weights=w)) == repr(
                tv_to_poisson_full_tail(samples, lam, weights=w)
            )
    # the exit fires where the running mass never reaches 1 - 1e-12: the masses
    # evaluated, whatever the log-factorial table already holds, run from the
    # left-tail skip to more than 1000 short of the guard
    draws = RngStream(411).generator().poisson(3860.0, size=10).tolist()
    _, masses = _exp_calls(tv_to_poisson, draws, 3860.0)
    last = experiments._left_zero_masses(3860.0, math.log(3860.0)) + masses
    assert last < 3860.0 + 40.0 * math.sqrt(3860.0) + 100 - 1000


def test_tv_blocks_match_loop_bit_for_bit(monkeypatch):
    gen = RngStream(412).generator()
    block = experiments._TV_BLOCK
    # the left-tail skip starts at the lam where the bound at j = 0 reaches the margin
    skip = experiments._ZERO_ARG / (1.0 - experiments._ARG_EPS)
    below, above = math.nextafter(skip, 0.0), math.nextafter(skip, math.inf)
    assert experiments._left_zero_masses(below, math.log(below)) == 0
    assert experiments._left_zero_masses(above, math.log(above)) == 1
    lams = sorted(
        {1e-3, 0.3, 1.0, 40.0, 799.0, below, skip, above, 801.0, 3250.3, 3860.0, 4e4}
        | set(10 ** gen.uniform(-3, 4.6, 12))
    )
    for lam in lams:
        draws = gen.poisson(lam, size=10).tolist()
        cases = [
            (draws, None),
            (draws, gen.random(10).tolist()),
            ([0] * 5, None),
            ([int(lam)] * 3, None),
            (draws + [int(lam + 60.0 * math.sqrt(lam) + 300)], None),
            (gen.poisson(1.3 * lam, size=20).tolist(), None),
            # a sample just past the end of the tail, where the masses still count
            ([int(lam), int(lam + 7.0 * math.sqrt(lam)) + 2], None),
        ]
        for samples, w in cases:
            assert repr(tv_to_poisson(samples, lam, weights=w)) == repr(
                tv_to_poisson_loop(samples, lam, weights=w)
            )
    # at lam = 2700 the running mass never reaches 1 - 1e-12, so the guard at
    # lam + 40 sqrt(lam) + 100 ends the sum; weights equal to the masses below it
    # leave only the subnormal masses at and past the guard in the total
    lam = 2700.0
    guard = math.floor(lam + 40.0 * math.sqrt(lam) + 100)
    support = list(range(guard))
    pmf = [math.exp(j * math.log(lam) - lam - math.lgamma(j + 1)) for j in support]
    assert repr(tv_to_poisson(support, lam, weights=pmf)) == repr(
        tv_to_poisson_loop(support, lam, weights=pmf)
    )
    # a table that grows mid-call, several times, from a prefix of itself
    table = experiments._log_factorials
    monkeypatch.setattr(experiments, "_log_factorials", table[:block])
    draws = gen.poisson(3860.0, size=10).tolist()
    assert repr(tv_to_poisson(draws, 3860.0)) == repr(tv_to_poisson_loop(draws, 3860.0))
    table = experiments._log_factorials
    assert len(table) > 4 * block and not table.flags.writeable
    assert table[::97].tolist() == [math.lgamma(j + 1) for j in range(0, len(table), 97)]
    # past the table's cap the log-factorials are evaluated directly, with the same bits
    monkeypatch.setattr(experiments, "_log_factorials", table[:block])
    monkeypatch.setattr(experiments, "_LOG_FACTORIALS_CAP", 4 * block)
    for samples in (draws, [3860, 9 * block]):
        assert repr(tv_to_poisson(samples, 3860.0)) == repr(tv_to_poisson_loop(samples, 3860.0))
    assert len(experiments._log_factorials) == 4 * block
    monkeypatch.undo()
    # the stop index at the first and at the last slot of a block, from the exit past
    # the largest sample at lam = 3860 and from the end of the tail at lam near 370,
    # and samples exactly at a block boundary
    edge = 9 * block
    cases = [([3860, top], 3860.0) for top in (edge - 2, edge - 1, edge, edge + block - 1)]
    cases += [([0], lam) for lam in np.linspace(366.0, 371.0, 26).tolist()]
    cases += [([block, 2 * block], 1.0), ([0, block], 40.0), ([edge], 3860.0)]
    slots = set()
    for samples, lam in cases:
        slots.add((_exp_calls(tv_to_poisson_loop, samples, lam)[1] - 1) % block)
        assert repr(tv_to_poisson(samples, lam)) == repr(tv_to_poisson_loop(samples, lam))
    assert {0, block - 1} <= slots


def test_tv_cost_stops_growing_past_the_zero_masses():
    for lam in (1.0, 3860.0):
        counts = []
        for offset in (10**3, 10**4, 10**5, 10**6):
            samples = [int(lam), int(lam) + offset]
            got, masses = _exp_calls(tv_to_poisson, samples, lam)
            counts.append(masses)
            assert repr(got) == repr(tv_to_poisson_full_tail(samples, lam))
        assert max(counts) <= lam + 40.0 * math.sqrt(lam) + 100 + experiments._TV_BLOCK
        assert counts[-1] == counts[-2]


def test_tv_small_mean_evaluates_a_short_first_block():
    # the first block ends at ceil(lam + 10 sqrt(lam) + 30) = 47, not at 512
    for samples in ([0, 1, 2, 3, 5], [0] * 5, [2, 9]):
        got, masses = _exp_calls(tv_to_poisson, samples, 2.0)
        assert masses <= 64
        assert repr(got) == repr(tv_to_poisson_loop(samples, 2.0))


def test_tv_input_validation():
    with pytest.raises(ValueError):
        tv_to_poisson([], 1.0)
    with pytest.raises(ValueError):
        tv_to_poisson([1, 2], 0.0)
    with pytest.raises(ValueError):
        tv_to_poisson([1, -2], 1.0)
    for samples in ([2.7, 3.2], [1, -0.5], [1, math.inf], [-math.inf], [math.nan, 1]):
        with pytest.raises(ValueError, match="samples must be finite non-negative integers"):
            tv_to_poisson(samples, 1.0)
    for weights in ([math.nan, 1.0], [-5.0, 1.0], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            tv_to_poisson([1, 2], 1.0, weights=weights)
    assert tv_to_poisson([2.0, 3.0, np.int64(4)], 3.0) == tv_to_poisson([2, 3, 4], 3.0)
    for lam in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            tv_to_poisson([1, 2, 3], lam)


# ---------------------------------------------------------------------------
# ks_to_normal
# ---------------------------------------------------------------------------


def test_ks_quantile_construction():
    m = 1000
    nd = statistics.NormalDist()
    samples = [nd.inv_cdf((i - 0.5) / m) for i in range(1, m + 1)]
    assert ks_to_normal(samples, 0.0, 1.0) <= 1.0 / m + 1e-6


def test_ks_point_mass_at_center():
    assert ks_to_normal([3.0] * 25, 3.0, 1.0) == pytest.approx(0.5)


def test_ks_far_shift():
    gen = RngStream(406).generator()
    samples = (gen.standard_normal(500) + 10.0).tolist()
    assert ks_to_normal(samples, 0.0, 1.0) >= 0.99


def test_ks_null_level():
    gen = RngStream(407).generator()
    samples = gen.standard_normal(100_000).tolist()
    assert ks_to_normal(samples, 0.0, 1.0) <= 0.006


def test_ks_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    gen = RngStream(408).generator()
    samples = (gen.standard_normal(400) * 1.3 + 0.2).tolist()
    mine = ks_to_normal(samples, 0.0, 1.0)
    ref = scipy_stats.kstest(samples, "norm").statistic
    assert mine == pytest.approx(ref, abs=1e-12)


def test_ks_input_validation():
    with pytest.raises(ValueError):
        ks_to_normal([], 0.0, 1.0)
    with pytest.raises(ValueError):
        ks_to_normal([1.0], 0.0, 0.0)
    for center in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="center must be finite"):
            ks_to_normal([1, 2, 3], center, 1.0)
    for scale in (math.nan, math.inf):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            ks_to_normal([1, 2, 3], 0.0, scale)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="samples must be finite"):
            ks_to_normal([1, 2, bad], 1.0, 1.0)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_er_empty_regime():
    res = run_experiment(RegimeSpec(model="er_clique", k=1, n=10, p=0.0), 5, 7)
    assert res.means["betti_0"] == 10.0
    assert res.means["betti_1"] == 0.0
    assert res.means["f_1"] == 0.0
    assert res.column("betti_0") == [10] * 5


def test_er_complete_regime():
    res = run_experiment(RegimeSpec(model="er_clique", k=2, n=10, p=1.0), 3, 7)
    assert res.means["betti_0"] == 1.0
    assert res.means["betti_1"] == 0.0
    assert res.means["betti_2"] == 0.0
    for i in range(4):
        assert res.means[f"f_{i}"] == math.comb(10, i + 1)


def test_experiment_determinism_across_workers():
    """One worker runs every trial in batches of several; more workers run chunks of fewer."""
    for spec, trials in (
        (RegimeSpec(model="rips", k=1, n=120, d=2, alpha=1.0), 10),
        (RegimeSpec(model="rips", k=2, n=150, d=2, alpha=1.0), 40),
    ):
        a = run_experiment(spec, trials, 99, workers=1)
        for workers in (2, 4):
            b = run_experiment(spec, trials, 99, workers=workers)
            assert a.per_trial == b.per_trial
            assert a.summary_json() == b.summary_json()
            assert a.trials_csv() == b.trials_csv()


def test_experiment_rerun_is_bit_identical():
    spec = RegimeSpec(model="cech", k=3, n=150, d=2, alpha=2.0)
    a = run_experiment(spec, 8, 5)
    b = run_experiment(spec, 8, 5)
    assert a.trials_csv() == b.trials_csv()
    assert a.summary_json() == b.summary_json()


def test_aggregates_recomputable_from_trials():
    spec = RegimeSpec(model="er_clique", k=1, n=25, p=0.3)
    res = run_experiment(spec, 40, 3)
    for i, name in enumerate(res.columns):
        values = [row[i] for row in res.per_trial]
        assert res.sums[name] == sum(values)
        assert res.sum_squares[name] == sum(v * v for v in values)
        assert res.means[name] == sum(values) / 40
        assert res.variances[name] == pytest.approx(np.var(values, ddof=1))


def test_summary_json_echoes_regime():
    spec = RegimeSpec(model="cech", k=3, n=100, d=2, alpha=1.0)
    res = run_experiment(spec, 3, 21)
    payload = json.loads(res.summary_json())
    assert payload["regime"]["n"] == 100
    assert payload["regime"]["resolved"]["r"] == pytest.approx(spec.resolve_r())
    assert payload["master_seed"] == 21
    assert payload["trials"] == 3
    header = res.trials_csv().splitlines()[0]
    assert header.startswith("# config:")
    assert json.loads(header[len("# config:") :])["regime"]["n"] == 100


def test_trial_columns_per_model():
    er = run_experiment(RegimeSpec(model="er_clique", k=1, n=12, p=0.2), 2, 1)
    assert er.columns == ("f_0", "f_1", "f_2", "betti_0", "betti_1")
    cech = run_experiment(RegimeSpec(model="cech", k=3, n=60, d=2, alpha=1.0), 2, 1)
    assert set(cech.columns) >= {"S_3", "S_iso_3", "Y_3", "Z_3", "betti_1"}
    rips = run_experiment(RegimeSpec(model="rips", k=1, n=60, d=2, alpha=1.0), 2, 1)
    assert set(rips.columns) >= {"o_1", "o_comp_1", "f_1_ge_5", "t1", "t2", "t3"}


def test_run_experiment_validation():
    with pytest.raises(ValueError):
        run_experiment(RegimeSpec(model="er_clique", k=1, n=10, p=0.5), 0, 1)


# ---------------------------------------------------------------------------
# theorem_targets
# ---------------------------------------------------------------------------


def test_er_targets_bracket_monte_carlo():
    # exact sandwich [E f_1 - E f_0 - E f_2, E f_1] brackets the mean of beta_1
    spec = RegimeSpec(model="er_clique", k=1, n=100, p=0.05)
    targets = theorem_targets(spec)
    assert targets["expected_f_k"] == pytest.approx(4950 * 0.05)
    assert targets["betti_expectation_lower"] == pytest.approx(
        4950 * 0.05 - 100 - math.comb(100, 3) * 0.05**3
    )
    res = run_experiment(spec, 300, 17)
    mean_b1 = res.means["betti_1"]
    se = math.sqrt(res.variances["betti_1"] / 300)
    assert targets["betti_expectation_lower"] - 3 * se <= mean_b1
    assert mean_b1 <= targets["betti_expectation_upper"] + 3 * se


def test_er_targets_zero_p():
    spec = RegimeSpec(model="er_clique", k=1, n=20, p=0.0)
    targets = theorem_targets(spec)
    assert targets["expected_f_k"] == 0.0
    assert targets["betti_expectation_upper"] == 0.0


def test_cech_targets_require_k3():
    # the harness already rejects cech k<3 at regime construction
    with pytest.raises(ValueError):
        RegimeSpec(model="cech", k=2, n=100, d=2, alpha=1.0)


def test_cech_targets_need_mu_source():
    spec = RegimeSpec(model="cech", k=3, n=100, d=2, alpha=1.0)
    with pytest.raises(ValueError):
        theorem_targets(spec)


def test_rips_targets_scaling():
    spec = RegimeSpec(model="rips", k=1, n=300, d=2, alpha=2.0)
    targets = theorem_targets(spec)
    assert targets["scaling"] == pytest.approx(2.0, rel=1e-9)


def test_targets_read_an_overflowing_scaling_as_infinity():
    import mpmath

    rips = RegimeSpec(model="rips", k=1, n=10, r=1e200)
    assert theorem_targets(rips) == {"scaling": math.inf}
    cech = RegimeSpec(model="cech", k=3, n=10, r=1e200)
    big = theorem_targets(cech, mu_estimate=MuEstimate(0.7, 0.01, 1000, 50))
    assert big["scaling"] == big["expected_isolated_empty"] == math.inf
    assert big["expected_isolated_empty_std_error"] == math.inf
    # a vanishing estimate stays 0 under the infinite scaling, never NaN
    zero = theorem_targets(cech, mu_estimate=MuEstimate(0.0, 0.0, 1000, 0))
    assert zero["expected_isolated_empty"] == zero["expected_isolated_empty_std_error"] == 0.0
    # the scaling overflows while the gaussian factor underflows to 0.0
    mu = MuEstimate(0.7, 0.01, 1000, 50)
    for r in (1e200, 4.0):
        wide = RegimeSpec(model="cech", k=3, n=10, d=400, r=r, density="gaussian")
        got = theorem_targets(wide, mu_estimate=mu)["expected_isolated_empty"]
        exact = (
            mpmath.mpf(10) ** 3 * mpmath.mpf(r) ** 800 * 0.7
            / ((2 * mpmath.pi) ** 400 * mpmath.mpf(3) ** 200 * 6)
        )
        assert got == (math.inf if exact > 1e308 else pytest.approx(float(exact), rel=1e-9))


def test_density_power_integral_values():
    assert density_power_integral("uniform_cube", 3, 4) == 1.0
    # one-dimensional gaussian: int phi^2 = 1/(2 sqrt(pi))
    assert density_power_integral("gaussian", 1, 2) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi))
    )
    with pytest.raises(ValueError):
        density_power_integral("nope", 2, 2)


def test_cech_prediction_matches_empty_simplex_mean():
    # the alpha*mu/k! prediction is the common limit of E[S] and E[S_iso];
    # at n=500 the raw empty-simplex count S has converged, while isolation
    # still carries an O(n r^d) finite-size factor that keeps S_iso well
    # below the shared limit (see docs/decisions.md, section 4)
    spec = RegimeSpec(model="cech", k=3, n=500, d=2, alpha=3.0)
    mu = estimate_mu(3, 2, 600_000, RngStream(51))
    targets = theorem_targets(spec, mu_estimate=mu)
    res = run_experiment(spec, 600, 52)
    mean_s = res.means["S_3"]
    se_s = math.sqrt(res.variances["S_3"] / 600)
    combined = math.hypot(se_s, targets["expected_isolated_empty_std_error"])
    assert abs(mean_s - targets["expected_isolated_empty"]) <= 3 * combined
    assert res.means["S_iso_3"] <= mean_s


def test_cech_isolation_ratio_improves_with_n():
    # the S_iso/S ratio must drift toward 1 as n grows at fixed alpha
    small = run_experiment(RegimeSpec(model="cech", k=3, n=300, d=2, alpha=3.0), 500, 53)
    large = run_experiment(RegimeSpec(model="cech", k=3, n=1500, d=2, alpha=3.0), 500, 53)
    ratio_small = small.means["S_iso_3"] / small.means["S_3"]
    ratio_large = large.means["S_iso_3"] / large.means["S_3"]
    assert ratio_large > ratio_small


# ---------------------------------------------------------------------------
# instance census
# ---------------------------------------------------------------------------


def test_instance_census_er():
    spec = RegimeSpec(model="er_clique", k=1, n=15, p=0.2)
    row = instance_census(spec, RngStream(3))
    assert row["f_0"] == 15
    assert "betti_1" in row


def test_instance_census_cech_counters_and_keys():
    spec = RegimeSpec(model="cech", k=3, n=80, d=2, alpha=1.0)
    row = instance_census(spec, RngStream(4))
    assert list(row) == [
        "f_0", "f_1", "f_2", "betti_0", "betti_1", "euler", "S_3", "S_iso_3", "Y_3", "Z_3",
    ]
    assert row["S_iso_3"] <= row["S_3"]


def test_instance_census_rips_keys():
    spec = RegimeSpec(model="rips", k=1, n=80, d=2, alpha=1.0)
    row = instance_census(spec, RngStream(5))
    assert list(row) == [
        "f_0", "f_1", "f_2", "betti_0", "betti_1", "euler",
        "o_1", "o_comp_1", "f_1_ge_1", "f_1_ge_5", "t1", "t2", "t3",
    ]
    assert row["f_1_ge_1"] == row["f_1"]
    assert row["f_1_ge_5"] <= row["f_1"] and row["o_comp_1"] <= row["o_1"]


def test_instance_census_euler_only_when_full_dimension():
    sparse = instance_census(RegimeSpec(model="er_clique", k=1, n=12, p=0.05), RngStream(6))
    assert sparse["euler"] is not None  # no triangles at this density
    dense = instance_census(RegimeSpec(model="er_clique", k=1, n=20, p=0.9), RngStream(6))
    assert dense["euler"] is None  # cap at dim 2 cuts off real higher faces


# ---------------------------------------------------------------------------
# One pipeline: experiment rows are projected instance censuses
# ---------------------------------------------------------------------------


PIPELINE_SPECS = {
    "er": RegimeSpec(model="er_clique", k=1, n=40, p=0.1),
    "cech": RegimeSpec(model="cech", k=3, n=150, d=2, alpha=2.0),
    "rips-k1": RegimeSpec(model="rips", k=1, n=100, d=2, alpha=2.0),
    "rips-k2": RegimeSpec(model="rips", k=2, n=60, d=2, alpha=1.0),
}


def _trial_projection(row: dict) -> dict:
    return {
        key: v
        for key, v in row.items()
        if key != "euler" and not re.fullmatch(r"f_\d+_ge_1", key)
    }


@pytest.mark.parametrize("name", sorted(PIPELINE_SPECS))
def test_trial_row_is_projected_instance_census(name):
    spec = PIPELINE_SPECS[name]
    res = run_experiment(spec, 4, 31)
    for t in range(4):
        row = _trial_projection(instance_census(spec, RngStream(31, t)))
        assert tuple(row) == res.columns
        assert tuple(row.values()) == res.per_trial[t]


_UNION_FIND, _RANKS = homology._rank_d1, homology._ranks


def _trial_tally(vertex_count: int, name: str, value: int) -> np.ndarray:
    """A per-vertex tally of a union of trials of PIPELINE_SPECS[name] that folds to
    `value` in each trial: `value` at each trial's first vertex."""
    tally = np.zeros(vertex_count, dtype=np.int64)
    tally[:: PIPELINE_SPECS[name].n] = value
    return tally


def _top_rank_below_zero(c, top, q):
    """The ranks as counted, with rank d_top a billion below zero in each trial: beta_{top-1}
    exceeds f_{top-1}, a Morse violation, while every Betti number stays >= 0."""
    ranks = _RANKS(c, top, q)
    ranks[top] -= _trial_tally(c.vertex_count, "er", 10**9)
    return ranks


def _s_iso_above_s(c, g, k):
    """S_iso as counted, and S one below it in each trial: the Cech sandwich still holds."""
    _, s_iso = census._empty_simplex_counts(c, g, k)
    return s_iso - _trial_tally(g.vertex_count, "cech", 1), s_iso


def _o_comp_above_o(g, k):
    """o_comp as counted, and o one below it in each trial: the Rips sandwich still holds."""
    _, o_comp = census._cross_polytope_counts(g, k)
    return o_comp - _trial_tally(g.vertex_count, "rips-k1", 1), o_comp


@pytest.mark.parametrize(
    "name, counter, fake, message",
    [
        ("er", "experiments._ranks", _top_rank_below_zero, "Morse violation"),
        ("cech", "experiments.y_count", lambda g, k: -(10**9), "Cech sandwich violation"),
        ("rips-k1", "experiments._cross_polytope_counts",
         lambda g, k: (_trial_tally(g.vertex_count, "rips-k1", 10**9),) * 2,
         "Rips sandwich violation"),
        ("rips-k1", "experiments._tree_counts", lambda g: (np.zeros(g.vertex_count, int),) * 3,
         "tree bound violation"),
        ("rips-k2", "experiments._faces_on_large_components",
         lambda c, g, k, i: _trial_tally(c.vertex_count, "rips-k2", 10**9),
         "census inconsistency: f_2_ge_7=1000000000 exceeds f_2="),
        ("cech", "experiments._empty_simplex_counts", _s_iso_above_s,
         "census inconsistency: S_iso_3=0 exceeds S_3=-1"),
        ("rips-k1", "experiments._cross_polytope_counts", _o_comp_above_o,
         "census inconsistency: o_comp_1=0 exceeds o_1=-1"),
        ("er", "homology._rank_d1",
         lambda c: _UNION_FIND(c) - _trial_tally(c.vertex_count, "er", 1),
         "beta_0=.* disagrees with component count"),
        ("cech", "experiments.components",
         lambda g: ComponentDecomposition(*np.zeros((2, g.vertex_count), np.int64)),
         "beta_0=.* disagrees with component count 0"),
    ],
    ids=["er-morse", "cech-sandwich", "rips-sandwich", "rips-tree-bound",
         "rips-consistency", "cech-s-iso-above-s", "rips-o-comp-above-o",
         "beta0-union-find", "beta0-components"],
)
def test_bound_violations_raise(monkeypatch, name, counter, fake, message):
    spec = PIPELINE_SPECS[name]
    monkeypatch.setattr(f"randcomplex.{counter}", fake)
    with pytest.raises(AssertionError, match=message):
        instance_census(spec, RngStream(31, 0))
    with pytest.raises(AssertionError, match=message):
        run_experiment(spec, 2, 31)


def test_violation_names_trial_and_reproducing_census(monkeypatch, capsys):
    spec = PIPELINE_SPECS["cech"]
    monkeypatch.setattr(experiments, "y_count", lambda g, k: -(10**9))
    with pytest.raises(AssertionError) as exc:
        run_experiment(spec, 3, 31)
    text = str(exc.value)
    assert "(master_seed=31, trial=0)" in text
    argv = text.split("reproduce with: ", 1)[1].split()
    assert argv[:2] == ["randcomplex", "census"]
    assert argv[-4:] == ["--seed", "31", "--stream", "0"]
    # the command rebuilds the failing trial, so it fails the same way
    assert cli.main(argv[1:]) == 3
    assert "Cech sandwich violation" in capsys.readouterr().err
    monkeypatch.undo()
    assert cli.main(argv[1:]) == 0
    census = json.loads(capsys.readouterr().out)["census"]
    clean = run_experiment(spec, 1, 31)
    assert tuple(census[c] for c in clean.columns) == clean.per_trial[0]


def test_runtime_error_names_trial_and_reproducing_census(monkeypatch):
    # a million pivots with low row 0, a face of trial 0, make its Betti number negative
    monkeypatch.setattr(homology, "_pivot_lows", lambda cols, q, cleared: [0] * 10**6)
    with pytest.raises(RuntimeError) as exc:
        run_experiment(PIPELINE_SPECS["rips-k2"], 2, 31)
    text = str(exc.value)
    assert "negative Betti number" in text and "(master_seed=31, trial=0)" in text
    assert text.split("reproduce with: ", 1)[1].startswith("randcomplex census --model rips")
    assert text.endswith("--seed 31 --stream 0")


@pytest.mark.parametrize("name", ["cech", "rips-k1", "er", "rips-k2"])
def test_trial_builds_each_structure_once(monkeypatch, name):
    """One graph g with one component pass and one clique expansion; Rips adds one pair graph.
    A batch builds one graph per trial, then expands and decomposes their union once."""
    built, expanded, decomposed = [], [], []
    decomposition = ComponentDecomposition
    expand, from_edges = generators._clique_faces, Graph.from_edges

    def counted_decomposition(*args):
        decomposed.append(args)
        return decomposition(*args)

    def counted_expand(g, max_dim):
        expanded.append(g)
        return expand(g, max_dim)

    def counted_from_edges(vertex_count, edges):
        built.append(from_edges(vertex_count, edges))
        return built[-1]

    monkeypatch.setattr("randcomplex.complexes.ComponentDecomposition", counted_decomposition)
    monkeypatch.setattr(generators, "_clique_faces", counted_expand)
    monkeypatch.setattr(Graph, "from_edges", staticmethod(counted_from_edges))
    spec = PIPELINE_SPECS[name]
    row = instance_census(spec, RngStream(31, 0))
    # g first, then the pair graph of cross_polytope_counts; each expanded once, in that order
    assert len(built) == (2 if spec.model == "rips" else 1)
    assert [id(e) for e in expanded] == [id(b) for b in built]
    assert len(decomposed) == 1
    # a batch of five: five graphs, and one union that is expanded and decomposed once;
    # Rips adds the union's pair graph, and Cech counts Y and Z on each trial's graph
    built.clear(), expanded.clear(), decomposed.clear()
    monkeypatch.setattr(experiments, "_BATCH_BUDGET", 10**12)
    res = run_experiment(spec, 5, 31)
    assert len(built) == (6 if spec.model == "rips" else 5)
    assert expanded[0].vertex_count == 5 * spec.n
    rest = built if spec.model == "cech" else built[5:]
    assert [id(e) for e in expanded[1:]] == [id(b) for b in rest]
    assert len(decomposed) == 1
    monkeypatch.undo()
    assert row == instance_census(spec, RngStream(31, 0))
    assert res.per_trial == run_experiment(spec, 5, 31).per_trial


@pytest.mark.parametrize("name", sorted(PIPELINE_SPECS))
def test_only_rips_trials_take_betti_numbers_from_the_core(monkeypatch, name):
    calls = []
    collapse = experiments.strong_collapse_core

    def counted(c, g):
        calls.append(c)
        return collapse(c, g)

    monkeypatch.setattr(experiments, "strong_collapse_core", counted)
    row = instance_census(PIPELINE_SPECS[name], RngStream(31, 0))
    assert len(calls) == (PIPELINE_SPECS[name].model == "rips")
    monkeypatch.undo()
    assert row == instance_census(PIPELINE_SPECS[name], RngStream(31, 0))


def test_core_that_loses_a_component_fails_the_beta0_check(monkeypatch):
    collapse = experiments.strong_collapse_core

    def lossy(c, g):
        core = collapse(c, g)
        label = components(g).label
        kept = label != label[core.faces[0][0, 0]]  # every core vertex but one component's
        return SimplicialComplex(
            c.vertex_count, tuple(layer[kept[layer].all(1)] for layer in core.faces), c.max_dim
        )

    monkeypatch.setattr(experiments, "strong_collapse_core", lossy)
    for name in ("rips-k1", "rips-k2"):
        with pytest.raises(AssertionError, match="beta_0=.* disagrees with component count"):
            instance_census(PIPELINE_SPECS[name], RngStream(31, 0))


# Rips regimes outside the sparse one, where one collapse round leaves the most behind
DENSE_RIPS_SPECS = {
    "d3": RegimeSpec(model="rips", k=1, n=150, d=3, alpha=1e3),
    "d1": RegimeSpec(model="rips", k=2, n=200, d=1, r=0.02),
    "gaussian": RegimeSpec(model="rips", k=1, n=500, d=2, alpha=200.0, density="gaussian"),
    "alpha100": RegimeSpec(model="rips", k=2, n=300, d=2, alpha=100.0),
}


@pytest.mark.parametrize("name", sorted(DENSE_RIPS_SPECS))
def test_dense_rips_rows_equal_those_of_the_full_complex(monkeypatch, name):
    spec = DENSE_RIPS_SPECS[name]
    assert any("outside the sparse regime" in note for note in spec.regime_warnings())
    deleted = []
    collapse = experiments.strong_collapse_core

    def counted(c, g):
        core = collapse(c, g)
        deleted.append(len(c.faces[0]) - len(core.faces[0]))
        return core

    monkeypatch.setattr(experiments, "strong_collapse_core", counted)
    rows = [instance_census(spec, RngStream(5, t)) for t in range(3)]
    assert min(deleted) > 0
    monkeypatch.setattr(experiments, "strong_collapse_core", lambda c, g: c)
    assert rows == [instance_census(spec, RngStream(5, t)) for t in range(3)]


# The two builders of per-vertex adjacency in `src/`: neighbour rows of the data
# graph, and the adjacency sets of a census pattern.
PER_VERTEX_BUILDERS = {
    "neighbor_sets": (census, "_neighbor_sets"),
    "adjacency": (census.CanonicalGraph, "adjacency_sets"),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_SPECS))
@pytest.mark.parametrize("memo", ["adjacency", "neighbor_sets"])
def test_trial_reads_no_per_vertex_memo(monkeypatch, memo, name):
    """Every counter reads the edge keys: no trial builds neighbour rows or frozensets.

    `census._neighbor_sets` is the one builder of a graph's neighbour rows;
    `CanonicalGraph.adjacency_sets` builds a pattern's, for the enumerating census.
    """
    callers = []
    owner, attr = PER_VERTEX_BUILDERS[memo]
    build = getattr(owner, attr)

    def counted(g):
        callers.append(sys._getframe(1).f_code.co_name)
        return build(g)

    monkeypatch.setattr(owner, attr, counted)
    instance_census(PIPELINE_SPECS[name], RngStream(31, 0))
    assert callers == []


def test_cech_trial_tests_balls_only_inside_cech_complex(monkeypatch):
    """S and S_iso are read off the built complex: no second ball test.

    A ball test is one set passed to `enclosing_radius`, the one radius
    kernel; the sets are counted by size wherever the kernel is called.
    """
    sets = Counter()
    kernel = miniball.enclosing_radius

    def counted(P):
        sets[np.shape(P)[1]] += len(P)
        return kernel(P)

    for module in (miniball, generators, census):
        monkeypatch.setattr(module, "enclosing_radius", counted)
    for spec in (PIPELINE_SPECS["cech"], RegimeSpec(model="cech", k=4, n=120, d=3, alpha=5.0)):
        sets.clear()
        instance_census(spec, RngStream(31, 0))
        in_trial = dict(sets)
        sets.clear()
        pts = generators.sample_points(
            spec.n, generators.DensitySpec(spec.density, spec.d), RngStream(31, 0)
        )
        r = spec.resolve_r()
        generators.cech_complex(pts, r, spec.k - 1, graph=generators.geometric_graph(pts, r))
        assert in_trial == dict(sets)
        # sets of 3 up to k points: every layer the complex holds, none beyond
        assert sorted(sets) == list(range(3, spec.k + 1)) and all(sets.values())


# ---------------------------------------------------------------------------
# Trials in batches: one disjoint union per batch (docs/decisions.md, section 16)
# ---------------------------------------------------------------------------


DEGENERATE_SPECS = {
    "er-n0": RegimeSpec(model="er_clique", k=1, n=0, p=0.5),
    "er-n1": RegimeSpec(model="er_clique", k=1, n=1, p=1.0),
    "er-p0": RegimeSpec(model="er_clique", k=2, n=12, p=0.0),
    "er-p1": RegimeSpec(model="er_clique", k=2, n=7, p=1.0),
    "rips-n0": RegimeSpec(model="rips", k=1, n=0, d=2, r=0.1),
    "rips-n1": RegimeSpec(model="rips", k=2, n=1, d=2, r=0.1),
    "cech-n0": RegimeSpec(model="cech", k=3, n=0, d=2, r=0.1),
    "cech-n1": RegimeSpec(model="cech", k=3, n=1, d=2, r=0.1),
}
BATCH_SPECS = {
    **PIPELINE_SPECS,
    **{f"dense-{name}": spec for name, spec in DENSE_RIPS_SPECS.items()},
    **DEGENERATE_SPECS,
}


def _batch_sizes(monkeypatch) -> list[int]:
    """The number of trials of every batch that `_batch_counts` takes from now on."""
    sizes = []
    batch_counts = experiments._batch_counts

    def counted(spec, instances):
        sizes.append(len(instances))
        return batch_counts(spec, instances)

    monkeypatch.setattr(experiments, "_batch_counts", counted)
    return sizes


def _weight(spec: RegimeSpec, seed: int, t: int) -> int:
    """The vertices plus edges of trial t's graph, which a batch budget counts."""
    return spec.n + experiments._instance(spec, RngStream(seed, t))[0].edge_count


@pytest.mark.parametrize("name", sorted(BATCH_SPECS))
def test_batched_rows_equal_the_per_trial_oracle(monkeypatch, name):
    """Batches of one, of seven and of every trial give the oracle's rows, trial by trial."""
    spec, trials, seed = BATCH_SPECS[name], 9, 17
    oracle = [instance_census_per_trial(spec, RngStream(seed, t)) for t in range(trials)]
    assert [instance_census(spec, RngStream(seed, t)) for t in range(trials)] == oracle
    seven = sum(_weight(spec, seed, t) for t in range(7))
    sizes = _batch_sizes(monkeypatch)
    for budget, first in ((-1, 1), (seven, 7), (10**12, trials)):
        sizes.clear()
        monkeypatch.setattr(experiments, "_BATCH_BUDGET", budget)
        res = run_experiment(spec, trials, seed)
        assert sizes[0] == first or spec.n == 0  # an empty graph weighs nothing
        assert sum(sizes) == trials
        for t, row in enumerate(oracle):
            projected = _trial_projection(row)
            assert res.columns == tuple(projected), (t, budget)
            assert res.per_trial[t] == tuple(projected.values()), (t, budget)


BENCHMARK_SPECS = {
    "cech-k3-n2000": RegimeSpec(model="cech", k=3, n=2000, d=2, alpha=3.0),
    "rips-k1-n500": RegimeSpec(model="rips", k=1, n=500, d=2, alpha=2.0),
    "er-k1-n400": RegimeSpec(model="er_clique", k=1, n=400, gamma=0.7),
    "rips-k2-n150": RegimeSpec(model="rips", k=2, n=150, d=2, alpha=1.0),
}
TALLIED_SPECS = {**BENCHMARK_SPECS, "dense-d3": DENSE_RIPS_SPECS["d3"]}  # o_1 > 0 there
TALLIES = {
    "cech-k3-n2000": ["_face_tally", "_rank_d1", "_ranks", "_empty_simplex_counts"],
    "rips-k1-n500": ["_face_tally", "_face_tally", "_rank_d1", "_ranks", "_cross_polytope_counts",
                     "_faces_on_large_components", "_tree_counts"],
    "er-k1-n400": ["_face_tally", "_rank_d1", "_ranks"],
    "rips-k2-n150": ["_face_tally", "_face_tally", "_rank_d1", "_ranks",
                     "_cross_polytope_counts", "_faces_on_large_components"],
}
TALLIES["dense-d3"] = TALLIES["rips-k1-n500"]


_TALLYING = [(homology, "_rank_d1")] + [
    (experiments, name)
    for name in ("_face_tally", "_ranks", "_empty_simplex_counts", "_cross_polytope_counts",
                 "_faces_on_large_components", "_tree_counts")
]


def _tallies(spec: RegimeSpec, instances: list) -> list[tuple[str, np.ndarray]]:
    """Each per-vertex tally that `_batch_counts` takes of the union of `instances`, in
    call order, as (counter, rows of the tally)."""
    taken = []
    with pytest.MonkeyPatch.context() as m:
        for module, name in _TALLYING:
            def taking(*args, name=name, counter=getattr(module, name)):
                tally = counter(*args)
                taken.append((name, np.vstack(tally if isinstance(tally, tuple) else [tally])))
                return tally

            m.setattr(module, name, taking)
        experiments._batch_counts(spec, instances)
    return taken


@pytest.mark.parametrize("name", sorted(TALLIED_SPECS))
def test_union_tallies_are_the_trials_tallies_side_by_side(name):
    """The union of a batch is block-diagonal (docs/decisions.md, section 16): each counter's
    tally of the union is, vertex by vertex, its trials' own tallies one after another."""
    spec = TALLIED_SPECS[name]
    instances = [experiments._instance(spec, RngStream(53, t)) for t in range(3)]
    union = _tallies(spec, instances)
    alone = [_tallies(spec, [instance]) for instance in instances]
    assert [counter for counter, _ in union] == TALLIES[name]
    for i, (counter, tally) in enumerate(union):
        assert tally.shape[1] == 3 * spec.n, counter
        # no O_k on these benchmark trials; dense-d3 has thousands
        assert np.any(tally) or counter == "_cross_polytope_counts" and name in BENCHMARK_SPECS
        side_by_side = np.hstack([trial[i][1] for trial in alone])
        fold = [complexes._fold(a, 3, spec.n) for a in (tally, side_by_side)]
        assert np.array_equal(*fold), counter
        # how many propagation rounds rank d_1 runs depends on the whole union, so its
        # tally moves between the vertices of a trial; only the trial's sum is its own
        rows = slice(2, None) if counter in ("_rank_d1", "_ranks") else slice(None)
        assert np.array_equal(tally[rows], side_by_side[rows]), counter


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def test_pool_has_at_most_one_worker_per_chunk(monkeypatch):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
    spec = PIPELINE_SPECS["er"]
    _SerialPool.sizes.clear()
    res = run_experiment(spec, 3, 4, workers=5000)  # three chunks of one trial
    assert _SerialPool.sizes == [3]
    run_experiment(spec, 64, 4, workers=2)  # 16 chunks of four trials
    assert _SerialPool.sizes == [3, 2]
    assert res.trials_csv() == run_experiment(spec, 3, 4).trials_csv()


def test_violation_in_a_batch_names_its_first_trial(monkeypatch, capsys):
    """Trials 5 and 9 of a 12-trial batch fail the Cech sandwich; the error names trial 5,
    and its census command rebuilds trial 5 alone and fails the same way."""
    spec, seed = PIPELINE_SPECS["cech"], 31
    marked = {experiments._instance(spec, RngStream(seed, t))[0] for t in (5, 9)}
    y_count = experiments.y_count
    broken = lambda g, k: -(10**9) if g in marked else y_count(g, k)  # noqa: E731
    sizes = _batch_sizes(monkeypatch)
    monkeypatch.setattr(experiments, "_BATCH_BUDGET", 10**12)
    monkeypatch.setattr(experiments, "y_count", broken)
    with pytest.raises(AssertionError, match="Cech sandwich violation") as exc:
        run_experiment(spec, 12, seed)
    assert sizes == [12]
    text = str(exc.value)
    assert "(master_seed=31, trial=5)" in text
    argv = text.split("reproduce with: ", 1)[1].split()
    assert argv[-4:] == ["--seed", "31", "--stream", "5"]
    assert cli.main(argv[1:]) == 3
    assert "Cech sandwich violation" in capsys.readouterr().err
    assert cli.main(argv[1:-1] + ["9"]) == 3
    assert cli.main(argv[1:-1] + ["4"]) == 0
