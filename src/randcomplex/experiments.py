"""Monte Carlo harness: seeded regime trials, aggregates, and limit distances.

Trial t of an experiment always draws from RngStream(master_seed, t), its
counts are its own in whatever batch of trials it runs, and aggregation is
an ordered fold over trial index, so results are identical for any worker
count and any completion order. Integer statistics are
summed exactly; floating point enters only in derived means and distances.
"""

from __future__ import annotations

import bisect
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .census import (
    MuEstimate,
    _cross_polytope_counts,
    _empty_simplex_counts,
    _faces_on_large_components,
    _tree_counts,
    er_expected_faces,
    estimate_mu,
    strong_collapse_core,
    y_count,
    z_count,
)
from .complexes import Graph, PointCloud, _by_trial, _disjoint_union, _face_counts, components
from .generators import (
    DENSITY_KINDS,
    DensitySpec,
    RngStream,
    cech_complex,
    clique_complex,
    gen_er_graph,
    geometric_graph,
    sample_points,
)
from .homology import DEFAULT_PRIME, _betti_vector, _ranks, require_prime_field

MODELS = ("er_clique", "cech", "rips")


def _scaling(n_power: int, r: float, r_exponent: int) -> float:
    """n_power * r**r_exponent, read as infinity when a huge r overflows the float range."""
    try:
        return n_power * r**r_exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RegimeSpec:
    """One parameter regime: model, target degree, size, and scaling rule.

    Exactly one of the explicit parameter (p or r) and the scaling rule
    (gamma for ER: p = n^-gamma; alpha for the geometric models) must be
    given. The alpha rules pin the size/radius combinations under which
    the Betti counts have Poisson limits: n^k r^(d(k-1)) -> alpha for
    Cech, n^(2k+2) r^(d(2k+1)) -> alpha for Rips.
    """

    model: str
    k: int
    n: int
    d: int = 2
    p: float | None = None
    r: float | None = None
    gamma: float | None = None
    alpha: float | None = None
    density: str = "uniform_cube"
    field_prime: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("k", "n", "d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"'{name}' must be an int, got {value!r}")
        for name in ("p", "r", "gamma", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, type(None))):
                raise ValueError(f"'{name}' must be a real number, got {value!r}")
        if self.density not in DENSITY_KINDS:
            raise ValueError(f"'density' must be one of {DENSITY_KINDS}, got {self.density!r}")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        require_prime_field(self.field_prime)
        if self.model == "er_clique":
            if self.k < 0:
                raise ValueError("k must be >= 0")
            if (self.p is None) == (self.gamma is None):
                raise ValueError("give exactly one of p or gamma")
        else:
            if self.d < 1:
                raise ValueError("d must be >= 1")
            if (self.r is None) == (self.alpha is None):
                raise ValueError("give exactly one of r or alpha")
            if self.model == "cech" and self.k < 3:
                raise ValueError("cech regime needs k >= 3 (Y/Z attachments)")
            if self.model == "rips" and self.k < 1:
                raise ValueError("rips regime needs k >= 1")
        if self.n < 1 and (self.gamma is not None or self.alpha is not None):
            raise ValueError("a scaling rule (gamma or alpha) needs n >= 1; give p or r")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError(f"alpha={self.alpha} must be positive")
        try:
            self.resolved_parameters()  # p in [0, 1], r positive and finite
        except OverflowError as exc:  # a power of n in the scaling rule exceeds the float range
            raise ValueError(f"resolved parameter outside the float range ({exc})") from None

    def resolve_p(self) -> float:
        if self.model != "er_clique":
            raise ValueError("p applies to the er_clique model")
        p = self.p if self.p is not None else self.n ** (-self.gamma)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"resolved p={p} outside [0, 1]")
        return p

    def resolve_r(self) -> float:
        if self.model == "er_clique":
            raise ValueError("r applies to the geometric models")
        if self.r is not None:
            r = self.r
        elif self.model == "cech":
            r = (self.alpha / self.n**self.k) ** (1.0 / (self.d * (self.k - 1)))
        else:
            r = (self.alpha / self.n ** (2 * self.k + 2)) ** (
                1.0 / (self.d * (2 * self.k + 1))
            )
        if not (r > 0 and math.isfinite(r)):
            raise ValueError(f"resolved r={r} must be positive and finite")
        return r

    def resolved_parameters(self) -> dict:
        if self.model == "er_clique":
            return {"p": self.resolve_p()}
        return {"r": self.resolve_r()}

    def record(self) -> dict:
        """The regime as every output writes it: its fields and the resolved p or r."""
        return {**asdict(self), "resolved": self.resolved_parameters()}

    def regime_warnings(self) -> tuple[str, ...]:
        """Flags for hypotheses of the limit theorems that the size violates."""
        notes = []
        if self.model == "er_clique" and self.k >= 1 and self.n > 1:
            p = self.resolve_p()
            if p <= self.n ** (-1.0 / self.k):
                notes.append(
                    f"p={p:.6g} <= n^(-1/k): below the CLT regime lower edge"
                )
            if self.k >= 1 and p >= self.n ** (-1.0 / (self.k + 1)):
                notes.append(
                    f"p={p:.6g} >= n^(-1/(k+1)): above the CLT regime upper edge"
                )
        if self.model in ("cech", "rips"):
            density_mass = _scaling(self.n, self.resolve_r(), self.d)
            if density_mass > 0.5:
                notes.append(
                    f"n*r^d={density_mass:.4g} not small: outside the sparse regime"
                )
        return tuple(notes)


# ---------------------------------------------------------------------------
# The trial pipeline, on batches of trials
# ---------------------------------------------------------------------------


# Vertices plus edges that the graphs of one batch hold at most (docs/decisions.md, section 16)
_BATCH_BUDGET = 4096
_KEY_BOUND = 2**63  # every face key f_d * N of a batch's union stays below it


def _assert_morse(f: tuple[int, ...], betti: tuple[int, ...]) -> None:
    for k, b in enumerate(betti):
        lower = f[k] - (f[k - 1] if k >= 1 else 0) - f[k + 1]
        if not lower <= b <= f[k]:
            raise AssertionError(f"Morse violation at degree {k}: {lower} <= {b} <= {f[k]}")


def _instance(spec: RegimeSpec, rng: RngStream) -> tuple[Graph, PointCloud | None]:
    """The graph of one trial, with its points for the geometric models."""
    if spec.model == "er_clique":
        return gen_er_graph(spec.n, spec.resolve_p(), rng), None
    pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), rng)
    return geometric_graph(pts, spec.resolve_r()), pts


def _batch_counts(spec: RegimeSpec, instances: list) -> dict[str, list] | None:
    """The census counts of each trial of a batch, as one disjoint union.

    Trial i of the batch is vertices i*n..(i+1)*n - 1 of the union, and
    every count is the list of its trials' values (docs/decisions.md,
    section 16). None when a face key f_d * N of the union's clique layers
    below the top would reach `_KEY_BOUND`, which never holds for one trial.
    """
    n, trials, k, model = spec.n, len(instances), spec.k, spec.model
    top = k - 2 if model == "cech" else k  # highest Betti degree computed
    g = _disjoint_union([graph for graph, _ in instances])
    c = clique_complex(g, k - 1 if model == "cech" else k + 1)
    if trials > 1 and max(map(len, c.faces[:-1])) * g.vertex_count >= _KEY_BOUND:
        return None
    if model == "cech":
        pts = PointCloud(spec.d, np.concatenate([pts.points for _, pts in instances]))
        c = cech_complex(pts, spec.resolve_r(), k - 1, graph=g)
    core = strong_collapse_core(c, g) if model == "rips" else c

    counts = {
        "f": _face_counts(c, n, trials),
        "ranks": _ranks(core, top + 1, spec.field_prime, n, trials),
        "components": _by_trial(np.flatnonzero(components(g).size), n, trials).tolist(),
    }
    if model == "cech":
        columns = _empty_simplex_counts(c, g, k, n, trials)
        names = (f"S_{k}", f"S_iso_{k}")
        # Y and Z are counted on each trial's own graph, through the names that
        # perfbench/selftest.py corrupts to check that the benchmark sees wrong rows
        counts[f"Y_{k}"] = [y_count(graph, k) for graph, _ in instances]
        counts[f"Z_{k}"] = [z_count(graph, k) for graph, _ in instances]
    elif model == "rips":
        columns = (
            *_cross_polytope_counts(g, k, n, trials),
            _faces_on_large_components(c, g, k, 2 * k + 3, n, trials),
            *(_tree_counts(g, n, trials) if k == 1 else ()),
        )
        names = (f"o_{k}", f"o_comp_{k}", f"f_{k}_ge_{2 * k + 3}", "t1", "t2", "t3")
    else:
        columns, names = (), ()
    counts.update((name, column.tolist()) for name, column in zip(names, columns))
    return counts


def _census_row(spec: RegimeSpec, counts: dict[str, list], i: int) -> dict[str, int | None]:
    """The census row of trial i of a batch, after that trial's checks, in their order."""
    k = spec.k
    f = counts["f"][i]
    betti = _betti_vector(*counts["ranks"][i], spec.field_prime).betti  # or RuntimeError
    comp_count = counts["components"][i]
    if betti[0] != comp_count:
        raise AssertionError(f"beta_0={betti[0]} disagrees with component count {comp_count}")
    _assert_morse(f, betti)
    row: dict[str, int | None] = {f"f_{d}": v for d, v in enumerate(f)}
    row.update({f"betti_{d}": v for d, v in enumerate(betti)})
    row["euler"] = sum((-1) ** d * v for d, v in enumerate(f)) if f[-1] == 0 else None
    top = len(betti) - 1
    if spec.model == "cech":
        s, s_iso, y, z = (counts[name][i] for name in (f"S_{k}", f"S_iso_{k}", f"Y_{k}", f"Z_{k}"))
        if not s_iso <= betti[top] <= s + y + z:
            raise AssertionError(
                f"Cech sandwich violation: {s_iso} <= beta_{top}={betti[top]} <= {s}+{y}+{z}"
            )
        if s_iso > s:
            raise AssertionError(f"census inconsistency: S_iso_{k}={s_iso} exceeds S_{k}={s}")
        row.update({f"S_{k}": s, f"S_iso_{k}": s_iso, f"Y_{k}": y, f"Z_{k}": z})
    elif spec.model == "rips":
        o_ind, o_comp = counts[f"o_{k}"][i], counts[f"o_comp_{k}"][i]
        fge = counts[f"f_{k}_ge_{2 * k + 3}"][i]
        if not o_comp <= betti[k] <= o_comp + fge:
            raise AssertionError(
                f"Rips sandwich violation: {o_comp} <= beta_{k}={betti[k]} <= {o_comp}+{fge}"
            )
        if o_comp > o_ind:
            raise AssertionError(f"census inconsistency: o_comp_{k}={o_comp} exceeds o_{k}={o_ind}")
        if fge > f[k]:
            raise AssertionError(
                f"census inconsistency: f_{k}_ge_{2 * k + 3}={fge} exceeds f_{k}={f[k]}"
            )
        row.update({f"o_{k}": o_ind, f"o_comp_{k}": o_comp,
                    f"f_{k}_ge_1": f[k], f"f_{k}_ge_{2 * k + 3}": fge})
        if k == 1:
            t1, t2, t3 = (counts[name][i] for name in ("t1", "t2", "t3"))
            if fge > 4 * (t1 + t2 + t3):
                raise AssertionError(
                    f"tree bound violation: f_1_ge_5={fge} > 4*({t1}+{t2}+{t3})"
                )
            row.update(t1=t1, t2=t2, t3=t3)
    return row


def instance_census(spec: RegimeSpec, rng: RngStream) -> dict[str, int | None]:
    """Build one instance of the regime, take its census, check the bounds and
    return the census row.

    This is the trial pipeline on a batch of one: trial t of an experiment
    has the row `instance_census(spec, RngStream(master_seed, t))`, and its
    CSV row is this row minus `euler` and `f_k_ge_1`, whatever batch it ran
    in (docs/decisions.md, section 16). The row holds f_i, betti_i and
    `euler`, then S_k, S_iso_k, Y_k, Z_k (Cech) or o_k, o_comp_k, f_k_ge_1,
    f_k_ge_{2k+3} (Rips), then t1-t3 (Rips k=1). `euler` is None unless the
    built complex is provably full-dimensional (its top face layer is
    empty, so no face exists above the cap). A Rips trial takes its Betti
    numbers from what one array round of strong collapses leaves of its
    flag complex, which has the same ones; f and every check and count
    below read the full complex (docs/decisions.md, section 15). Raises
    RuntimeError on a negative Betti number, and AssertionError when beta_0
    (min-label propagation and a union-find over the edge rows) differs
    from the component count of g (hooking and pointer jumping over its
    edge keys), or when the Morse inequalities, the Cech or Rips sandwich,
    the tree bound (Rips k=1), S_iso <= S, o_comp <= o or
    f_k_ge_{2k+3} <= f_k fail.
    """
    return _census_row(spec, _batch_counts(spec, [_instance(spec, rng)]), 0)


def _batch_rows(spec: RegimeSpec, master_seed: int, batch: list) -> list[dict[str, int]]:
    """CSV rows of a batch of consecutive (trial, instance) pairs, split in halves where
    its union's keys do not fit. A failing check names its trial and the census
    command that reproduces it."""
    counts = _batch_counts(spec, [instance for _, instance in batch])
    if counts is None:
        mid = len(batch) // 2
        return _batch_rows(spec, master_seed, batch[:mid]) + _batch_rows(
            spec, master_seed, batch[mid:]
        )
    rows = []
    for i, (t, _) in enumerate(batch):
        try:
            row = _census_row(spec, counts, i)
        except (AssertionError, RuntimeError) as exc:
            flags = " ".join(
                f"--{name} {value}"
                for name, value in asdict(spec).items()
                if value is not None and name != "field_prime"
            )
            raise type(exc)(
                f"{exc} (master_seed={master_seed}, trial={t}); reproduce with: "
                f"randcomplex census {flags} --seed {master_seed} --stream {t}"
            ) from exc
        rows.append(
            {name: v for name, v in row.items() if name != "euler" and not name.endswith("_ge_1")}
        )
    return rows


def _run_trials(args: tuple[RegimeSpec, int, int, int]) -> list[dict[str, int]]:
    """Rows of trials start..stop-1, in batches of the most consecutive trials whose
    graphs hold at most `_BATCH_BUDGET` vertices and edges together, and at least one."""
    spec, master_seed, start, stop = args
    rows, batch, size = [], [], 0
    for t in range(start, stop):
        instance = _instance(spec, RngStream(master_seed, t))
        weight = spec.n + instance[0].edge_count
        if batch and size + weight > _BATCH_BUDGET:
            rows += _batch_rows(spec, master_seed, batch)
            batch, size = [], 0
        batch.append((t, instance))
        size += weight
    return rows + _batch_rows(spec, master_seed, batch)


# ---------------------------------------------------------------------------
# Experiment results
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    regime: RegimeSpec
    trials: int
    master_seed: int
    columns: tuple[str, ...]
    per_trial: tuple[tuple[int, ...], ...]
    sums: dict[str, int]
    sum_squares: dict[str, int]
    means: dict[str, float]
    variances: dict[str, float]
    tv_to_poisson: dict[str, float]
    ks_to_normal: dict[str, float]
    warnings: tuple[str, ...] = ()

    def column(self, name: str) -> list[int]:
        i = self.columns.index(name)
        return [row[i] for row in self.per_trial]

    def to_summary_dict(self) -> dict:
        return {
            "version": __version__,
            "regime": self.regime.record(),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "aggregates": {
                name: {
                    "sum": self.sums[name],
                    "sum_squares": self.sum_squares[name],
                    "mean": self.means[name],
                    "variance": self.variances[name],
                }
                for name in self.columns
            },
            "tv_to_poisson": self.tv_to_poisson,
            "ks_to_normal": self.ks_to_normal,
            "warnings": list(self.warnings),
        }

    def summary_json(self) -> str:
        return json.dumps(self.to_summary_dict(), sort_keys=True, indent=2) + "\n"

    def trials_csv(self) -> str:
        header = "# config: " + json.dumps(
            {
                "regime": self.regime.record(),
                "trials": self.trials,
                "master_seed": self.master_seed,
                "version": __version__,
            },
            sort_keys=True,
        )
        lines = [header, ",".join(("trial",) + self.columns)]
        for t, row in enumerate(self.per_trial):
            lines.append(",".join([str(t)] + [str(v) for v in row]))
        return "\n".join(lines) + "\n"


def run_experiment(
    spec: RegimeSpec, trials: int, master_seed: int, workers: int = 1
) -> ExperimentResult:
    """Run seeded trials of a regime and aggregate the census statistics.

    Trial t uses RngStream(master_seed, t); the per-trial rows, their exact
    integer sums, and all derived distances are independent of the worker
    count and of the batches the trials ran in. The trials run in chunks of
    consecutive ones, one chunk per map task of a pool of at most one worker
    per chunk, or as one chunk when workers is 1.
    """
    if trials < 1 or workers < 1:
        raise ValueError(f"trials and workers must be >= 1, got {trials} and {workers}")
    if workers == 1:
        rows = _run_trials((spec, master_seed, 0, trials))
    else:
        chunk = max(1, trials // (workers * 8))
        args = [(spec, master_seed, t, min(t + chunk, trials)) for t in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
            rows = [row for part in pool.map(_run_trials, args) for row in part]
    columns = tuple(rows[0].keys())
    table = tuple(tuple(row[c] for c in columns) for row in rows)
    sums = {c: 0 for c in columns}
    sum_squares = {c: 0 for c in columns}
    for row in table:
        for c, v in zip(columns, row):
            sums[c] += v
            sum_squares[c] += v * v
    means = {c: sums[c] / trials for c in columns}
    variances = {}
    for c in columns:
        if trials > 1:
            ss = sum_squares[c] - sums[c] * sums[c] / trials
            variances[c] = max(ss, 0.0) / (trials - 1)
        else:
            variances[c] = 0.0
    col_values = {c: [row[i] for row in table] for i, c in enumerate(columns)}
    tv = {}
    ks = {}
    for c in columns:
        if means[c] > 0:
            tv[c] = tv_to_poisson(col_values[c], means[c])
        if variances[c] > 0:
            ks[c] = ks_to_normal(col_values[c], means[c], math.sqrt(variances[c]))
    return ExperimentResult(
        regime=spec,
        trials=trials,
        master_seed=master_seed,
        columns=columns,
        per_trial=table,
        sums=sums,
        sum_squares=sum_squares,
        means=means,
        variances=variances,
        tv_to_poisson=tv,
        ks_to_normal=ks,
        warnings=spec.regime_warnings(),
    )


# ---------------------------------------------------------------------------
# Empirical distances to the limit laws
# ---------------------------------------------------------------------------


# lgamma(j + 1) at index j, read-only and shared by every call: each column of
# an experiment reads what the earlier ones filled (docs/decisions.md, section 13)
_log_factorials = np.zeros(0)
_LOG_FACTORIALS_CAP = 1 << 20
_TV_BLOCK = 512
# bounds of the underflow argument of section 13: the relative error of the
# computed exp argument, and an argument at or below -_ZERO_ARG gives exp 0.0
_ARG_EPS = 2.0**-40
_ZERO_ARG = 800.0


def _log_factorial(a: int, b: int) -> np.ndarray:
    """math.lgamma(j + 1) for j in [a, b): from the table, grown by doubling,
    while b is within its cap, and evaluated directly past it."""
    global _log_factorials
    if b > _LOG_FACTORIALS_CAP:
        return np.array(list(map(math.lgamma, range(a + 1, b + 1))))
    n = len(_log_factorials)
    if n < b:
        size = min(max(b, 2 * n), _LOG_FACTORIALS_CAP)
        grown = np.concatenate([_log_factorials, list(map(math.lgamma, range(n + 1, size + 1)))])
        grown.flags.writeable = False
        _log_factorials = grown
    return _log_factorials[a:b]


def _underflow_margin(x: int, lam: float, log_lam: float) -> float:
    """A lower bound on minus the computed exp argument of the mass at j = x;
    convex in x and nonincreasing on [0, lam] (section 13)."""
    x_log_x = x * math.log(x) if x else 0.0
    return (
        (1 - _ARG_EPS) * (x_log_x - x)
        - x * (log_lam + _ARG_EPS * abs(log_lam))
        + (1 - _ARG_EPS) * lam
    )


def _left_zero_masses(lam: float, log_lam: float) -> int:
    """The number of leading masses, j = 0, 1, ..., that underflow to 0.0."""
    if _underflow_margin(0, lam, log_lam) < _ZERO_ARG:
        return 0
    lo, hi = 0, math.floor(lam) + 1  # the margin decreases on [0, lam]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _underflow_margin(mid, lam, log_lam) >= _ZERO_ARG:
            lo = mid
        else:
            hi = mid
    return lo + 1


def _right_zero_masses(a: int, lam: float, log_lam: float) -> bool:
    """Whether every mass at j >= a underflows to 0.0: the margin increases
    from a on and is already past the bound there."""
    return (
        a > 0
        and (1 - _ARG_EPS) * math.log(a) > log_lam + _ARG_EPS * abs(log_lam)
        and _underflow_margin(a, lam, log_lam) >= _ZERO_ARG
    )


def _sample_index(x) -> int:
    try:
        j = int(x)
    except (OverflowError, ValueError):
        j = -1
    if j < 0 or j != x:
        raise ValueError(f"samples must be finite non-negative integers, got {x!r}")
    return j


def tv_to_poisson(samples, lam: float, weights=None) -> float:
    """Total variation distance between the empirical pmf and Poisson(lam).

    Summation runs from 0 to the first point where the Poisson upper tail
    drops below 1e-12 (and at least to the largest sample), so the cutoff
    is deterministic. The terms are added in order of j, and the sum ends
    early past the mode and the largest sample once twice the mass no
    longer moves the total. The masses are evaluated in blocks of
    `_TV_BLOCK`, cut once at ceil(lam + 10 sqrt(lam) + 30) so that a small
    mean evaluates a few dozen, with lgamma(j + 1) from a table shared by
    every call; the masses that provably underflow to 0.0, below the mode
    and past the last nonzero one, are not evaluated. Every bit of the
    distance is that of the one-mass-at-a-time loop (docs/decisions.md,
    section 13).
    `weights` lets callers pass an exact pmf instead of equal-weight
    samples. Samples must be finite non-negative integral values, and
    weights finite and non-negative.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("samples must be nonempty")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    if weights is None:
        weights = [1.0 / len(samples)] * len(samples)
    else:
        weights = list(weights)
        if len(weights) != len(samples):
            raise ValueError("weights must align with samples")
        for w in weights:
            if not 0 <= w < math.inf:
                raise ValueError(f"weights must be finite and non-negative, got {w!r}")
    emp: dict[int, float] = {}
    for x, w in zip(samples, weights):
        j = _sample_index(x)
        emp[j] = emp.get(j, 0.0) + w
    keys = sorted(emp)
    log_lam, far, top = math.log(lam), lam + 40.0 * math.sqrt(lam) + 100, keys[-1]
    first = math.ceil(lam + 10.0 * math.sqrt(lam) + 30)  # where a block is cut once
    # a mass of 0.0 adds nothing to the running mass and emp(j) to the total
    a = _left_zero_masses(lam, log_lam)
    k = bisect.bisect_left(keys, a)
    total = 0.0
    for key in keys[:k]:
        total += emp[key]
    cumulative, tail = 0.0, True
    while not _right_zero_masses(a, lam, log_lam):
        b = (a // _TV_BLOCK + 1) * _TV_BLOCK
        if a < first:
            b = min(b, first)
        arg = np.arange(a, b) * log_lam - lam - _log_factorial(a, b)
        p = np.array(list(map(math.exp, arg.tolist())))
        e = np.zeros(b - a)
        k_end = bisect.bisect_left(keys, b)
        for key in keys[k:k_end]:
            e[key - a] = emp[key]
        k = k_end
        mass = np.cumsum(np.concatenate(([cumulative], p)))[1:]
        run = np.cumsum(np.concatenate(([total], np.abs(e - p))))[1:]
        # the loop goes on to j + 1 = a + i + 1 while the tail or a sample
        # reaches it, and no further once twice the mass past the largest
        # sample and the mode leaves the total
        i_tail = 0
        if tail:
            i_tail = min(int(np.searchsorted(mass, 1.0 - 1e-12)), math.floor(far) - a)
        stop = max(i_tail, top - a)
        i = max(0, top + 1 - a, math.floor(lam) + 1 - a)
        if i < min(stop, b - a):
            exits = (p[i:] >= 2.0**-1022) & (run[i:] + 2.0 * p[i:] == run[i:])
            if exits.any():
                stop = min(stop, i + int(exits.argmax()))
        if stop < b - a:
            return 0.5 * float(run[stop])
        cumulative, total = float(mass[-1]), float(run[-1])
        tail = tail and cumulative < 1.0 - 1e-12 and b <= far
        a = b
    for key in keys[k:]:
        total += emp[key]
    return 0.5 * total


def _std_normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def ks_to_normal(samples, center: float, scale: float) -> float:
    """One-sample Kolmogorov-Smirnov statistic of (x - center)/scale vs Phi."""
    samples = list(samples)
    if not samples:
        raise ValueError("samples must be nonempty")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    if not math.isfinite(center):
        raise ValueError("center must be finite")
    if not all(-math.inf < x < math.inf for x in samples):
        raise ValueError("samples must be finite")
    z = sorted((x - center) / scale for x in samples)
    m = len(z)
    d = 0.0
    for i, t in enumerate(z):
        phi = _std_normal_cdf(t)
        d = max(d, (i + 1) / m - phi, phi - i / m)
    return d


# ---------------------------------------------------------------------------
# Leading-order predictions
# ---------------------------------------------------------------------------


def density_power_integral(density: str, d: int, k: int) -> float:
    """Closed form of the density factor integral of f(x)^k over R^d."""
    if density == "uniform_cube":
        return 1.0
    if density == "gaussian":
        # product of d one-dimensional integrals of phi(t)^k
        return (2.0 * math.pi) ** (-(k - 1) * d / 2.0) * k ** (-d / 2.0)
    raise ValueError(f"unknown density {density!r}")


def theorem_targets(
    spec: RegimeSpec,
    mu_estimate: MuEstimate | None = None,
    rng: RngStream | None = None,
    mu_samples: int = 500_000,
) -> dict[str, float]:
    """Named leading-order predictions for the regime.

    ER predictions are exact expectations (the Betti expectation is
    bracketed by the Morse sandwich). Cech predictions scale the
    empty-simplex integral estimate; Rips predictions expose the scaling
    normalizer whose constant the theory leaves unnamed.
    """
    if spec.model == "er_clique":
        p = spec.resolve_p()
        e_k = er_expected_faces(spec.n, spec.k, p)
        e_lo = er_expected_faces(spec.n, spec.k - 1, p) if spec.k >= 1 else 0.0
        e_hi = er_expected_faces(spec.n, spec.k + 1, p)
        return {
            "expected_f_k": e_k,
            "betti_expectation_lower": e_k - e_lo - e_hi,
            "betti_expectation_upper": e_k,
        }
    r = spec.resolve_r()
    if spec.model == "cech":
        if spec.k < 3:
            raise ValueError("mu estimate unavailable for k < 3")
        if mu_estimate is None:
            if rng is None:
                raise ValueError("need mu_estimate or an RngStream to estimate mu")
            mu_estimate = estimate_mu(spec.k, spec.d, mu_samples, rng)
        scaling = _scaling(spec.n**spec.k, r, spec.d * (spec.k - 1))
        factor = (
            scaling
            * density_power_integral(spec.density, spec.d, spec.k)
            / math.factorial(spec.k)
        )
        if not math.isfinite(factor):
            # an overflowing scaling times a gaussian factor that underflowed to
            # 0.0 is NaN; in log space the factor is the d-th power of its d=1 value
            log_factor = (
                spec.k * math.log(spec.n)
                + spec.d * (spec.k - 1) * math.log(r)
                + spec.d * math.log(density_power_integral(spec.density, 1, spec.k))
                - math.lgamma(spec.k + 1)
            )
            try:
                factor = math.exp(log_factor)
            except OverflowError:
                factor = math.inf
        return {
            "scaling": scaling,
            "mu": mu_estimate.value,
            "mu_std_error": mu_estimate.std_error,
            # an estimate of exactly 0 stays 0 under an infinite scaling, never NaN
            "expected_isolated_empty": factor * mu_estimate.value if mu_estimate.value else 0.0,
            "expected_isolated_empty_std_error": (
                factor * mu_estimate.std_error if mu_estimate.std_error else 0.0
            ),
        }
    return {"scaling": _scaling(spec.n ** (2 * spec.k + 2), r, spec.d * (2 * spec.k + 1))}
