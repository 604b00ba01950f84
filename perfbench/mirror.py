"""The trial pipeline rebuilt from randcomplex's public functions, with spans.

`trial_row` makes the same public calls, in the same order, as the model's
trial in `randcomplex.experiments`, each wrapped in a span named after its
module. `decompose` then splits the homology step into boundary builds,
per-degree ranks and the beta_0 cross-check, and takes the work counts, in
spans outside the trial. `rebuild_outputs` turns trial rows into the CSV and
JSON bytes of an experiment call by the same aggregation, limit distances
and serializers the CLI uses.

Every value produced here is compared with the CLI's own output, so this
copy cannot drift from the real pipeline without the benchmark failing.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from randcomplex import census, complexes, experiments, generators, homology


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, trial id).

    A disabled tracer records nothing, so the same code serves untraced
    row checks.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.trial_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.trial_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, trial = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, trial)


@dataclass
class TrialState:
    """What one mirrored trial built, kept for the decomposition pass."""

    spec: experiments.RegimeSpec
    graph: complexes.Graph | None = None
    complex: complexes.SimplicialComplex | None = None
    betti_up_to: int = 0
    row: dict[str, int] = field(default_factory=dict)


def _betti_row(row: dict[str, int], f, betti) -> None:
    row.update({f"f_{i}": v for i, v in enumerate(f)})
    row.update({f"betti_{i}": b for i, b in enumerate(betti)})


def trial_row(spec, master_seed: int, t: int, tracer: Tracer) -> TrialState:
    """One trial of `spec` by public calls, each in a span; returns its state."""
    rng = generators.RngStream(master_seed, t)
    k = spec.k
    st = TrialState(spec)
    row = st.row
    if spec.model == "er_clique":
        with tracer.span("generators.gen_er_graph"):
            g = generators.gen_er_graph(spec.n, spec.resolve_p(), rng)
        with tracer.span("generators.clique_complex"):
            c = generators.clique_complex(g, k + 1)
        st.betti_up_to = k
    else:
        with tracer.span("generators.sample_points"):
            pts = generators.sample_points(
                spec.n, generators.DensitySpec(spec.density, spec.d), rng
            )
        r = spec.resolve_r()
        with tracer.span("generators.geometric_graph"):
            g = generators.geometric_graph(pts, r)
        if spec.model == "cech":
            with tracer.span("generators.cech_complex"):
                c = generators.cech_complex(pts, r, k - 1, graph=g)
            st.betti_up_to = k - 2
        else:
            with tracer.span("generators.clique_complex"):
                c = generators.clique_complex(g, k + 1)
            st.betti_up_to = k
    st.graph, st.complex = g, c
    f = complexes.f_vector(c)
    with tracer.span("homology.betti_numbers"):
        bv = homology.betti_numbers(c, st.betti_up_to, spec.field_prime)
    _betti_row(row, f, bv.betti)
    if spec.model == "cech":
        with tracer.span("census.empty_simplex_count"):
            row[f"S_{k}"] = census.empty_simplex_count(pts, r, k, g)
        with tracer.span("census.isolated_empty_simplex_count"):
            row[f"S_iso_{k}"] = census.isolated_empty_simplex_count(pts, r, k, g)
        with tracer.span("census.y_count"):
            row[f"Y_{k}"] = census.y_count(g, k)
        with tracer.span("census.z_count"):
            row[f"Z_{k}"] = census.z_count(g, k)
    elif spec.model == "rips":
        with tracer.span("census.cross_polytope_counts"):
            row[f"o_{k}"], row[f"o_comp_{k}"] = census.cross_polytope_counts(g, k)
        with tracer.span("census.faces_on_large_components"):
            row[f"f_{k}_ge_{2 * k + 3}"] = census.faces_on_large_components(
                c, g, k, 2 * k + 3
            )
        if k == 1:
            with tracer.span("census.subgraph_counts"):
                row["t1"], row["t2"], row["t3"] = census.subgraph_counts(
                    g, census.tree_patterns_order5(), induced=False
                )
    return st


def decompose(st: TrialState, tracer: Tracer) -> dict[str, int]:
    """Split homology into its stages and take work counts, outside the trial.

    Raises AssertionError when the stage-wise Betti numbers or the beta_0
    cross-check disagree with the trial row.
    """
    c, g, k, q = st.complex, st.graph, st.spec.k, st.spec.field_prime
    f = complexes.f_vector(c)
    counts = {"edges": g.edge_count, "faces": sum(f)}
    ranks = [0]
    columns = 0
    for deg in range(1, st.betti_up_to + 2):
        with tracer.span("homology.boundary_matrix"):
            bm = homology.boundary_matrix(c, deg)
        name = "homology.rank_gf.d1" if deg == 1 else "homology.rank_gf.d2plus"
        with tracer.span(name):
            ranks.append(homology.rank_gf(bm, q))
        columns += bm.col_count
    with tracer.span("homology.beta0_check"):
        comp_count = complexes.components(complexes.skeleton_graph(c)).count
    betti = [f[i] - ranks[i] - ranks[i + 1] for i in range(st.betti_up_to + 1)]
    expected = [st.row[f"betti_{i}"] for i in range(st.betti_up_to + 1)]
    if betti != expected or betti[0] != comp_count:
        raise AssertionError(
            f"stage-wise Betti {betti} (components {comp_count}) != trial {expected}"
        )
    counts["columns"] = columns
    counts["ranks"] = sum(ranks)
    with tracer.span("decompose.work_counts"):
        if st.spec.model == "cech":
            dims = range(2, c.max_dim + 1)
            counts["cech_candidates"] = sum(
                len(generators.cliques_of_order(g, dim + 1)) for dim in dims
            )
            counts["cech_accepted"] = sum(len(c.faces[dim]) for dim in dims)
            counts["s_candidates"] = len(generators.cliques_of_order(g, k))
            counts["s_hits"] = st.row[f"S_{k}"]
        if st.spec.model == "rips" and k == 1:
            counts["subsets"] = sum(1 for _ in census.connected_subsets(g, 5))
    return counts


def rebuild_outputs(
    spec, trials: int, master_seed: int, rows: list[dict[str, int]], tracer: Tracer
) -> tuple[str, str]:
    """CSV and JSON bytes of an experiment call, rebuilt from its trial rows.

    Mirrors the aggregation of `run_experiment`; the limit distances and the
    serializers are randcomplex's own public functions.
    """
    columns = tuple(rows[0].keys())
    table = tuple(tuple(row[col] for col in columns) for row in rows)
    sums = {col: sum(row[i] for row in table) for i, col in enumerate(columns)}
    sum_squares = {col: sum(row[i] * row[i] for row in table) for i, col in enumerate(columns)}
    means = {col: sums[col] / trials for col in columns}
    variances = {}
    for col in columns:
        if trials > 1:
            ss = sum_squares[col] - sums[col] * sums[col] / trials
            variances[col] = max(ss, 0.0) / (trials - 1)
        else:
            variances[col] = 0.0
    tv, ks = {}, {}
    with tracer.span("experiments.limit_distances"):
        for i, col in enumerate(columns):
            values = [row[i] for row in table]
            if means[col] > 0:
                tv[col] = experiments.tv_to_poisson(values, means[col])
            if variances[col] > 0:
                ks[col] = experiments.ks_to_normal(
                    values, means[col], math.sqrt(variances[col])
                )
    with tracer.span("experiments.serialize"):
        result = experiments.ExperimentResult(
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
        return result.trials_csv(), result.summary_json()
