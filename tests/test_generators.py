"""Model generators: ER graphs, clique/Rips/Cech complexes, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

from randcomplex import (
    DensitySpec,
    Graph,
    PointCloud,
    RngStream,
    betti_numbers,
    cech_complex,
    clique_complex,
    empty_simplex_count,
    f_vector,
    gen_er_graph,
    generators,
    geometric_graph,
    rips_complex,
    sample_points,
)

from oracles import (
    cech_complex_per_face, cliques_by_set_expansion, edge_list, er_graph_by_triu, face_tuples,
    geometric_graph_by_offsets, neighbor_sets
)
from randcomplex.experiments import RegimeSpec
from randcomplex.generators import _clique_faces

EQUILATERAL = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]])


def test_er_p_zero_and_one():
    assert gen_er_graph(8, 0.0, RngStream(1)).edge_count == 0
    g = gen_er_graph(8, 1.0, RngStream(1))
    assert g.edge_count == 28
    for n in (0, 1):
        for p in (0.0, 0.5, 1.0):
            assert gen_er_graph(n, p, RngStream(1)) == Graph.from_edges(n, [])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 400])
def test_er_pair_decode_matches_triu_oracle(n):
    for p in (0.0, 0.015, 0.5, 1.0):
        for seed in range(5):
            rng = RngStream(seed, n)
            assert gen_er_graph(n, p, rng) == er_graph_by_triu(n, p, rng)


def test_er_rejects_bad_p():
    with pytest.raises(ValueError):
        gen_er_graph(5, 1.5, RngStream(0))
    with pytest.raises(ValueError):
        gen_er_graph(5, -0.1, RngStream(0))


def test_er_edge_count_moments():
    # mean of 1e4 draws within 3 sigma of C(100,2)*0.5 (binomial moments)
    trials = 10_000
    total = sum(
        gen_er_graph(100, 0.5, RngStream(505, t)).edge_count for t in range(trials)
    )
    mean = total / trials
    expected = 4950 * 0.5
    sigma_mean = math.sqrt(4950 * 0.25 / trials)
    assert abs(mean - expected) <= 3 * sigma_mean


def test_er_determinism_and_stream_independence():
    a = gen_er_graph(40, 0.3, RngStream(9, 4))
    b = gen_er_graph(40, 0.3, RngStream(9, 4))
    c = gen_er_graph(40, 0.3, RngStream(9, 5))
    assert a == b
    assert a != c


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(3, -2)


def test_clique_complex_four_cycle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = clique_complex(g, 2)
    assert f_vector(c) == (4, 4, 0)
    assert betti_numbers(c, 1).betti == (1, 1)


def test_clique_complex_k4():
    g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert f_vector(clique_complex(g, 3)) == (4, 6, 4, 1)


def test_clique_complex_octahedron():
    # frozen from exhaustive clique enumeration: 12 edges, 8 triangles, no K4
    pairs = ({0, 1}, {2, 3}, {4, 5})
    edges = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if {u, v} not in pairs
    ]
    c = clique_complex(Graph.from_edges(6, edges), 3)
    assert f_vector(c) == (6, 12, 8, 0)


def test_clique_complex_matches_subset_enumeration():
    from oracles import brute_cliques

    gen = RngStream(3).generator()
    for _ in range(25):
        n = int(gen.integers(2, 12))
        g = gen_er_graph(n, float(gen.random()), RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, 4)
        for dim in range(min(4, n - 1) + 1):
            assert face_tuples(c.faces[dim]) == brute_cliques(neighbor_sets(g), dim + 1)


def test_cliques_of_order_in_any_order_matches_subset_enumeration():
    from oracles import brute_cliques
    from randcomplex.generators import cliques_of_order

    seeded = gen_er_graph(14, 0.6, RngStream(8))
    expected = {m: brute_cliques(neighbor_sets(seeded), m) for m in range(1, 9)}
    assert expected[4] and not expected[8]
    for orders in (range(1, 9), range(8, 0, -1)):
        g = Graph.from_edges(seeded.vertex_count, edge_list(seeded))  # no expansion memoized yet
        assert {m: face_tuples(cliques_of_order(g, m)) for m in orders} == expected
        assert face_tuples(clique_complex(g, 3).faces[3]) == expected[4]


# the four benchmark regimes: (spec, deepest clique layer a trial reads)
BENCHMARK_REGIMES = [
    (RegimeSpec(model="cech", k=3, n=2000, d=2, alpha=3.0), 4),
    (RegimeSpec(model="rips", k=1, n=500, d=2, alpha=2.0), 2),
    (RegimeSpec(model="er_clique", k=1, n=400, gamma=0.7), 2),
    (RegimeSpec(model="rips", k=2, n=150, d=2, alpha=1.0), 3),
]


def _regime_graph(spec: RegimeSpec, rng: RngStream) -> Graph:
    if spec.model == "er_clique":
        return gen_er_graph(spec.n, spec.resolve_p(), rng)
    pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), rng)
    return geometric_graph(pts, spec.resolve_r())


def test_clique_expansion_matches_set_oracle():
    complete = Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    cases = [(Graph.from_edges(n, []), 3) for n in (0, 1, 2, 40)]
    cases += [(Graph.from_edges(2, [(0, 1)]), 2)]
    cases += [(complete, max_dim) for max_dim in range(8)]
    cases += [(gen_er_graph(30, p, RngStream(11, t)), 5) for t, p in enumerate((0.5, 0.9))]
    for spec, max_dim in BENCHMARK_REGIMES:
        cases += [(_regime_graph(spec, RngStream(31, t)), max_dim) for t in range(20)]
    for g, max_dim in cases:
        expected = cliques_by_set_expansion(neighbor_sets(g), max_dim)
        assert len(expected) == max_dim + 1
        assert tuple(map(tuple, map(face_tuples, _clique_faces(g, max_dim)))) == expected
        # the same graph from its edges reversed, each written high vertex first
        again = Graph.from_edges(g.vertex_count, [(v, u) for u, v in edge_list(g)][::-1])
        assert all(map(np.array_equal, _clique_faces(again, max_dim), _clique_faces(g, max_dim)))
    assert [len(layer) for layer in _clique_faces(complete, 7)] == [7, 21, 35, 35, 21, 7, 1, 0]


def test_sample_points_uniform_bounds_and_mean():
    pc = sample_points(100_000, DensitySpec("uniform_cube", 2), RngStream(12))
    assert pc.density_id == "uniform_cube"
    assert pc.points.min() >= 0.0 and pc.points.max() <= 1.0
    # first-coordinate mean within 3*(1/sqrt(12))/sqrt(n) of 0.5 (uniform moments)
    tol = 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(100_000)
    assert abs(pc.points[:, 0].mean() - 0.5) <= tol


def test_sample_points_empty_and_gaussian():
    assert len(sample_points(0, DensitySpec("uniform_cube", 3), RngStream(1))) == 0
    pc = sample_points(50, DensitySpec("gaussian", 4), RngStream(1))
    assert pc.points.shape == (50, 4)


def test_geometric_graph_closed_rule():
    pts = PointCloud(2, [[0.0, 0.0], [1.0, 0.0]])
    assert geometric_graph(pts, 0.5).edge_count == 1  # distance exactly 2r
    pts2 = PointCloud(2, [[0.0, 0.0], [1.01, 0.0]])
    assert geometric_graph(pts2, 0.5).edge_count == 0


def test_geometric_graph_rejects_nonpositive_radius():
    pts = PointCloud(2, [[0.0, 0.0]])
    with pytest.raises(ValueError):
        geometric_graph(pts, 0.0)
    triangle = PointCloud(2, EQUILATERAL)
    for r in (0.0, -1.0, math.nan):  # also with a graph given: cech_complex checks r itself
        with pytest.raises(ValueError, match="positive"):
            cech_complex(triangle, r, 2, graph=geometric_graph(triangle, 1.2))
    # NaN fails every comparison, so it would give an edgeless graph and no face
    with pytest.raises(ValueError, match="positive"):
        geometric_graph(triangle, math.nan)
    with pytest.raises(ValueError, match="positive"):
        rips_complex(triangle, math.nan, 2)
    with pytest.raises(ValueError, match="positive"):
        generators.balls_intersect(EQUILATERAL, math.nan)


def test_cech_complex_rejects_a_graph_of_other_points():
    """A given graph must have one vertex per point, or its complex is not that of the
    points (or a face gathers a point that is not there)."""
    five = PointCloud(2, np.vstack((EQUILATERAL, [[10.0, 0.0], [20.0, 0.0]])))
    for m in (3, 10):
        g = geometric_graph(PointCloud(2, np.arange(2.0 * m).reshape(m, 2) / 2), 1.2)
        with pytest.raises(ValueError, match=f"graph has {m} vertices but there are 5 points"):
            cech_complex(five, 1.2, 2, graph=g)
        with pytest.raises(ValueError, match=f"graph has {m} vertices but there are 5 points"):
            empty_simplex_count(five, 1.2, 3, g)
    assert f_vector(cech_complex(five, 1.2, 2, graph=geometric_graph(five, 1.2))) == (5, 3, 1)


def _window_cases():
    """Clouds that stress the x-window of geometric_graph (docs/decisions.md, section 7)."""
    gen = RngStream(42).generator()
    uniform = gen.random((500, 2))
    ties = gen.random((300, 2))
    ties[:, 0] = np.round(ties[:, 0], 1)  # many points share one x coordinate
    # dyadic lattice at spacing 1/8 with 2r = 5/8: pairs exactly 2r apart along
    # x (5, 0), along y (0, 5) and diagonally (3, 4), all squared exactly
    lattice = np.indices((9, 9)).reshape(2, -1).T / 8.0
    return [
        (uniform, 0.05),
        (np.empty((0, 2)), 0.05),
        (np.array([[0.3, 0.4]]), 0.05),
        (gen.random((400, 1)), 0.002),  # d = 1
        (ties, 0.03),
        # (0, 1) is kept: its squared distance underflows to 0.0 <= (2r)^2 = 0.0
        (np.array([[0.0, 0.0], [1e-163, 0.0], [3e-161, 0.0]]), 1e-170),
        (lattice, 5.0 / 16.0),
    ]


def test_geometric_graph_matches_all_pairs_oracle():
    for P, r in _window_cases():
        n, d = P.shape
        g = geometric_graph(PointCloud(d, P), r)
        d2 = np.sum((P[:, None, :] - P[None, :, :]) ** 2, axis=-1)
        brute = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if d2[i, j] <= (2.0 * r) * (2.0 * r)
        }
        assert g.vertex_count == n
        assert set(edge_list(g)) == brute
    # the closed rule keeps lattice pairs exactly 2r apart: (5,0), (0,5), (3,4), (4,3)
    assert {(0, 45), (0, 5), (0, 31), (0, 39)} <= brute


@pytest.mark.parametrize("block", [1, 2, 7, generators._WINDOW_BLOCK])
def test_geometric_graph_matches_per_offset_sweep(monkeypatch, block):
    """The blocked gather equals the per-offset sweep, also when blocks hold one row,
    rows with no window pair, or rows larger than a block."""
    monkeypatch.setattr(generators, "_WINDOW_BLOCK", block)
    gen = RngStream(45).generator()
    cases = _window_cases() + [
        (gen.random((200, 3)), 0.1),  # d = 3
        (gen.random((50, 4)), 0.3),  # d = 4
        (gen.standard_normal((200, 3)), 0.25),
        (gen.random((60, 2)), 1e6),  # huge r: every pair is an edge
    ]
    for P, r in cases:
        pts = PointCloud(P.shape[1], P)
        assert geometric_graph(pts, r) == geometric_graph_by_offsets(pts, r)
    for spec, _ in BENCHMARK_REGIMES:
        if spec.model == "er_clique":
            continue
        for t in range(3 if block < 8 else 20):
            pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), RngStream(47, t))
            assert geometric_graph(pts, spec.resolve_r()) == geometric_graph_by_offsets(
                pts, spec.resolve_r()
            )


def test_geometric_graph_gaussian_cloud_matches_oracle():
    gen = RngStream(43).generator()
    P = gen.standard_normal((200, 3))
    g = geometric_graph(PointCloud(3, P), 0.25)
    d2 = np.sum((P[:, None, :] - P[None, :, :]) ** 2, axis=-1)
    brute = {
        (i, j) for i in range(200) for j in range(i + 1, 200) if d2[i, j] <= 0.25
    }
    assert set(edge_list(g)) == brute


def test_geometric_graph_permutation_equivariance():
    gen = RngStream(44).generator()
    P = gen.random((60, 2))
    perm = gen.permutation(60)
    g = geometric_graph(PointCloud(2, P), 0.08)
    g2 = geometric_graph(PointCloud(2, P[perm]), 0.08)
    inv = np.empty(60, dtype=int)
    inv[perm] = np.arange(60)
    remapped = {tuple(sorted((int(inv[u]), int(inv[v])))) for u, v in edge_list(g)}
    assert remapped == set(edge_list(g2))


def test_rips_is_clique_complex_of_geometric_graph():
    pc = sample_points(100, DensitySpec("uniform_cube", 2), RngStream(55))
    assert rips_complex(pc, 0.03, 3) == clique_complex(
        geometric_graph(pc, 0.03), 3
    )


def test_rips_equilateral_triangle():
    pc = PointCloud(2, EQUILATERAL)
    full = rips_complex(pc, 1.0, 2)  # pairwise distances equal 2r exactly
    assert f_vector(full) == (3, 3, 1)
    lonely = rips_complex(pc, 0.9, 2)
    assert f_vector(lonely) == (3, 0, 0)


def test_cech_equilateral_triangle_empty_then_filled():
    pc = PointCloud(2, EQUILATERAL)
    c = cech_complex(pc, 1.05, 2)
    assert f_vector(c) == (3, 3, 0)
    assert betti_numbers(c, 1).betti == (1, 1)
    assert f_vector(cech_complex(pc, 1.2, 2)) == (3, 3, 1)


def test_cech_subset_of_rips_and_shared_skeleton():
    for seed in range(5):
        pc = sample_points(120, DensitySpec("uniform_cube", 2), RngStream(800, seed))
        r = 0.05
        cech = cech_complex(pc, r, 3)
        rips = rips_complex(pc, r, 3)
        assert np.array_equal(cech.faces[0], rips.faces[0])
        assert np.array_equal(cech.faces[1], rips.faces[1])
        for dim in range(2, 4):
            assert set(face_tuples(cech.faces[dim])) <= set(face_tuples(rips.faces[dim]))


def test_cech_faces_match_ball_intersection_definition():
    """Every (dim+1)-subset of the points whose balls meet, by the test of
    `balls_intersect`, in one `enclosing_radius` call per dimension."""
    from itertools import combinations

    from randcomplex.miniball import RADIUS_RTOL, enclosing_radius

    pc = sample_points(40, DensitySpec("uniform_cube", 2), RngStream(81))
    r = 0.12
    c = cech_complex(pc, r, 3)
    P = pc.points
    for dim in range(1, 4):
        S = np.array(list(combinations(range(40), dim + 1)))
        expected = S[enclosing_radius(P[S]) <= r * (1.0 + RADIUS_RTOL)]
        assert face_tuples(c.faces[dim]) == face_tuples(expected)


@pytest.mark.parametrize(
    "spec, clouds",
    [
        (RegimeSpec(model="cech", k=3, n=2000, d=2, alpha=3.0), 200),
        (RegimeSpec(model="cech", k=4, n=300, d=3, alpha=5.0), 8),
        (RegimeSpec(model="cech", k=5, n=200, d=3, alpha=20.0), 2),
        (RegimeSpec(model="cech", k=4, n=100_000, d=1, alpha=5.0), 4),  # r = 3.7e-7
    ],
    ids=["cech-k3-n2000", "cech-k4-d3", "cech-k5-d3", "cech-k4-d1-tiny-r"],
)
def test_cech_complex_matches_per_face_filter_bit_for_bit(spec, clouds):
    """One `enclosing_radius` call per layer and the face-key prefix test keep
    the faces of the scalar `d @ d` and Welzl filter with Python-set prefixes.
    On the line (Helly) every clique is a face, also with radii far below the
    coordinates' scale."""
    r = spec.resolve_r()
    rejected = [0] * spec.k
    for t in range(clouds):
        pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), RngStream(17, t))
        g = geometric_graph(pts, r)
        c = cech_complex(pts, r, spec.k - 1, graph=g)
        oracle = cech_complex_per_face(pts, r, spec.k - 1)
        assert [a.tobytes() for a in c.faces] == [b.tobytes() for b in oracle.faces]
        for dim in range(2, spec.k):
            rejected[dim] += len(clique_complex(g, dim).faces[dim]) - len(c.faces[dim])
    if spec.d == 1:
        assert not any(rejected)
    else:
        assert all(rejected[2:])  # every layer the filter reads drops some clique


def test_cech_complex_reads_the_clique_memo_without_changing_it():
    from randcomplex.generators import cliques_of_order

    filtered = False
    for seed in range(4):
        pc = sample_points(150, DensitySpec("uniform_cube", 2), RngStream(83, seed))
        r = 0.07
        fresh = cech_complex(pc, r, 3)
        deeper = geometric_graph(pc, r)
        cliques_of_order(deeper, 5)  # memo deeper than the complex needs
        assert cech_complex(pc, r, 3, graph=deeper) == fresh
        g = geometric_graph(pc, r)
        assert cech_complex(pc, r, 3, graph=g) == fresh
        # the ball filter must leave the unfiltered cliques in the memo
        assert clique_complex(g, 3) == clique_complex(geometric_graph(pc, r), 3)
        filtered |= clique_complex(g, 3) != fresh
    assert filtered  # some clique was rejected by the ball test


def test_geometric_determinism_across_runs():
    a = sample_points(64, DensitySpec("gaussian", 2), RngStream(99, 3))
    b = sample_points(64, DensitySpec("gaussian", 2), RngStream(99, 3))
    assert (a.points == b.points).all()
