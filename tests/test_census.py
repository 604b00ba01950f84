"""Census counters against hand values and exhaustive brute-force oracles."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from randcomplex import (
    CanonicalGraph,
    DensitySpec,
    Graph,
    PointCloud,
    RegimeSpec,
    RngStream,
    canonical_form,
    cech_complex,
    clique_complex,
    cross_polytope_counts,
    empty_simplex_count,
    empty_simplex_counts,
    enumerate_extension_types,
    er_covariance_faces,
    er_expected_faces,
    er_variance_faces,
    estimate_mu,
    faces_on_large_components,
    gen_er_graph,
    geometric_graph,
    isolated_empty_simplex_count,
    sample_points,
    subgraph_counts,
    tree_counts_order5,
    y_count,
    z_count,
)
from randcomplex import census
from randcomplex.census import (
    MU_BLOCK_SIZE,
    _codegrees,
    automorphism_count,
    connected_subsets,
    tree_patterns_order5,
)

from oracles import (
    brute_components,
    brute_cross_counts,
    cross_counts_by_pairs,
    cross_polytope_skeleton,
    cross_polytope_zoo,
    brute_empty_simplices,
    edge_list,
    brute_faces_on_large_components,
    brute_isolated_empty_count,
    brute_subgraph_count,
    brute_y_count,
    brute_z_count,
    faces_on_large_components_by_size_of,
    mu_hits_per_sample,
    mu_quadrature_k3,
    neighbor_sets,
    tree_counts_by_centres,
    tree_tallies_by_centres,
    y_count_by_sets,
    z_count_by_sets,
)

EQUILATERAL = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def octahedron_graph() -> Graph:
    pairs = ({0, 1}, {2, 3}, {4, 5})
    return Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if {u, v} not in pairs]
    )


# ---------------------------------------------------------------------------
# Empty simplices
# ---------------------------------------------------------------------------


def test_empty_triangle_at_tight_radius():
    pc = PointCloud(2, EQUILATERAL)
    assert empty_simplex_count(pc, 1.05, 3) == 1
    assert empty_simplex_count(pc, 1.2, 3) == 0


def test_empty_pairs_are_non_edges():
    pc = PointCloud(2, [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    assert empty_simplex_count(pc, 1.0, 2) == 3


def test_empty_count_rejects_small_k():
    with pytest.raises(ValueError):
        empty_simplex_count(PointCloud(2, [[0.0, 0.0]]), 1.0, 1)


def test_isolated_empty_triangle_with_far_point():
    pts = np.vstack([EQUILATERAL, [100.0, 100.0]])
    pc = PointCloud(2, pts)
    assert empty_simplex_count(pc, 1.05, 3) == 1
    assert isolated_empty_simplex_count(pc, 1.05, 3) == 1


def test_isolated_empty_triangle_spoiled_by_neighbor():
    # fourth point within 2r of one triangle vertex: S stays 1, S_iso drops to 0
    pts = np.vstack([EQUILATERAL, [-1.5, 0.0]])
    pc = PointCloud(2, pts)
    assert empty_simplex_count(pc, 1.05, 3) == 1
    assert isolated_empty_simplex_count(pc, 1.05, 3) == 0


def test_no_empty_triangles_in_spread_points():
    pc = PointCloud(2, [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    assert isolated_empty_simplex_count(pc, 1.0, 3) == 0


def test_empty_counts_reject_k_outside_the_complex():
    pc = PointCloud(2, EQUILATERAL)
    g = geometric_graph(pc, 1.05)
    c = cech_complex(pc, 1.05, 2, graph=g)
    assert empty_simplex_counts(c, g, 3) == (1, 1)
    for k in (1, 4):
        with pytest.raises(ValueError):
            empty_simplex_counts(c, g, k)


def test_empty_and_isolated_match_brute_force():
    # The d=3 points fill a unit cube: there the k=4 and k=5 cliques often
    # have a facet that is not a Čech face, so the facet clause is exercised.
    for d, seed, side, instances in ((2, 311, 2.0, 40), (3, 312, 1.0, 20)):
        gen = RngStream(seed).generator()
        for _ in range(instances):
            n = int(gen.integers(4, 11))
            pts = gen.random((n, d)) * side
            r = float(gen.random() * 0.5 + 0.15)
            pc = PointCloud(d, pts)
            for k in (2, 3, 4, 5):
                empties = brute_empty_simplices(pts, r, k)
                assert empty_simplex_count(pc, r, k) == len(empties)
                assert isolated_empty_simplex_count(pc, r, k) == brute_isolated_empty_count(
                    pts, r, empties
                )


# ---------------------------------------------------------------------------
# Y and Z attachment counts
# ---------------------------------------------------------------------------


def test_y_count_path():
    assert y_count(path_graph(4), 3) == 1  # base bc, pendants a and d


def test_y_count_triangle_and_star():
    assert y_count(cycle_graph(3), 3) == 0
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert y_count(star, 3) == 0


def test_z_count_path():
    assert z_count(path_graph(4), 3) == 2


def test_z_count_triangle_and_star():
    assert z_count(cycle_graph(3), 3) == 0
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert z_count(star, 3) == 0


def test_yz_reject_small_k():
    with pytest.raises(ValueError):
        y_count(path_graph(4), 2)
    with pytest.raises(ValueError):
        z_count(path_graph(4), 2)


def test_yz_match_brute_force():
    gen = RngStream(313).generator()
    for _ in range(50):
        n = int(gen.integers(4, 11))
        g = gen_er_graph(n, float(gen.random() * 0.7), RngStream(int(gen.integers(2**32))))
        for k in (3, 4, 5):
            assert y_count(g, k) == brute_y_count(neighbor_sets(g), k)
            assert z_count(g, k) == brute_z_count(neighbor_sets(g), k)


def _regime_graphs(spec: RegimeSpec, seed: int, count: int):
    r = spec.resolve_r()
    for t in range(count):
        pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), RngStream(seed, t))
        yield geometric_graph(pts, r)


def test_yz_match_set_oracles_on_cech_graphs():
    # the graphs of the cech-k3-n2000 regime, where Y and Z bound beta_1
    spec = RegimeSpec(model="cech", k=3, n=2000, d=2, alpha=3.0)
    for g in _regime_graphs(spec, 317, 10):
        assert g.edge_count > 0
        assert y_count(g, 3) == y_count_by_sets(g, 3)
        assert z_count(g, 3) == z_count_by_sets(g, 3)


def test_yz_match_set_oracles_on_er_graphs():
    for j, p in enumerate((0.1, 0.3, 0.6)):
        for t in range(3):
            g = gen_er_graph(30, p, RngStream(319, 10 * j + t))
            for k in (3, 4, 5):
                assert y_count(g, k) == y_count_by_sets(g, k)
                assert z_count(g, k) == z_count_by_sets(g, k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_yz_on_complete_graphs(k):
    for n in range(9):
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        bases, outside = math.comb(n, k - 1), (n - k + 1) * (n - k)
        assert y_count(g, k) == bases * math.comb(k - 1, 2) * outside
        assert z_count(g, k) == bases * (k - 1) * outside


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        Graph.from_edges(6, []),
        path_graph(7),  # edges but no triangle, so no base for k >= 4
        cycle_graph(4),
        Graph.from_edges(3, [(1, 0)]),  # one edge beside an isolated vertex
    ],
    ids=["n0", "n1", "edgeless", "path", "square", "one-edge"],
)
def test_yz_and_trees_on_triangle_free_graphs(g):
    # no base clique for k >= 4, and none for k = 3 without an edge
    for k in (3, 4, 5):
        assert y_count(g, k) == y_count_by_sets(g, k)
        assert z_count(g, k) == z_count_by_sets(g, k)
        if k >= 4 or g.edge_count == 0:
            assert (y_count(g, k), z_count(g, k)) == (0, 0)
    assert tree_counts_order5(g) == tree_counts_by_centres(g)


# ---------------------------------------------------------------------------
# Cross-polytope counts
# ---------------------------------------------------------------------------


def test_cross_counts_four_cycle():
    assert cross_polytope_counts(cycle_graph(4), 1) == (1, 1)


def test_cross_counts_k4():
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert cross_polytope_counts(k4, 1) == (0, 0)


def test_cross_counts_octahedron():
    g = octahedron_graph()
    assert cross_polytope_counts(g, 2) == (1, 1)
    # the octahedron contains exactly three induced 4-cycles, its equators;
    # frozen from the exhaustive 4-subset oracle (see docs/decisions.md, section 3)
    assert brute_cross_counts(6, neighbor_sets(g), 1) == (3, 0)
    assert cross_polytope_counts(g, 1) == (3, 0)


def test_cross_counts_match_brute_force():
    gen = RngStream(317).generator()
    for _ in range(35):
        n = int(gen.integers(4, 11))
        g = gen_er_graph(n, float(gen.random() * 0.7 + 0.1), RngStream(int(gen.integers(2**32))))
        for k in (1, 2):
            assert cross_polytope_counts(g, k) == brute_cross_counts(
                n, neighbor_sets(g), k
            )


ZOO = cross_polytope_zoo()


@pytest.mark.parametrize("name", list(ZOO))
def test_cross_counts_match_enumerator_and_brute_force(name):
    g = ZOO[name]
    counts = [cross_polytope_counts(g, k) for k in (1, 2, 3)]
    assert counts == [cross_counts_by_pairs(g, k) for k in (1, 2, 3)]
    if g.vertex_count <= 10:
        assert counts == [brute_cross_counts(g.vertex_count, neighbor_sets(g), k) for k in (1, 2, 3)]
    if name.startswith("dense-rips"):
        assert counts[1][0] > 0  # the pair graph holds triangles


def test_cross_counts_on_unions_of_cross_polytopes():
    # C(4, j+1) induced O_j in K_{2,2,2,2}; the C4 beside the octahedron is a whole component
    assert [cross_polytope_counts(ZOO["K2222"], k) for k in (1, 2, 3)] == [(6, 0), (4, 0), (1, 1)]
    assert [cross_polytope_counts(ZOO["octahedron+C4"], k) for k in (1, 2)] == [(4, 1), (1, 1)]


def test_pair_graph_keys_stay_inside_int64(monkeypatch):
    assert census._MAX_PAIRS**2 < 2**63 <= (census._MAX_PAIRS + 1) ** 2
    g = octahedron_graph()  # three antipodal pairs: a pair graph on three vertices
    monkeypatch.setattr(census, "_MAX_PAIRS", 2)
    with pytest.raises(ValueError, match="n=6"):
        cross_polytope_counts(g, 1)
    monkeypatch.setattr(census, "_MAX_PAIRS", 3)
    assert cross_polytope_counts(g, 1) == (3, 0)


def test_codegrees_are_one_read_only_memo():
    g = ZOO["dense-rips-0"]
    memo = _codegrees(g)
    assert _codegrees(g) is memo and len(memo) == 8
    for a in memo:
        assert not a.flags.writeable


def test_cross_skeleton_pattern_is_self():
    pat = cross_polytope_skeleton(2)
    assert pat.vertex_count == 6 and pat.edge_count == 12
    g = Graph.from_edges(6, pat.edges)
    assert cross_polytope_counts(g, 2) == (1, 1)


# ---------------------------------------------------------------------------
# Faces on large components
# ---------------------------------------------------------------------------


def test_faces_on_large_components_path():
    g = path_graph(5)
    c = clique_complex(g, 2)
    assert faces_on_large_components(c, g, 1, 5) == 4
    assert faces_on_large_components(c, g, 1, 6) == 0


def test_faces_on_large_components_two_triangles():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    c = clique_complex(g, 2)
    assert faces_on_large_components(c, g, 2, 7) == 0
    assert faces_on_large_components(c, g, 2, 3) == 2


def test_faces_ge_one_equals_f_vector():
    gen = RngStream(319).generator()
    for _ in range(20):
        g = gen_er_graph(9, float(gen.random()), RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, 3)
        for k in range(4):
            assert faces_on_large_components(c, g, k, 1) == len(c.faces[k])


def test_faces_ge_matches_brute_force():
    gen = RngStream(321).generator()
    for _ in range(25):
        n = int(gen.integers(4, 11))
        g = gen_er_graph(n, 0.3, RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, 2)
        for k in (1, 2):
            for i in (2, 3, 5, 7):
                assert faces_on_large_components(c, g, k, i) == (
                    brute_faces_on_large_components(
                        n, edge_list(g), c.faces[k], i
                    )
                )


def test_faces_ge_matches_size_of_oracle_on_regime_graphs():
    # the ER and Rips k=1 graphs of the tree-count tests below
    graphs = [
        gen_er_graph(n, p, RngStream(331, 10 * n + j))
        for n in range(15) for j, p in enumerate((0.0, 0.1, 0.25, 0.5, 0.75, 1.0))
    ]
    graphs += list(_regime_graphs(RegimeSpec(model="rips", k=1, n=500, d=2, alpha=2.0), 333, 3))
    for g in graphs:
        c = clique_complex(g, 2)
        for k in range(3):
            for i in (1, 2, 3, 5, 7):
                assert faces_on_large_components(c, g, k, i) == (
                    faces_on_large_components_by_size_of(c, g, k, i)
                )


def test_counters_reject_a_graph_of_another_vertex_count():
    """A complex and a graph with different vertex counts are refused, not read off one
    another: (complex, graph) of 10 and 5 vertices and the other way round."""
    cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    path = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    for g, h in ((cycle, path), (path, cycle)):
        c = clique_complex(g, 2)
        message = f"graph has {h.vertex_count} vertices but the complex has {g.vertex_count}"
        for count in (
            lambda: faces_on_large_components(c, h, 1, 1),
            lambda: empty_simplex_counts(c, h, 2),
            lambda: empty_simplex_counts(c, h, 3),
            lambda: census.strong_collapse_core(c, h),
        ):
            with pytest.raises(ValueError, match=message):
                count()


# ---------------------------------------------------------------------------
# Subgraph census and canonical forms
# ---------------------------------------------------------------------------


def test_p5_count_in_five_cycle():
    p5 = canonical_form(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert subgraph_counts(cycle_graph(5), [p5], induced=False) == [5]


def test_induced_c4_in_k4_is_zero():
    c4 = canonical_form(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert subgraph_counts(k4, [c4], induced=True) == [0]


def test_tree_bound_on_path_six():
    g = path_graph(6)
    t1, t2, t3 = subgraph_counts(g, tree_patterns_order5(), induced=False)
    assert (t1, t2, t3) == (2, 0, 0)
    assert tree_counts_order5(g) == (t1, t2, t3)
    c = clique_complex(g, 2)
    fge5 = faces_on_large_components(c, g, 1, 5)
    assert fge5 == 5
    assert fge5 <= 4 * (t1 + t2 + t3)


def _tree_census_oracle(g: Graph) -> tuple[int, int, int]:
    return tuple(subgraph_counts(g, tree_patterns_order5(), induced=False))


def test_tree_counts_match_subgraph_counts_on_er_graphs():
    # every size from the empty graph up, at both ends of p as well
    for n in range(15):
        for j, p in enumerate((0.0, 0.1, 0.25, 0.5, 0.75, 1.0)):
            g = gen_er_graph(n, p, RngStream(331, 10 * n + j))
            assert tree_counts_order5(g) == _tree_census_oracle(g)


def test_tree_counts_match_subgraph_counts_on_rips_graphs():
    # the graphs of the rips-k1 regime at n=500, alpha=2, where t1-t3 are used
    spec = RegimeSpec(model="rips", k=1, n=500, d=2, alpha=2.0)
    r = spec.resolve_r()
    for t in range(3):
        pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), RngStream(333, t))
        g = geometric_graph(pts, r)
        assert g.edge_count > 0
        assert tree_counts_order5(g) == _tree_census_oracle(g)


def test_tree_counts_match_centre_oracle():
    # rips-k1-n500 graphs, where t1-t3 bound f_1^(>=5), and ER graphs up to p = 1; the
    # tallies hold each tree at its centre, where twice the paths is even and >= 0
    spec = RegimeSpec(model="rips", k=1, n=500, d=2, alpha=2.0)
    graphs = list(_regime_graphs(spec, 337, 10))
    for j, p in enumerate((0.05, 0.2, 0.5, 1.0)):
        graphs += [gen_er_graph(n, p, RngStream(339, 10 * j + n)) for n in (30, 60)]
    for g in graphs:
        assert tree_counts_order5(g) == tree_counts_by_centres(g)
        path2, star, spider = tree_tallies_by_centres(g)
        assert all(x % 2 == 0 and x >= 0 for x in path2)
        tallies = [a.tolist() for a in census._tree_counts(g)]
        assert tallies == [[x // 2 for x in path2], star, spider]


@pytest.mark.parametrize("n", range(5, 10))
def test_tree_counts_on_complete_graphs(n):
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    path = math.factorial(n) // (2 * math.factorial(n - 5))
    star = n * math.comb(n - 1, 4)
    spider = n * (n - 1) * (n - 2) * math.comb(n - 3, 2)
    assert tree_counts_order5(g) == (path, star, spider)
    if n == 6:
        assert (path, star, spider) == (360, 30, 360)


def test_automorphism_counts():
    assert automorphism_count(canonical_form(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) == 2
    assert automorphism_count(canonical_form(5, [(0, 1), (0, 2), (0, 3), (0, 4)])) == 24
    assert automorphism_count(canonical_form(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == 8
    assert automorphism_count(cross_polytope_skeleton(2)) == 48
    assert automorphism_count(canonical_form(4, [(0, 1), (2, 3)])) == 8
    assert automorphism_count(canonical_form(3, [])) == 6


def test_canonical_form_invariant_under_permutation():
    gen = RngStream(323).generator()
    for _ in range(40):
        n = int(gen.integers(2, 9))
        g = gen_er_graph(n, float(gen.random()), RngStream(int(gen.integers(2**32))))
        perm = list(gen.permutation(n))
        edges2 = [(perm[u], perm[v]) for u, v in edge_list(g)]
        assert canonical_form(n, edge_list(g)) == canonical_form(n, edges2)


def test_canonical_form_separates_non_isomorphic():
    from oracles import is_isomorphic

    gen = RngStream(325).generator()
    graphs = []
    for _ in range(25):
        n = 6
        g = gen_er_graph(n, float(gen.random()), RngStream(int(gen.integers(2**32))))
        graphs.append(edge_list(g))
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            same_form = canonical_form(6, graphs[a]) == canonical_form(6, graphs[b])
            assert same_form == is_isomorphic(6, graphs[a], graphs[b])


def test_connected_subsets_exact():
    gen = RngStream(327).generator()
    for _ in range(25):
        n = int(gen.integers(3, 10))
        g = gen_er_graph(n, 0.4, RngStream(int(gen.integers(2**32))))
        assert list(connected_subsets(g, 1)) == [(v,) for v in range(n)]
        for size in (1, 2, 3, 4, 5):
            mine = sorted(connected_subsets(g, size))
            ref = sorted(
                S
                for S in combinations(range(n), size)
                if len(
                    brute_components(
                        size,
                        [
                            (S.index(u), S.index(v))
                            for u, v in edge_list(g)
                            if u in S and v in S
                        ],
                    )
                )
                == 1
            )
            assert mine == ref
            assert len(set(mine)) == len(mine)


def test_subgraph_counts_match_brute_force():
    gen = RngStream(329).generator()
    patterns = [
        canonical_form(4, [(0, 1), (1, 2), (2, 3)]),
        canonical_form(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        canonical_form(3, [(0, 1), (1, 2)]),
        canonical_form(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
        canonical_form(4, [(0, 1), (2, 3)]),  # 2K2: disconnected, a second root placed anywhere
        CanonicalGraph(4, ((2, 3), (0, 2), (1, 2))),  # hand-built, not canonical
        canonical_form(3, []),  # edgeless: every vertex is a candidate at each position
        canonical_form(4, [(0, 1), (1, 2), (0, 2)]),  # triangle plus an isolated vertex
        canonical_form(1, []),
    ]
    for _ in range(20):
        n = int(gen.integers(4, 9))
        g = gen_er_graph(n, float(gen.random() * 0.6 + 0.2), RngStream(int(gen.integers(2**32))))
        for induced in (True, False):
            mine = subgraph_counts(g, patterns, induced=induced)
            for pat, got in zip(patterns, mine):
                if pat.vertex_count > n:
                    assert got == 0
                    continue
                ref = brute_subgraph_count(
                    n, neighbor_sets(g), pat.edges, pat.vertex_count, induced
                )
                assert got == ref
                if pat.vertex_count == 1:
                    assert got == n


def test_subgraph_counts_rejects_large_pattern():
    big = canonical_form(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(ValueError):
        subgraph_counts(path_graph(4), [canonical_form(10, [])])
    with pytest.raises(ValueError, match="at least one vertex"):
        subgraph_counts(path_graph(4), [canonical_form(0, [])])
    assert subgraph_counts(path_graph(12), [big], induced=False)[0] == 4


# ---------------------------------------------------------------------------
# Extension types
# ---------------------------------------------------------------------------


def test_extension_types_k0_and_k1():
    assert len(enumerate_extension_types(0)) == 1
    types1 = enumerate_extension_types(1)
    assert len(types1) == 3
    # all three are trees on five vertices containing the base edge
    assert all(t.vertex_count == 5 and t.edge_count == 4 for t in types1)


def test_extension_types_k2_honest_count():
    # the extension algorithm provably yields 18 classes for k=2, verified
    # here against a brute-force permutation-isomorphism dedup of all runs;
    # the acceptance suite pins 17 and is an expected failure (see
    # docs/decisions.md, section 2, for the counting argument)
    from oracles import is_isomorphic

    types2 = enumerate_extension_types(2)
    assert all(t.vertex_count == 7 and t.edge_count == 7 for t in types2)
    reps: list[tuple] = []
    for t in sorted(types2, key=lambda cg: cg.edges):
        assert not any(is_isomorphic(7, t.edges, r) for r in reps)
        reps.append(t.edges)
    assert len(types2) == 18


def test_extension_types_rooted_tree_structure():
    # every class is the base clique plus a forest: edge count is exact
    for k in (0, 1, 2):
        for t in enumerate_extension_types(k):
            assert t.vertex_count == 2 * k + 3
            assert t.edge_count == math.comb(k + 1, 2) + k + 2


# ---------------------------------------------------------------------------
# Exact ER moments
# ---------------------------------------------------------------------------


def test_er_expected_faces_examples():
    assert er_expected_faces(4, 1, 0.5) == pytest.approx(3.0)
    assert er_expected_faces(30, 2, 1.0) == math.comb(30, 3)
    assert er_expected_faces(10, 0, 0.0) == 10.0
    assert er_expected_faces(10, 3, 0.0) == 0.0
    assert er_expected_faces(3, 5, 0.4) == 0.0


def test_er_expected_faces_log_space_large_n():
    import mpmath

    # huge n: float(comb) overflows, forcing the log-space path
    n, k, p = 10_000, 999, 0.9935
    with pytest.raises(OverflowError):
        float(math.comb(n, k + 1))
    v = er_expected_faces(n, k, p)
    with mpmath.workdps(60):
        expected = float(
            mpmath.binomial(n, k + 1) * mpmath.mpf(p) ** math.comb(k + 1, 2)
        )
    assert math.isfinite(v)
    assert v == pytest.approx(expected, rel=1e-8)


def test_er_variance_k1_is_binomial():
    assert er_variance_faces(3, 1, 0.5) == pytest.approx(0.75)
    for n, p in ((10, 0.3), (25, 0.8)):
        assert er_variance_faces(n, 1, p) == pytest.approx(
            math.comb(n, 2) * p * (1 - p), rel=1e-12
        )


def test_er_moments_degenerate():
    for k in (1, 2, 3):
        assert er_variance_faces(12, k, 0.0) == 0.0
        assert er_variance_faces(12, k, 1.0) == 0.0
        assert er_covariance_faces(12, k, 0.0) == 0.0
        assert er_covariance_faces(12, k, 1.0) == 0.0


def test_er_moments_match_monte_carlo_quick():
    # lighter sibling of acceptance criterion 8
    from randcomplex.generators import cliques_of_order

    n, p, trials = 18, 0.25, 20_000
    f1s = np.empty(trials)
    f2s = np.empty(trials)
    for t in range(trials):
        g = gen_er_graph(n, p, RngStream(4242, t))
        f1s[t] = g.edge_count
        f2s[t] = len(cliques_of_order(g, 3))
    for k, samples in ((1, f1s), (2, f2s)):
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(trials)
        assert abs(mean - er_expected_faces(n, k, p)) <= 3 * se
        var = samples.var(ddof=1)
        # variance of the sample variance, normal-ish approximation
        m4 = ((samples - mean) ** 4).mean()
        se_var = math.sqrt(max(m4 - var**2 * (trials - 3) / (trials - 1), 0) / trials)
        assert abs(var - er_variance_faces(n, k, p)) <= 4 * se_var
    cov = np.cov(f1s, f2s, ddof=1)[0, 1]
    prod = (f1s - f1s.mean()) * (f2s - f2s.mean())
    se_cov = prod.std(ddof=1) / math.sqrt(trials)
    assert abs(cov - er_covariance_faces(n, 1, p)) <= 4 * se_cov


# ---------------------------------------------------------------------------
# The empty-simplex shape integral
# ---------------------------------------------------------------------------


def test_mu_rejects_small_k():
    with pytest.raises(ValueError):
        estimate_mu(2, 2, 100, RngStream(0))


def test_mu_d1_vanishes_with_quadrature_oracle():
    # on the line, pairwise interval intersection forces total intersection
    # (Helly), so the integrand is identically zero; quadrature agrees
    quad = mu_quadrature_k3(1, 400)
    assert quad == 0.0
    est = estimate_mu(3, 1, 200_000, RngStream(606))
    assert est.value == 0.0 and est.hits == 0
    assert abs(est.value - quad) <= 3 * max(est.std_error, 1e-12)


def test_mu_raised_threshold_vanishes():
    est = estimate_mu(3, 2, 50_000, RngStream(607), full_intersection_radius=4.0)
    assert est.value == 0.0


@pytest.mark.parametrize("k", [3, 4])
def test_mu_rejects_a_non_positive_full_radius_for_every_k(k):
    # k = 3 and k = 4 take different hit paths; both must refuse up front
    for rho in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="full_intersection_radius"):
            estimate_mu(k, 2, 2_000, RngStream(1), full_intersection_radius=rho)
    null = estimate_mu(k, 2, 2_000, RngStream(1), full_intersection_radius=math.inf)
    assert (null.hits, null.value) == (0, 0.0)


def test_mu_two_seeds_agree():
    a = estimate_mu(3, 2, 1_000_000, RngStream(1))
    b = estimate_mu(3, 2, 1_000_000, RngStream(2))
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_mu_matches_grid_quadrature_d2():
    est = estimate_mu(3, 2, 400_000, RngStream(608))
    quad = mu_quadrature_k3(2, 44)
    # midpoint quadrature carries O(h) boundary error on the indicator set
    assert est.value == pytest.approx(quad, rel=0.08)


def test_mu_helly_zero_in_low_dimension():
    # four disks in the plane: triple-wise intersection forces a common point
    est = estimate_mu(4, 2, 30_000, RngStream(609))
    assert est.value == 0.0


def test_mu_k4_d3_positive():
    est = estimate_mu(4, 3, 150_000, RngStream(610))
    assert est.value > 0.0
    assert est.value > 5 * est.std_error


def test_mu_repeats_exactly():
    # more than one block, and a partial last one
    assert MU_BLOCK_SIZE < 40_000 and 40_000 % MU_BLOCK_SIZE
    a = estimate_mu(3, 2, 40_000, RngStream(611))
    b = estimate_mu(3, 2, 40_000, RngStream(611))
    assert a == b
    assert a.hits == mu_hits_per_sample(3, 2, 40_000, RngStream(611))
    # the array kernel against one scalar test per sample, on the same draws;
    # hits are rare for k > d at rho = 1 (Helly rules them out at k = d + 2),
    # and rho = 0.9 gives k = 5 hits
    for k, d, rho, seed in [
        (3, 3, 1.0, 612), (4, 2, 1.0, 613), (4, 3, 1.0, 614),
        (5, 3, 1.0, 615), (5, 4, 1.0, 616), (5, 3, 0.9, 617), (5, 4, 0.9, 618),
    ]:
        est = estimate_mu(k, d, 3_000, RngStream(seed), full_intersection_radius=rho)
        assert est.hits == mu_hits_per_sample(k, d, 3_000, RngStream(seed), rho)
        assert est.hits > 0 or (rho == 1.0 and k > d)
