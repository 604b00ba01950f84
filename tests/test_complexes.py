"""Core type behavior: components, f-vectors, validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from randcomplex import (
    DensitySpec,
    Graph,
    PointCloud,
    RegimeSpec,
    RngStream,
    SimplicialComplex,
    clique_complex,
    components,
    f_vector,
    gen_er_graph,
    geometric_graph,
    sample_points,
    skeleton_graph,
)

from oracles import brute_adjacency, brute_components, components_by_bfs, cross_polytope_zoo


def test_components_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dec = components(g)
    assert dec.count == 2
    assert sorted(dec.component_sizes.values()) == [2, 2]


def test_components_empty_graph():
    dec = components(Graph.from_edges(5, []))
    assert dec.count == 5
    assert all(size == 1 for size in dec.component_sizes.values())
    assert dec.component_id == (0, 1, 2, 3, 4)


def test_components_path():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dec = components(g)
    assert dec.count == 1
    assert dec.size_of(3) == 5


def test_components_labels_are_minima():
    g = Graph.from_edges(6, [(2, 4), (1, 5)])
    dec = components(g)
    assert dec.component_id == (0, 1, 2, 3, 2, 1)


def test_components_match_union_find_oracle_and_permutation():
    gen = RngStream(31).generator()
    for _ in range(60):
        n = int(gen.integers(1, 14))
        p = float(gen.random())
        g = gen_er_graph(n, p, RngStream(int(gen.integers(0, 2**32))))
        groups = brute_components(n, list(g.edges()))
        dec = components(g)
        assert dec.count == len(groups)
        assert sorted(dec.component_sizes.values()) == sorted(map(len, groups))
        # permuting labels permutes components but preserves the partition
        perm = list(gen.permutation(n))
        g2 = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        dec2 = components(g2)
        assert sorted(dec2.component_sizes.values()) == sorted(
            dec.component_sizes.values()
        )


def _benchmark_regime_graphs(count: int):
    for spec in (
        RegimeSpec(model="cech", k=3, n=2000, d=2, alpha=3.0),
        RegimeSpec(model="rips", k=1, n=500, d=2, alpha=2.0),
        RegimeSpec(model="rips", k=2, n=150, d=2, alpha=1.0),
    ):
        for t in range(count):
            pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), RngStream(37, t))
            yield geometric_graph(pts, spec.resolve_r())
    p = RegimeSpec(model="er_clique", k=1, n=400, gamma=0.7).resolve_p()
    for t in range(count):
        yield gen_er_graph(400, p, RngStream(37, t))


def test_components_match_bfs_oracle():
    graphs = list(cross_polytope_zoo().values()) + list(_benchmark_regime_graphs(5))
    for g in graphs:
        got, want = components(g), components_by_bfs(g)
        assert got.component_id == want.component_id
        # same sizes, listed in the same order (by label)
        assert list(got.component_sizes.items()) == list(want.component_sizes.items())


def test_from_edges_builds_rows_only_on_demand():
    g = Graph.from_edges(5, [(3, 1), (0, 4), (1, 0)])
    rows = Graph(5, ((1, 4), (0, 3), (), (1,), (0,)))
    assert g.edge_count == 3 and g == rows and hash(g) == hash(rows)
    assert g != Graph(5, ((1,), (0, 3), (), (1,), ())) and g != Graph(6, rows.adjacency + ((),))
    components(g)
    assert g._adjacency is None and g._neighbor_sets is None
    assert g.adjacency == rows.adjacency and g.neighbor_sets == rows.neighbor_sets


def test_f_vector_k4():
    g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert f_vector(clique_complex(g, 3)) == (4, 6, 4, 1)


def test_f_vector_four_cycle_padded_zeros():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert f_vector(clique_complex(g, 3)) == (4, 4, 0, 0)


def test_f_vector_empty_graph():
    assert f_vector(clique_complex(Graph.from_edges(3, []), 2)) == (3, 0, 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_f_vector_complete_graph_binomials(m):
    g = Graph.from_edges(m, [(u, v) for u in range(m) for v in range(u + 1, m)])
    assert f_vector(clique_complex(g, m - 1)) == tuple(
        math.comb(m, i + 1) for i in range(m)
    )


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    g = Graph(2, ((1,), ()))
    with pytest.raises(ValueError):
        g.validate()  # asymmetric
    Graph.from_edges(3, [(0, 1), (1, 0)]).validate()  # duplicates collapse


def test_from_edges_reads_every_input_form_alike():
    pairs = [(0, 3), (3, 0), (1, 2), (1, 2), (4, 1), (0, 3), (2, 0)]
    expected = Graph(5, brute_adjacency(5, pairs))
    forms = [pairs, (e for e in pairs), tuple(pairs), np.array(pairs), np.array(pairs, np.int32)]
    for edges in forms:
        assert Graph.from_edges(5, edges) == expected
    for n in (0, 4):
        for edges in ([], (), iter(()), np.empty((0, 2), dtype=np.int64)):
            assert Graph.from_edges(n, edges) == Graph(n, ((),) * n)
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(0, [(0, 1)])
    gen = RngStream(32).generator()
    for _ in range(40):
        n = int(gen.integers(2, 30))
        edges = [tuple(e) for e in gen.integers(0, n, size=(int(gen.integers(0, 80)), 2))]
        edges = [(u, v) for u, v in edges if u != v]
        g = Graph.from_edges(n, edges)
        g.validate()
        assert g.adjacency == brute_adjacency(n, edges)


def test_edge_keys_memo_is_read_only_and_outside_equality():
    gen = RngStream(33).generator()
    for n in (0, 1, 2, 9, 30):
        edges = gen.integers(0, max(n, 1), size=(3 * n, 2))
        built = Graph.from_edges(n, edges[edges[:, 0] != edges[:, 1]])
        bare = Graph(n, built.adjacency)
        assert bare._edge_keys is None and built._edge_keys is not None
        # a filled memo changes neither equality nor the hash
        assert built == bare and hash(built) == hash(bare)
        assert np.array_equal(bare.edge_keys, built.edge_keys)
        assert built.edge_keys.dtype == bare.edge_keys.dtype == np.int64
        assert bare == Graph(n, built.adjacency) and hash(bare) == hash(Graph(n, built.adjacency))
        for keys in (built.edge_keys, bare.edge_keys):
            assert not keys.flags.writeable
            if keys.size:
                with pytest.raises(ValueError):
                    keys[0] = 0


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (2, 2)], "self-loop at vertex 2"),
        ([(0, 1), (5, 5)], "self-loop at vertex 5"),
        ([(0, 1), (-1, 2)], r"edge \(-1,2\) out of range"),
        ([(0, 1), (1, 3), (2, 2)], r"edge \(1,3\) out of range"),
        (np.array([[0, 1], [2, 0], [0, 4]]), r"edge \(0,4\) out of range"),
        ([(0, 1, 2), (1, 2, 0)], r"\(u, v\) pairs"),
        (np.array([0, 1]), r"\(u, v\) pairs"),
    ],
)
def test_from_edges_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(3, edges)


@pytest.mark.parametrize("edges", [[(0.5, 1)], [(0, 1.0)], [("0", 1)], np.zeros((1, 2))])
def test_from_edges_never_truncates_or_parses_vertices(edges):
    with pytest.raises(TypeError, match="integers"):
        Graph.from_edges(3, edges)


def test_complex_validation_rejects_missing_subface():
    with pytest.raises(ValueError):
        SimplicialComplex.from_face_lists(3, [[(0,), (1,), (2,)], [(0, 1)], [(0, 1, 2)]])
    c = SimplicialComplex.from_face_lists(
        3, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
    )
    assert c.max_dim == 2


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(2, [[0.0, float("nan")]])
    with pytest.raises(ValueError):
        PointCloud(2, [[0.0, 1.0, 2.0]])
    pc = PointCloud(3, [], density_id="uniform_cube")
    assert len(pc) == 0


def test_skeleton_graph_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert skeleton_graph(clique_complex(g, 2)) == g
