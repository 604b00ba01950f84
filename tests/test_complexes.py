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

from oracles import (
    brute_adjacency, brute_components, components_by_bfs, cross_polytope_zoo, edge_list,
    neighbor_rows, validate_by_sets
)
from randcomplex import census
from randcomplex.complexes import MAX_KEYED_VERTICES


def test_components_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dec = components(g)
    assert dec.count == 2
    assert dec.size.tolist() == [2, 0, 2, 0]


def test_components_empty_graph():
    dec = components(Graph.from_edges(5, []))
    assert dec.count == 5
    assert dec.size.tolist() == [1] * 5
    assert dec.label.tolist() == [0, 1, 2, 3, 4]


def test_components_path():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dec = components(g)
    assert dec.count == 1
    assert dec.size[dec.label[3]] == 5


def test_components_labels_are_minima():
    g = Graph.from_edges(6, [(2, 4), (1, 5)])
    dec = components(g)
    assert dec.label.tolist() == [0, 1, 2, 3, 2, 1]


def test_components_match_union_find_oracle_and_permutation():
    gen = RngStream(31).generator()
    for _ in range(60):
        n = int(gen.integers(1, 14))
        p = float(gen.random())
        g = gen_er_graph(n, p, RngStream(int(gen.integers(0, 2**32))))
        groups = brute_components(n, edge_list(g))
        dec = components(g)
        assert dec.count == len(groups)
        assert sorted(dec.size[dec.size > 0].tolist()) == sorted(map(len, groups))
        # permuting labels permutes components but preserves the partition
        perm = list(gen.permutation(n))
        g2 = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edge_list(g)])
        dec2 = components(g2)
        assert sorted(dec2.size.tolist()) == sorted(dec.size.tolist())


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
        assert got.label.tolist() == want.label.tolist()
        # same sizes, listed in the same order (by label)
        assert got.size.tolist() == want.size.tolist()


def test_from_edges_builds_rows_only_on_demand():
    g = Graph.from_edges(5, [(3, 1), (0, 4), (1, 0)])
    same = Graph.from_edges(5, [(0, 1), (1, 3), (4, 0), (3, 1)])
    rows = ((1, 4), (0, 3), (), (1,), (0,))
    assert g.edge_count == 3 and g == same and hash(g) == hash(same)
    assert g != Graph.from_edges(5, [(0, 1), (1, 3)])
    assert g != Graph.from_edges(6, [(0, 1), (1, 3), (0, 4)])
    components(g)
    # the keys are the one form: no neighbour rows or sets are held beside them
    assert Graph.__slots__ == ("vertex_count", "edge_keys", "_components", "_codegrees", "_cliques")
    assert neighbor_rows(g) == rows


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
    with pytest.raises(ValueError, match="non-negative"):
        Graph.from_edges(-1, [])
    with pytest.raises(TypeError):
        Graph(2, ((1,), ()))  # no rows constructor: from_edges checks every pair
    # duplicates collapse
    assert neighbor_rows(Graph.from_edges(3, [(0, 1), (1, 0)])) == ((1,), (0,), ())


def test_from_edges_refuses_keys_past_int64():
    """Keys u*n + v fit int64 up to n = isqrt(2**63 - 1); past it, from_edges raises.

    Both sides are built from one edge, so no O(n) array is allocated.
    """
    top = MAX_KEYED_VERTICES
    assert top == math.isqrt(2**63 - 1) == census._MAX_PAIRS
    assert top**2 < 2**63 <= (top + 1) ** 2
    g = Graph.from_edges(top, [(top - 1, 0)])
    assert g.edge_keys.tolist() == [top - 1, (top - 1) * top] and g.edge_count == 1
    assert np.divmod(g.edge_keys, top)[0].tolist() == [0, top - 1]
    for n in (top + 1, 4_000_000_000):
        with pytest.raises(ValueError, match=f"vertex_count={n} .*int64"):
            Graph.from_edges(n, [(n - 1, 1)])


def test_from_edges_reads_every_input_form_alike():
    pairs = [(0, 3), (3, 0), (1, 2), (1, 2), (4, 1), (0, 3), (2, 0)]
    expected = Graph.from_edges(5, pairs)
    assert neighbor_rows(expected) == brute_adjacency(5, pairs)
    forms = [(e for e in pairs), tuple(pairs), np.array(pairs), np.array(pairs, np.int32)]
    for edges in forms:
        assert Graph.from_edges(5, edges) == expected
    for n in (0, 4):
        for edges in ([], (), iter(()), np.empty((0, 2), dtype=np.int64)):
            g = Graph.from_edges(n, edges)
            assert g.edge_count == 0 and neighbor_rows(g) == ((),) * n
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(0, [(0, 1)])
    gen = RngStream(32).generator()
    for _ in range(40):
        n = int(gen.integers(2, 30))
        edges = [tuple(e) for e in gen.integers(0, n, size=(int(gen.integers(0, 80)), 2))]
        edges = [(u, v) for u, v in edges if u != v]
        g = Graph.from_edges(n, edges)
        assert np.all(np.diff(g.edge_keys) > 0)
        assert neighbor_rows(g) == brute_adjacency(n, edges)


def test_edge_keys_memo_is_read_only_and_outside_equality():
    gen = RngStream(33).generator()
    for n in (0, 1, 2, 9, 30):
        edges = gen.integers(0, max(n, 1), size=(3 * n, 2))
        pairs = edges[edges[:, 0] != edges[:, 1]]
        built, bare = Graph.from_edges(n, pairs), Graph.from_edges(n, pairs[::-1, ::-1])
        components(built), clique_complex(built, 2)
        assert built._components is not None and bare._components is None
        # filled memos change neither equality nor the hash
        assert built == bare and hash(built) == hash(bare)
        rows = brute_adjacency(n, pairs.tolist())
        assert built.edge_keys.tolist() == [u * n + v for u, nbrs in enumerate(rows) for v in nbrs]
        assert built.edge_keys.dtype == bare.edge_keys.dtype == np.int64
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


def _verdict(check, c: SimplicialComplex) -> bool:
    try:
        check(c)
    except ValueError:
        return False
    return True


def _with_layer(c: SimplicialComplex, dim: int, rows) -> SimplicialComplex:
    """c with face layer `dim` replaced by `rows`, unvalidated."""
    layer = np.array(rows, dtype=np.int64).reshape(-1, dim + 1)
    faces = c.faces[:dim] + (layer,) + c.faces[dim + 1 :]
    return SimplicialComplex(c.vertex_count, faces, c.max_dim)


def test_validate_by_face_keys_agrees_with_set_oracle():
    """Corrupted layers: the face-key validator and the set loop accept and reject alike."""
    triangle = SimplicialComplex.from_face_lists(
        3, [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
    )
    cases = [
        (triangle, True),
        # at n = 3 the out-of-range edge (0, 5) has the key 0*3 + 5 of (1, 2)
        (_with_layer(triangle, 1, [(0, 1), (0, 2), (0, 5)]), False),
        (_with_layer(triangle, 1, [(-1, 1), (0, 1), (0, 2), (1, 2)]), False),
        (_with_layer(triangle, 2, [(0, 1, 3)]), False),
        (_with_layer(triangle, 1, [(0, 1), (0, 2), (2, 1)]), False),
        (_with_layer(triangle, 2, [(0, 2, 1)]), False),
        (_with_layer(triangle, 2, []), True),  # dropping a top face leaves a complex
    ]
    gen = RngStream(35).generator()
    for t in range(12):
        c = clique_complex(gen_er_graph(9, 0.7, RngStream(35, t)), 3)
        cases.append((c, True))
        for dim in range(1, 4):
            rows = c.faces[dim].tolist()
            if len(rows) < 2:
                continue
            i = int(gen.integers(len(rows) - 1))
            swapped = rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2 :]
            duplicated = rows[: i + 1] + rows[i:]
            outside = [r[:-1] + [c.vertex_count + 2] if j == i else r for j, r in enumerate(rows)]
            reversed_row = [r[::-1] if j == i else r for j, r in enumerate(rows)]
            for bad in (swapped, duplicated, outside, reversed_row):
                cases.append((_with_layer(c, dim, bad), False))
            # a dropped face leaves a complex unless it is a facet of a face one dimension up
            cofaces = c.faces[dim + 1].tolist() if dim < 3 else []
            kept = not any(set(rows[i]) <= set(f) for f in cofaces)
            cases.append((_with_layer(c, dim, rows[:i] + rows[i + 1 :]), kept))
    assert sum(valid for _, valid in cases) > 12  # some dropped faces leave a complex
    for c, valid in cases:
        assert _verdict(validate_by_sets, c) == _verdict(SimplicialComplex.validate, c) == valid


def _assert_face_form(c: SimplicialComplex):
    assert len(c.faces) == c.max_dim + 1
    for i, layer in enumerate(c.faces):
        assert isinstance(layer, np.ndarray) and layer.dtype == np.int64
        assert layer.shape == (len(layer), i + 1) and not layer.flags.writeable
        rows = layer.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert all(row == sorted(set(row)) for row in rows)
        if len(layer):
            with pytest.raises(ValueError):
                layer[0, 0] = 0


def test_every_constructor_gives_read_only_int64_face_arrays():
    from randcomplex import cech_complex, rips_complex
    from randcomplex.generators import cliques_of_order

    built = []
    for n in (0, 1, 2, 12):
        pts = sample_points(n, DensitySpec("uniform_cube", 2), RngStream(34, n))
        g = geometric_graph(pts, 0.2)
        # max_dim 4 leaves empty top layers at every n
        built += [clique_complex(g, 4), cech_complex(pts, 0.2, 4), rips_complex(pts, 0.2, 4)]
        for m in range(1, 6):
            memo = cliques_of_order(g, m)
            assert memo is g._cliques[m - 1] and memo is cliques_of_order(g, m)
            assert memo.dtype == np.int64 and memo.shape == (len(memo), m)
            assert not memo.flags.writeable
            if len(memo):
                with pytest.raises(ValueError):
                    memo[0, 0] = 0
    built += [
        SimplicialComplex.from_face_lists(0, [[]], max_dim=2),
        SimplicialComplex.from_face_lists(1, [[(0,)]], max_dim=1),
        SimplicialComplex.from_face_lists(3, [[[2], (0,), (1,)], [(1, 2), (0, 2), (0, 1)]]),
        SimplicialComplex.from_face_lists(3, [[(0,), (1,), (2,)], [np.array([0, 1])]], max_dim=3),
    ]
    assert sum(c.vertex_count == 0 for c in built) >= 4
    for c in built:
        _assert_face_form(c)
        assert c == SimplicialComplex.from_face_lists(c.vertex_count, c.faces, c.max_dim)
        assert hash(c) == hash(SimplicialComplex.from_face_lists(c.vertex_count, c.faces))


def test_complex_refuses_a_layer_of_the_wrong_form():
    vertices, edges = np.arange(3, dtype=np.int64)[:, None], np.array([[0, 1]], dtype=np.int64)
    bad = [
        (vertices, np.array([[0, 1, 2]], dtype=np.int64)),  # an edge layer of width 3
        (vertices, np.array([0, 1], dtype=np.int64)),  # one-dimensional
        (vertices.ravel(), edges),
        (vertices, edges.astype(np.int32)),
        (vertices, ((0, 1),)),  # tuples, not an array
    ]
    for faces in bad:
        with pytest.raises(ValueError, match="int64 array of shape"):
            SimplicialComplex(3, faces, 1)
    with pytest.raises(ValueError):
        SimplicialComplex.from_face_lists(3, [[(0,), (1,), (2,)], [(0, 1, 2)]])
    with pytest.raises(TypeError):
        SimplicialComplex.from_face_lists(2, [[(0,), (1,)], [(0, 1.0)]])
    assert SimplicialComplex(3, (vertices, edges), 1).faces[1].tolist() == [[0, 1]]


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
