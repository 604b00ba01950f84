"""Betti numbers over GF(q): identities, known spaces, exact oracle."""

from __future__ import annotations

import hashlib
from itertools import combinations, islice

import numpy as np
import pytest

from randcomplex import (
    DensitySpec,
    Graph,
    RegimeSpec,
    RngStream,
    SimplicialComplex,
    betti_numbers,
    betti_numbers_exact,
    boundary_matrix,
    cech_complex,
    check_field_independence,
    clique_complex,
    components,
    euler_characteristic,
    f_vector,
    gen_er_graph,
    geometric_graph,
    instance_census,
    rips_complex,
    sample_points,
)
from randcomplex import homology
from randcomplex.census import strong_collapse_core
from randcomplex.homology import (
    DEFAULT_PRIME,
    _columns,
    _pivot_lows,
    _rank_exact,
    rank_gf,
    require_prime_field,
)

from oracles import (
    boundary_matrix_by_dict, c01_complexes, c03_complexes, collapse_round_survivors, dense,
    face_tuples, rank_by_bareiss, rank_d1_by_union_find
)


def octahedron_graph() -> Graph:
    pairs = ({0, 1}, {2, 3}, {4, 5})
    return Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if {u, v} not in pairs]
    )


def assert_euler_poincare_and_morse(c: SimplicialComplex) -> None:
    """Both cross-cutting identities, on a complex built to full dimension."""
    f = f_vector(c)
    assert f[-1] == 0 or c.max_dim == c.vertex_count - 1
    bv = betti_numbers(c, c.max_dim - 1)
    chi_f = sum((-1) ** i * v for i, v in enumerate(f))
    chi_b = sum((-1) ** i * b for i, b in enumerate(bv.betti))
    assert chi_f == chi_b == euler_characteristic(c)
    for k, b in enumerate(bv.betti):
        upper = f[k]
        lower = f[k] - (f[k - 1] if k >= 1 else 0) - f[k + 1]
        assert lower <= b <= upper


def test_boundary_single_edge():
    c = clique_complex(Graph.from_edges(2, [(0, 1)]), 1)
    bm = boundary_matrix(c, 1)
    assert (bm.row_count, bm.col_count) == (2, 1)
    q = 97
    assert dense(bm, q)[:, 0].tolist() == [q - 1, 1]


def test_boundary_triangle_signs():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    c = clique_complex(g, 2)
    bm = boundary_matrix(c, 2)
    assert (bm.row_count, bm.col_count) == (3, 1)
    mat = dense(bm)
    # alternating by omitted-vertex position: +1 on {1,2}, -1 on {0,2}, +1 on {0,1}
    edges = face_tuples(c.faces[1])
    assert mat[edges.index((1, 2)), 0] == 1
    assert mat[edges.index((0, 2)), 0] == -1
    assert mat[edges.index((0, 1)), 0] == 1


def test_boundary_of_boundary_vanishes():
    q = 2147483629
    gen = RngStream(13).generator()
    for _ in range(100):
        n = int(gen.integers(2, 11))
        g = gen_er_graph(n, float(gen.random()), RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, 3)
        for k in range(2, c.max_dim + 1):
            a = dense(boundary_matrix(c, k - 1), q)
            b = dense(boundary_matrix(c, k), q)
            if a.size and b.size:
                assert not ((a @ b) % q).any()


def test_boundary_degree_out_of_range():
    c = clique_complex(Graph.from_edges(3, [(0, 1)]), 1)
    with pytest.raises(ValueError):
        boundary_matrix(c, 2)
    with pytest.raises(ValueError):
        boundary_matrix(c, 0)


def test_betti_four_cycle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert betti_numbers(clique_complex(g, 2), 1).betti == (1, 1)


def test_betti_octahedron_sphere():
    bv = betti_numbers(clique_complex(octahedron_graph(), 3), 2)
    assert bv.betti == (1, 0, 1)


def test_betti_complete_graphs_contractible():
    for m in (3, 5, 7):
        g = Graph.from_edges(m, [(u, v) for u in range(m) for v in range(u + 1, m)])
        c = clique_complex(g, m - 1)
        bv = betti_numbers(c, m - 2)
        assert bv.betti == (1,) + (0,) * (m - 2)


def test_betti_requires_relations_dimension():
    c = clique_complex(Graph.from_edges(4, [(0, 1), (1, 2)]), 1)
    with pytest.raises(ValueError):
        betti_numbers(c, 1)  # needs 2-faces for beta_1


def test_betti_matches_exact_oracle_quick():
    # smaller sibling of acceptance criterion 1
    gen = RngStream(88).generator()
    for _ in range(40):
        n = int(gen.integers(4, 13))
        p = float(gen.choice([0.3, 0.5, 0.7]))
        g = gen_er_graph(n, p, RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, n - 1)
        up_to = c.max_dim - 1
        assert betti_numbers(c, up_to).betti == betti_numbers_exact(c, up_to).betti


def complete_complex(m: int, max_dim: int) -> SimplicialComplex:
    return clique_complex(
        Graph.from_edges(m, [(u, v) for u in range(m) for v in range(u + 1, m)]), max_dim
    )


def test_rank_sparse_matches_exact_and_float_rank():
    gen = RngStream(4).generator()
    q = 2147483629
    matrices = []
    for _ in range(60):
        n = int(gen.integers(3, 12))
        g = gen_er_graph(n, 0.5, RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, 3)
        matrices += [boundary_matrix(c, k) for k in range(1, c.max_dim + 1)]
    # complete complexes: the heaviest fill-in for the column reduction
    for m in range(6, 11):
        c = complete_complex(m, 4)
        matrices += [boundary_matrix(c, k) for k in (2, 3, 4)]
    for bm in matrices:
        if bm.col_count == 0:
            continue
        rank = rank_gf(bm, q)
        assert rank == _rank_exact(bm)
        assert rank == np.linalg.matrix_rank(dense(bm).astype(float))


def real_projective_plane() -> SimplicialComplex:
    """The 6-vertex RP^2: f = (6, 15, 10), torsion Z/2 in H_1."""
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5),
    ]
    edges = sorted({e for t in triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))})
    vertices = [(v,) for v in range(6)]
    return SimplicialComplex.from_face_lists(6, [vertices, edges, triangles], max_dim=3)


def test_rank_depends_on_field_for_torsion():
    c = real_projective_plane()
    assert f_vector(c) == (6, 15, 10, 0)
    # over GF(2) the torsion of H_1 drops rank d_2 from 10 to 9
    assert betti_numbers(c, 2, q=2).betti == (1, 1, 1)
    assert betti_numbers(c, 2, q=3).betti == (1, 0, 0)
    assert betti_numbers(c, 2).betti == (1, 0, 0)
    assert betti_numbers_exact(c, 2).betti == (1, 0, 0)
    _, _, agree = check_field_independence(c, 2)
    assert agree


# The homology corpora, each with the SHA-256 of the ranks that `betti_numbers`
# gave at q = 2, 3 and DEFAULT_PRIME before it cleared columns
HOMOLOGY_CORPORA = {
    "c01": (c01_complexes, "f658a172f2406127257ff82733497ceec28d201b3e27a0026180b5d6ce3505eb"),
    "c03": (c03_complexes, "473d9956928179022373b43a1ca98d4feb3ac7914323b7983e4c9d7de9c2d562"),
    "er-dense-k2": (
        lambda: (clique_complex(gen_er_graph(16, 0.6, RngStream(41, t)), 3) for t in range(10)),
        "2db23667d8951fa42f058e7a0bc554b77b5ee385283e997405696d4d79086a02",
    ),
    "er-dense-k3": (
        lambda: (clique_complex(gen_er_graph(16, 0.6, RngStream(43, t)), 4) for t in range(10)),
        "251cc09bbbdacddb61814098e9460a9552405620910f7727c7cce7568693e00f",
    ),
    "rp2": (
        lambda: [real_projective_plane()],
        "6f1a45f2764f807c6baa65d5b190113cf9fc3dbdad65f2f1996bd75b1bc6a1cf",
    ),
}


@pytest.mark.parametrize("name", sorted(HOMOLOGY_CORPORA))
def test_cleared_ranks_match_uncleared_exact_and_pinned(name):
    """Clearing keeps every pivot low, so every rank, at q = 2, 3 and the default prime."""
    make, pinned_digest = HOMOLOGY_CORPORA[name]
    digest = hashlib.sha256()
    for c in make():
        bms = [boundary_matrix(c, k) for k in range(1, c.max_dim + 1)]
        exact = [0] + [_rank_exact(bm) for bm in bms]
        for q in (2, 3, DEFAULT_PRIME):
            ranks = betti_numbers(c, q=q).ranks
            digest.update(repr(ranks).encode())
            assert list(ranks) == [0] + [rank_gf(bm, q) for bm in bms]
            if q == DEFAULT_PRIME or name != "rp2":
                assert list(ranks) == exact
            lows = ()
            for bm in reversed(bms[1:]):
                full = set(_pivot_lows(_columns(bm, q), q, ()))
                cleared = set(_pivot_lows(_columns(bm, q), q, lows))
                assert cleared == full
                lows = cleared
    assert digest.hexdigest() == pinned_digest


@pytest.mark.parametrize("name", ["c01", "er-dense-k2", "er-dense-k3", "rp2"])
def test_exact_rank_matches_bareiss(name):
    """The sparse gcd-reduced column reduction and dense Bareiss give one rational rank."""
    for c in HOMOLOGY_CORPORA[name][0]():
        for k in range(1, c.max_dim + 1):
            bm = boundary_matrix(c, k)
            assert _rank_exact(bm) == rank_by_bareiss(bm)


@pytest.mark.parametrize("name", sorted(HOMOLOGY_CORPORA))
def test_boundary_rows_match_dict_oracle(name):
    for c in HOMOLOGY_CORPORA[name][0]():
        for k in range(1, c.max_dim + 1):
            assert boundary_matrix(c, k) == boundary_matrix_by_dict(c, k)


def test_face_keys_stay_inside_int64():
    """A d-face key is below f_{d-1} * n, so the bound is on face counts, not on n**k."""
    faces = tuple(
        np.array(layer, dtype=np.int64)
        for layer in (((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    )
    small = SimplicialComplex(3, faces, 2)
    widest_n = (2**63 - 1) // 3  # edge keys stay below f_0 * n = 3 * n
    for n in (2**32, widest_n):
        big = SimplicialComplex(n, faces, 2)
        assert boundary_matrix(big, 1) == boundary_matrix(small, 1)
        assert boundary_matrix(big, 2) == boundary_matrix(small, 2)
    with pytest.raises(ValueError, match=f"n={widest_n + 1} .*k=2"):
        boundary_matrix(SimplicialComplex(widest_n + 1, faces, 2), 2)


def test_rips_k4_runs_where_packed_keys_would_overflow():
    """Rips k=4 at n=7,000 reduces d5, whose 4-faces would pack to n**5 > 2**63."""
    n = 7000
    spec = RegimeSpec("rips", 4, n, alpha=1)
    assert n**5 >= 2**63
    row = instance_census(spec, RngStream(1, 0))
    assert row["f_5"] > 0
    pts = sample_points(n, DensitySpec("uniform_cube", 2), RngStream(1, 0))
    c = rips_complex(pts, spec.resolve_r(), 5)
    assert f_vector(c) == tuple(row[f"f_{i}"] for i in range(6))
    for k in (4, 5):
        assert boundary_matrix(c, k) == boundary_matrix_by_dict(c, k)


def test_boundary_needs_every_subface():
    layers = (((0,), (1,), (2,)), ((0, 1), (1, 2)), ((0, 1, 2),))
    c = SimplicialComplex(3, tuple(np.array(f, dtype=np.int64) for f in layers), 2)
    with pytest.raises(ValueError, match="misses"):
        boundary_matrix(c, 2)


def test_euler_characteristic_examples():
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert euler_characteristic(clique_complex(k4, 3)) == 1
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert euler_characteristic(clique_complex(c4, 2)) == 0
    assert euler_characteristic(clique_complex(octahedron_graph(), 3)) == 2


def test_euler_poincare_and_morse_on_random_corpus():
    gen = RngStream(17).generator()
    for _ in range(80):
        n = int(gen.integers(2, 11))
        g = gen_er_graph(n, float(gen.random()), RngStream(int(gen.integers(2**32))))
        assert_euler_poincare_and_morse(clique_complex(g, n - 1))


def test_beta0_equals_component_count():
    from randcomplex import components

    gen = RngStream(19).generator()
    for _ in range(40):
        n = int(gen.integers(1, 15))
        g = gen_er_graph(n, 0.15, RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, 2)
        assert betti_numbers(c, 1).betti[0] == components(g).count


def simplex_boundary_faces(k: int, offset: int = 0):
    """All proper faces of a (k-1)-simplex on k vertices, shifted by offset."""
    from itertools import combinations

    verts = list(range(offset, offset + k))
    faces = []
    for dim in range(k - 1):
        faces.append([tuple(c) for c in combinations(verts, dim + 1)])
    return faces


def test_isolated_simplex_boundary_contributes_one_class():
    # boundary of a (k-1)-simplex is a (k-2)-sphere: adds 1 to beta_{k-2}
    for k in (3, 4, 5):
        faces = simplex_boundary_faces(k)
        c = SimplicialComplex.from_face_lists(k, faces, max_dim=k - 1)
        bv = betti_numbers(c, k - 2)
        assert list(bv.betti) == [1] + [0] * (k - 3) + [1]

        # now disjoint union with a filled simplex on k extra vertices
        extra = clique_complex(
            Graph.from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)]),
            k - 1,
        )
        merged = [
            (list(faces[d]) if d < len(faces) else [])
            + [tuple(v + k for v in f) for f in extra.faces[d]]
            for d in range(k)
        ]
        c2 = SimplicialComplex.from_face_lists(2 * k, merged, max_dim=k - 1)
        bv2 = betti_numbers(c2, k - 2)
        assert bv2.betti[k - 2] == 1
        assert bv2.betti[0] == 2


def test_field_independence_two_primes():
    gen = RngStream(23).generator()
    for _ in range(20):
        g = gen_er_graph(9, 0.5, RngStream(int(gen.integers(2**32))))
        c = clique_complex(g, 4)
        b1, b2, agree = check_field_independence(c, 3)
        assert agree
        assert b1.field_prime != b2.field_prime


def test_betti_vector_json():
    c = clique_complex(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 2)
    bv = betti_numbers(c, 1)
    assert (bv.field_prime, bv.betti, bv.ranks) == (2147483629, (1, 0), (0, 2, 1))


def assert_d1_rank_matches_eliminations(c: SimplicialComplex) -> None:
    """The union-find rank d_1 that betti_numbers reports, against both eliminations."""
    bm = boundary_matrix(c, 1)
    expected = c.vertex_count - components(Graph.from_edges(c.vertex_count, c.faces[1])).count
    assert _rank_exact(bm) == expected
    for q in (DEFAULT_PRIME, 2):
        assert betti_numbers(c, q=q).ranks[1] == rank_gf(bm, q) == expected


def test_rank_d1_union_find_matches_eliminations_er():
    gen = RngStream(29).generator()
    for n in range(15):
        for p in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            g = gen_er_graph(n, p, RngStream(int(gen.integers(2**32))))
            assert_d1_rank_matches_eliminations(clique_complex(g, 2))


def test_rank_d1_union_find_matches_eliminations_geometric():
    for t in range(3):
        pts = sample_points(80, DensitySpec("uniform_cube", 2), RngStream(31, t))
        assert_d1_rank_matches_eliminations(rips_complex(pts, 0.06, 2))
        assert_d1_rank_matches_eliminations(cech_complex(pts, 0.06, 2))


def test_rank_d1_degenerate_and_disconnected():
    for n in (0, 1):
        c = clique_complex(Graph.from_edges(n, []), 1)
        assert_d1_rank_matches_eliminations(c)
        assert betti_numbers(c).betti == (n,)
    # triangle, four-cycle, a path and two isolated vertices: 5 components
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6), (7, 8), (8, 9)]
    c = clique_complex(Graph.from_edges(12, edges), 2)
    assert_d1_rank_matches_eliminations(c)
    bv = betti_numbers(c)
    assert bv.betti == (5, 1) and bv.ranks[1] == 7


class _CountingNumpy:
    """numpy for `homology`, counting the `np.minimum.at` calls: two per propagation round."""

    def __init__(self):
        self.minimum, self.calls = self, 0

    def at(self, *args):
        self.calls += 1
        np.minimum.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


def rank_d1_and_rounds(c: SimplicialComplex) -> tuple[int, int]:
    """`_rank_d1(c)`, checked against the union-find oracle, and its propagation rounds."""
    with pytest.MonkeyPatch.context() as m:
        spy = _CountingNumpy()
        m.setattr(homology, "np", spy)
        rank = int(homology._rank_d1(c, c.vertex_count, 1)[0])
    assert rank == rank_d1_by_union_find(c)
    return rank, spy.calls // 2


def _benchmark_regime_complexes(count: int):
    """(complex, is a Rips core) for `count` instances of each benchmark regime, with
    the strong-collapse cores of the Rips ones."""
    p = RegimeSpec(model="er_clique", k=1, n=400, gamma=0.7).resolve_p()
    for t in range(count):
        yield clique_complex(gen_er_graph(400, p, RngStream(41, t)), 2), False
    for spec in (
        RegimeSpec(model="cech", k=3, n=2000, d=2, alpha=3.0),
        RegimeSpec(model="rips", k=1, n=500, d=2, alpha=2.0),
        RegimeSpec(model="rips", k=2, n=150, d=2, alpha=1.0),
    ):
        for t in range(count):
            pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), RngStream(41, t))
            r = spec.resolve_r()
            if spec.model == "cech":
                yield cech_complex(pts, r, 2), False
            else:
                g = geometric_graph(pts, r)
                c = clique_complex(g, spec.k + 1)
                yield c, False
                yield strong_collapse_core(c, g), True


def test_rank_d1_matches_union_find_on_er_corpus_and_benchmark_regimes():
    gen = RngStream(29).generator()
    for n in range(15):  # the corpus of test_rank_d1_union_find_matches_eliminations_er
        for p in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            g = gen_er_graph(n, p, RngStream(int(gen.integers(2**32))))
            assert rank_d1_and_rounds(clique_complex(g, 2))[1] == 0
    rounds = []
    for c, is_core in _benchmark_regime_complexes(20):
        rounds.append(rank_d1_and_rounds(c)[1])
        if is_core:  # about 100 edges: straight to the union-find
            assert rounds[-1] == 0 and len(c.faces[1]) <= homology._LABEL_HANDOFF
    assert max(rounds) < homology._LABEL_ROUNDS and sum(r > 0 for r in rounds) >= 60


def test_rank_d1_hands_over_above_128_edges():
    pairs = RngStream(43).generator().permutation(np.array(list(combinations(range(60), 2))))
    for m, ran in ((128, False), (129, True)):
        c = clique_complex(Graph.from_edges(60, pairs[:m]), 1)
        assert len(c.faces[1]) == m
        assert (rank_d1_and_rounds(c)[1] > 0) == ran


def test_rank_d1_past_the_round_cap():
    """Long paths stop the propagation at the cap; the union-find finishes the rank."""
    n = 2000
    path = SimplicialComplex(
        n, (np.arange(n).reshape(n, 1), np.column_stack((np.arange(n - 1), np.arange(1, n)))), 1
    )
    assert rank_d1_and_rounds(path) == (n - 1, homology._LABEL_ROUNDS)
    # the graph of `randcomplex census --model cech --k 3 --d 1 --n 2000 --r 0.0025 --seed 1`
    pts = sample_points(2000, DensitySpec("uniform_cube", 1), RngStream(1, 0))
    assert rank_d1_and_rounds(cech_complex(pts, 0.0025, 2))[1] == homology._LABEL_ROUNDS


@pytest.mark.parametrize("q", [0, 1, 4, 2**61 - 1, -7, 2.0, True, 2**31 + 11])
def test_field_size_must_be_prime_below_2_31(q):
    c = clique_complex(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 2)
    with pytest.raises(ValueError):
        require_prime_field(q)
    with pytest.raises(ValueError):
        rank_gf(boundary_matrix(c, 2), q)
    with pytest.raises(ValueError):
        betti_numbers(c, q=q)
    with pytest.raises(ValueError):
        check_field_independence(c, q2=q)
    with pytest.raises(ValueError):
        RegimeSpec(model="er_clique", k=1, n=10, p=0.5, field_prime=q)


def test_prime_field_test_matches_trial_division():
    def is_prime(m):
        return m >= 2 and all(m % f for f in range(2, int(m**0.5) + 1))

    candidates = list(range(3000)) + list(range(2**31 - 2000, 2**31))
    for m in candidates:
        try:
            require_prime_field(m)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == is_prime(m), m


def test_small_and_default_primes_still_work():
    c = clique_complex(octahedron_graph(), 3)
    for q in (2, 3, DEFAULT_PRIME, 2147483587):
        assert betti_numbers(c, q=q).betti == (1, 0, 1)
    b1, b2, agree = check_field_independence(c, q1=2, q2=3)
    assert agree and (b1.field_prime, b2.field_prime) == (2, 3)
    assert RegimeSpec(model="er_clique", k=1, n=10, p=0.5, field_prime=3).field_prime == 3


# ---------------------------------------------------------------------------
# The strong-collapse core of a flag complex
# ---------------------------------------------------------------------------


def collapse(g: Graph, max_dim: int) -> tuple[SimplicialComplex, SimplicialComplex]:
    c = clique_complex(g, max_dim)
    return c, strong_collapse_core(c, g)


def assert_no_dominated_vertex(core: SimplicialComplex) -> None:
    closed = {v: {v} for v in core.faces[0][:, 0].tolist()}
    for u, v in core.faces[1].tolist():
        closed[u].add(v)
        closed[v].add(u)
    for u, v in core.faces[1].tolist():
        assert not closed[u] <= closed[v] and not closed[v] <= closed[u]


def test_core_of_complete_graph_is_one_vertex():
    for m in range(1, 9):
        g = Graph.from_edges(m, [(u, v) for u in range(m) for v in range(u + 1, m)])
        c, core = collapse(g, min(m - 1, 4) or 1)
        assert f_vector(core) == (1,) + (0,) * c.max_dim
        assert betti_numbers(core).betti == betti_numbers(c).betti == (1,) + (0,) * (c.max_dim - 1)


def test_cycles_and_octahedron_have_no_dominated_vertex():
    for m in range(4, 10):
        c, core = collapse(Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)]), 2)
        assert core == c and betti_numbers(core).betti == (1, 1)
    c, core = collapse(octahedron_graph(), 3)
    assert core == c and betti_numbers(core).betti == (1, 0, 1)


def test_core_keeps_isolated_vertices_and_every_component():
    # isolated 0 and 11, triangle, path, K4, five-cycle, a star and a fan of triangles
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (7, 8), (7, 9), (7, 10), (8, 9), (8, 10)]
    edges += [(9, 10), (12, 13), (13, 14), (14, 15), (15, 16), (12, 16)]
    edges += [(17, 18), (17, 19), (17, 20), (21, 22), (21, 23), (22, 23), (21, 24), (23, 24)]
    g = Graph.from_edges(25, edges)
    c, core = collapse(g, 3)
    kept = core.faces[0][:, 0]
    assert {0, 11} <= set(kept.tolist())
    assert len(np.unique(components(g).label[kept])) == components(g).count == 8
    assert betti_numbers(core).betti == betti_numbers(c).betti == (8, 1, 0)
    assert f_vector(core) == (12, 5, 0, 0)  # one vertex per contractible component, C5 whole
    assert_no_dominated_vertex(core)


def flag_corpus():
    """The graphs of the ER and Rips members of C01 and C03, then ten of each Rips
    benchmark regime."""
    for c in c01_complexes():
        yield Graph.from_edges(c.vertex_count, c.faces[1])
    for c in islice(c03_complexes(), 730):  # 400 ER, then 330 Rips; the Čech ones follow
        yield Graph.from_edges(c.vertex_count, c.faces[1])
    for spec in (RegimeSpec("rips", 1, 500, alpha=2.0), RegimeSpec("rips", 2, 150, alpha=1.0)):
        for t in range(10):
            pts = sample_points(spec.n, DensitySpec("uniform_cube", 2), RngStream(7, t))
            yield geometric_graph(pts, spec.resolve_r())


def test_core_betti_numbers_match_full_complex():
    """Truncated at k+1, the core has the Betti numbers 0..k of the full complex, and
    its vertices are those one round of strong collapses keeps."""
    cores = 0  # (graph, k) pairs whose core is smaller than the complex
    for g in flag_corpus():
        for k in (1, 2, 3):
            c, core = collapse(g, k + 1)
            assert betti_numbers(core, k).betti == betti_numbers(c, k).betti
            cores += f_vector(core) != f_vector(c)
        assert core.faces[0][:, 0].tolist() == collapse_round_survivors(g)
    assert cores > 2500  # 919 of the 950 graphs lose a vertex


def test_core_betti_numbers_match_exact_oracle():
    for g in islice(flag_corpus(), 0, 1000, 20):
        c, core = collapse(g, min(g.vertex_count - 1, 5) or 1)
        up_to = c.max_dim - 1
        assert betti_numbers_exact(core, up_to).betti == betti_numbers_exact(c, up_to).betti
        assert betti_numbers(core, up_to).betti == betti_numbers_exact(c, up_to).betti
