"""Independent brute-force oracles used to check the package implementations.

Everything here is intentionally naive: direct subset enumeration,
permutation-based isomorphism, exhaustive boundary-subset balls. The
oracles must stay independent of the code paths they verify.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import chain, combinations, permutations

import numpy as np

from randcomplex import (
    ComponentDecomposition, DensitySpec, Graph, RegimeSpec, RngStream, SimplicialComplex,
    betti_numbers, canonical_form, cech_complex, clique_complex, components,
    cross_polytope_counts, empty_simplex_counts, euler_characteristic, f_vector,
    faces_on_large_components, gen_er_graph, geometric_graph, sample_points, tree_counts_order5,
    y_count, z_count
)
from randcomplex.census import MU_BLOCK_SIZE, strong_collapse_core
from randcomplex.generators import cliques_of_order
from randcomplex.homology import BoundaryMatrix
from randcomplex.miniball import RADIUS_RTOL


# ---------------------------------------------------------------------------
# Smallest enclosing ball by exhaustive support-subset search
# ---------------------------------------------------------------------------


def _circumball(points: np.ndarray):
    """Smallest ball with all given points on its boundary, via least squares."""
    base = points[0]
    if len(points) == 1:
        return base, 0.0
    V = points[1:] - base
    gram = 2.0 * (V @ V.T)
    rhs = np.einsum("ij,ij->i", V, V)
    try:
        lam, residuals, rank, _ = np.linalg.lstsq(gram, rhs, rcond=1e-9)
    except np.linalg.LinAlgError:
        return None
    if rank < len(points) - 1:
        return None
    offset = V.T @ lam
    center = base + offset
    # reject if the solve did not actually equalize distances
    dists = np.linalg.norm(points - center, axis=1)
    if dists.max() - dists.min() > 1e-7 * (1.0 + dists.max()):
        return None
    return center, float(dists.max())


def meb_radius_exhaustive(points: np.ndarray) -> float:
    """Min enclosing ball radius: try every boundary subset of size <= d+1."""
    pts = np.asarray(points, dtype=np.float64)
    m, d = pts.shape
    best = math.inf
    for size in range(1, min(m, d + 1) + 1):
        for subset in combinations(range(m), size):
            ball = _circumball(pts[list(subset)])
            if ball is None:
                continue
            center, radius = ball
            if radius >= best:
                continue
            if np.all(np.linalg.norm(pts - center, axis=1) <= radius * (1 + 1e-9) + 1e-12):
                best = radius
    return best


def ball_intersection_by_projection(points: np.ndarray, r: float, iters: int = 4000):
    """Alternating-projection feasibility check for the ball intersection.

    Returns True when the iterates land inside every ball, False when the
    residual stalls clearly above r, and None when undecided.
    """
    pts = np.asarray(points, dtype=np.float64)
    x = pts.mean(axis=0)
    for _ in range(iters):
        moved = False
        for c in pts:
            delta = x - c
            dist = np.linalg.norm(delta)
            if dist > r:
                x = c + delta * (r / dist)
                moved = True
        if not moved:
            return True
    worst = max(np.linalg.norm(x - c) for c in pts)
    if worst <= r * (1 + 1e-9):
        return True
    if worst > r * (1 + 1e-6):
        return False
    return None


def _ball_from_boundary(boundary: list[np.ndarray]) -> tuple[np.ndarray, float] | None:
    """Smallest ball with all of `boundary` on its surface, or None if degenerate.

    The center lies in the affine hull of the boundary points; solving the
    equidistance conditions there gives a (len-1) x (len-1) Gram system.
    """
    m = len(boundary)
    if m == 0:
        return None
    base = boundary[0]
    if m == 1:
        return base.copy(), 0.0
    V = np.array([q - base for q in boundary[1:]])
    gram = 2.0 * (V @ V.T)
    rhs = np.einsum("ij,ij->i", V, V)
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    offset = V.T @ lam
    center = base + offset
    return center, float(np.linalg.norm(offset))


def _contains(ball: tuple[np.ndarray, float] | None, p: np.ndarray) -> bool:
    if ball is None:
        return False
    center, radius = ball
    return float(np.linalg.norm(p - center)) <= radius * (1.0 + RADIUS_RTOL) + 1e-300


def _welzl(pts: list[np.ndarray], limit: int, boundary: list[np.ndarray], dim: int):
    ball = _ball_from_boundary(boundary)
    if len(boundary) == dim + 1:
        return ball
    i = 0
    while i < limit:
        p = pts[i]
        if not _contains(ball, p):
            ball = _welzl(pts, i, boundary + [p], dim)
            # move-to-front: offending points surface early in later passes
            pts.insert(0, pts.pop(i))
        i += 1
    return ball


def min_enclosing_ball(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest ball enclosing `points` (shape (m, d)), by
    Welzl's recursion with move-to-front: the slow path of `miniball.enclosing_radius`."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need at least one point of shape (m, d)")
    m, d = pts.shape
    if m == 1:
        return pts[0].copy(), 0.0
    if m == 2:
        center = 0.5 * (pts[0] + pts[1])
        return center, float(np.linalg.norm(pts[0] - center))
    work = [pts[i] for i in range(m)]
    ball = _welzl(work, m, [], d)
    if ball is None:  # all points coincide up to round-off
        return pts[0].copy(), 0.0
    return ball


def min_enclosing_radius_by_dot(points: np.ndarray) -> float:
    """The scalar closed forms for up to three points, lengths squared by `d @ d`
    (numpy's dot kernel), and Welzl above: the old `min_enclosing_radius`."""
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    if m == 1:
        return 0.0
    if m == 2:
        d = pts[0] - pts[1]
        return 0.5 * math.sqrt(float(d @ d))
    if m == 3:
        d01, d12, d20 = pts[0] - pts[1], pts[1] - pts[2], pts[2] - pts[0]
        x, y, z = float(d01 @ d01), float(d12 @ d12), float(d20 @ d20)
        big = max(x, y, z)
        if big >= x + y + z - big:  # a >= 90 degree angle: diameter ball
            return 0.5 * math.sqrt(big)
        area16 = 2.0 * (x * y + y * z + z * x) - (x * x + y * y + z * z)
        return math.sqrt(x * y * z / area16)
    return min_enclosing_ball(pts)[1]


def cech_complex_per_face(pts, r: float, max_dim: int, graph: Graph | None = None):
    """The Čech complex by one scalar ball test per clique, prefixes in Python sets:
    the slow path of `cech_complex`."""
    g = geometric_graph(pts, r) if graph is None else graph
    P = pts.points
    cliques = clique_complex(g, max_dim).faces
    faces = list(cliques[:2])
    for layer in cliques[2:]:
        kept = set(face_tuples(faces[-1]))
        keep = [
            f[:-1] in kept and min_enclosing_radius_by_dot(P[list(f)]) <= r * (1.0 + RADIUS_RTOL)
            for f in face_tuples(layer)
        ]
        faces.append(layer[np.array(keep, dtype=bool)])
    return SimplicialComplex(g.vertex_count, tuple(faces), max_dim)


# ---------------------------------------------------------------------------
# Graph brute force
# ---------------------------------------------------------------------------


def brute_components(n: int, edges) -> list[set[int]]:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def er_graph_by_triu(n: int, p: float, rng):
    """G(n, p) by the `triu_indices` mask: the slow path of `gen_er_graph`.

    One uniform draw per pair, in row-major upper-triangle order, so it must
    give the same graph as the arithmetic pair decode for every seed.
    """
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.generator().random(iu.size) < p
    return Graph.from_edges(n, zip(iu[mask].tolist(), iv[mask].tolist()))


def geometric_graph_by_offsets(pts, r: float) -> Graph:
    """The closed-rule geometric graph by a per-offset sweep: the slow path of
    `generators.geometric_graph`'s blocked gather.

    A stable x-sort, the same window ends and float test, and no prefilter:
    one array step per offset s, over every sorted position i whose window
    reaches i + s.
    """
    P = pts.points
    n = P.shape[0]
    order = np.argsort(P[:, 0], kind="stable")
    Q = P[order]
    limit_sq = (2.0 * r) * (2.0 * r)
    reach = np.sqrt(np.nextafter(limit_sq, np.inf)) * (1.0 + 1e-9)
    ends = np.searchsorted(Q[:, 0], Q[:, 0] + reach, side="right")
    span = ends - np.arange(n)
    us, vs = [order[:0]], [order[:0]]
    for s in range(1, int(np.max(span, initial=1))):
        i = np.flatnonzero(span > s)
        dist_sq = np.zeros(i.size)
        for c in range(pts.dimension):
            diff = Q[i + s, c] - Q[i, c]
            dist_sq += diff * diff
        kept = i[dist_sq <= limit_sq]
        us.append(order[kept])
        vs.append(order[kept + s])
    return Graph.from_edges(n, np.column_stack((np.concatenate(us), np.concatenate(vs))))


def face_tuples(layer: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a face layer as tuples of ints, in order."""
    return list(map(tuple, layer.tolist()))


def neighbor_rows(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples, decoded key by key: key u*n + v puts v in row u."""
    rows: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for key in g.edge_keys.tolist():
        u, v = divmod(key, g.vertex_count)
        rows[u].append(v)
    return tuple(map(tuple, rows))


def neighbor_sets(g: Graph) -> tuple[frozenset[int], ...]:
    return tuple(map(frozenset, neighbor_rows(g)))


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v, in lexicographic order."""
    return [(u, v) for u, row in enumerate(neighbor_rows(g)) for v in row if u < v]


def collapse_round_survivors(g: Graph) -> list[int]:
    """The vertices v with no neighbour u > v, by closed-neighbourhood sets, ascending.

    u > v when N[v] is a proper subset of N[u], or N[v] = N[u] and u < v:
    the vertices one round of strong collapses keeps.
    """
    closed = [row | {v} for v, row in enumerate(neighbor_sets(g))]
    return [
        v for v, nv in enumerate(closed)
        if not any(nv < closed[u] or (nv == closed[u] and u < v) for u in nv - {v})
    ]


def dense(bm: BoundaryMatrix, q: int | None = None) -> np.ndarray:
    """The boundary matrix as a dense int64 array, entries mod q unless q is None."""
    mat = np.zeros((bm.row_count, bm.col_count), dtype=np.int64)
    for j, row in enumerate(bm.rows.tolist()):
        for i, r in enumerate(row):
            mat[r, j] = (-1) ** i if q is None else (-1) ** i % q
    return mat


def brute_adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of the simple graph on the given pairs, by sets."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs)


def brute_cliques(adj_sets, size: int) -> list[tuple[int, ...]]:
    n = len(adj_sets)
    return [
        S
        for S in combinations(range(n), size)
        if all(v in adj_sets[u] for u, v in combinations(S, 2))
    ]


def cliques_by_set_expansion(adj_sets, max_dim: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Clique layers 0..max_dim by neighbour-set intersection: the slow path of
    `generators._clique_faces`.

    An i-face extends only by common neighbors greater than its last vertex,
    so every clique is produced exactly once, in lexicographic order.
    """
    n = len(adj_sets)
    edges = [(u, v) for u in range(n) for v in sorted(adj_sets[u]) if v > u]
    faces: list[list[tuple[int, ...]]] = [[(v,) for v in range(n)], edges]
    nbrs = adj_sets
    for dim in range(2, max_dim + 1):
        cur: list[tuple[int, ...]] = []
        for face in faces[dim - 1]:
            cand = nbrs[face[0]]
            for v in face[1:]:
                cand = cand & nbrs[v]
            last = face[-1]
            for w in sorted(cand):
                if w > last:
                    cur.append(face + (w,))
        faces.append(cur)
    return tuple(tuple(fs) for fs in faces[: max_dim + 1])


def brute_y_count(adj_sets, k: int) -> int:
    total = 0
    for base in brute_cliques(adj_sets, k - 1):
        bset = set(base)
        for u, v in combinations(base, 2):
            for a in adj_sets[u] - bset:
                for b in adj_sets[v] - bset:
                    if a != b:
                        total += 1
    return total


def brute_z_count(adj_sets, k: int) -> int:
    total = 0
    for base in brute_cliques(adj_sets, k - 1):
        bset = set(base)
        for u in base:
            for a in adj_sets[u] - bset:
                for b in adj_sets[a] - bset:
                    if b != a:
                        total += 1
    return total


def y_count_by_sets(g: Graph, k: int) -> int:
    """Y by neighbour-set differences per base clique: the slow path of `census.y_count`."""
    nbrs = neighbor_sets(g)
    total = 0
    for base in cliques_of_order(g, k - 1):
        bset = set(base)
        outside = [nbrs[u] - bset for u in base]
        for i in range(len(base)):
            for j in range(i + 1, len(base)):
                a, b = outside[i], outside[j]
                total += len(a) * len(b) - len(a & b)
    return total


def z_count_by_sets(g: Graph, k: int) -> int:
    """Z by neighbour-set differences per base clique: the slow path of `census.z_count`."""
    nbrs = neighbor_sets(g)
    total = 0
    for base in cliques_of_order(g, k - 1):
        bset = set(base)
        for u in base:
            for a in nbrs[u] - bset:
                total += len(nbrs[a] - bset)
    return total


def tree_tallies_by_centres(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """(path2, star, spider) of each centre m, by one Counter of w_x per centre: the slow
    path of `census._tree_counts`, with the same closed forms (docs/decisions.md, sections 1,
    16). path2[m] is twice the paths centred at m.
    """
    adj = neighbor_rows(g)
    deg = [len(a) for a in adj]
    path2, star, spider = ([0] * g.vertex_count for _ in range(3))
    for m, nm in enumerate(adj):
        dm = deg[m]
        if dm < 2:  # a centre of any of the three trees has degree >= 2
            continue
        w = Counter(chain.from_iterable(adj[b] for b in nm))
        e = [deg[b] - 1 for b in nm]
        t = [w[b] for b in nm]
        p = sum(e)
        tri2 = sum(t)
        # sum_{x != m} w_x (w_x - 1), using w_m = d_m and sum_{x != m} w_x = p
        shared = sum(x * x for x in w.values()) - dm * dm - p
        path2[m] = (
            p * p
            - sum(x * x for x in e)
            - shared
            - 2 * sum(map(operator.mul, t, e))
            + tri2
        )
        star[m] = math.comb(dm, 4)
        spider[m] = math.comb(dm - 1, 2) * p - (dm - 2) * tri2
    return path2, star, spider


def tree_counts_by_centres(g: Graph) -> tuple[int, int, int]:
    """(path, star, spider): the sums of `tree_tallies_by_centres`, the slow path of
    `census.tree_counts_order5`."""
    path2, star, spider = tree_tallies_by_centres(g)
    return sum(path2) // 2, sum(star), sum(spider)


def components_by_bfs(g: Graph) -> ComponentDecomposition:
    """Components by BFS over the adjacency rows: the slow path of `complexes.components`."""
    n = g.vertex_count
    adj = neighbor_rows(g)
    label = [-1] * n
    sizes = [0] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = start
        reached = [start]
        for u in reached:
            for v in adj[u]:
                if label[v] < 0:
                    label[v] = start
                    reached.append(v)
        sizes[start] = len(reached)
    return ComponentDecomposition(np.array(label, dtype=np.int64), np.array(sizes, dtype=np.int64))


def rank_d1_by_union_find(c: SimplicialComplex) -> int:
    """rank d_1 = f_0 - #components: the edges that join two union-find trees."""
    parent = list(range(c.vertex_count))
    rank = 0
    for u, v in c.faces[1].tolist():
        while parent[u] != u:  # find with path halving
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# Boundary matrices and the homology corpora
# ---------------------------------------------------------------------------


def boundary_matrix_by_dict(c, k: int) -> BoundaryMatrix:
    """d_k with each row looked up in a {face: index} dict: the slow path of
    `homology.boundary_matrix`."""
    row_index = {face: i for i, face in enumerate(face_tuples(c.faces[k - 1]))}
    rows = [
        [row_index[face[:i] + face[i + 1 :]] for i in range(k + 1)]
        for face in face_tuples(c.faces[k])
    ]
    return BoundaryMatrix(k, len(c.faces[k - 1]), np.array(rows, dtype=np.int64).reshape(-1, k + 1))


def rank_by_bareiss(bm: BoundaryMatrix) -> int:
    """Rational rank by dense fraction-free (Bareiss) elimination on exact
    integers: the slow path of `homology._rank_exact`."""
    if bm.row_count == 0 or bm.col_count == 0:
        return 0
    mat = dense(bm).tolist()
    rows, cols = bm.row_count, bm.col_count
    if rows > cols:
        mat = [list(col) for col in zip(*mat)]
        rows, cols = cols, rows
    rank = 0
    prev = 1
    for c in range(cols):
        if rank == rows:
            break
        p = next((r for r in range(rank, rows) if mat[r][c]), None)
        if p is None:
            continue
        if p != rank:
            mat[rank], mat[p] = mat[p], mat[rank]
        piv_row = mat[rank]
        piv = piv_row[c]
        # Bareiss update: entries stay minors of the input, division is exact
        for r in range(rank + 1, rows):
            row = mat[r]
            head = row[c]
            for x in range(c, cols):
                row[x] = (piv * row[x] - head * piv_row[x]) // prev
        prev = piv
        rank += 1
    return rank


def validate_by_sets(c) -> None:
    """Sortedness, downward closure and the vertex set by tuples and a set of the
    faces one dimension down: the slow path of `SimplicialComplex.validate`."""
    if c.faces[0].tolist() != [[v] for v in range(c.vertex_count)]:
        raise ValueError("dimension-0 faces must be exactly the vertices")
    for dim in range(1, c.max_dim + 1):
        below = set(face_tuples(c.faces[dim - 1]))
        prev = None
        for face in face_tuples(c.faces[dim]):
            if any(face[i] >= face[i + 1] for i in range(dim)):
                raise ValueError(f"face {face} not strictly increasing")
            if prev is not None and face <= prev:
                raise ValueError(f"faces of dim {dim} not sorted/unique")
            prev = face
            for i in range(dim + 1):
                sub = face[:i] + face[i + 1 :]
                if sub not in below:
                    raise ValueError(f"missing subface {sub} of {face}")


def c01_complexes():
    """The 200 full clique complexes of acceptance criterion 1."""
    gen = RngStream(101).generator()
    for i in range(200):
        p = (0.3, 0.5, 0.7)[i % 3]
        n_hi = 13 if p < 0.7 else 11  # keeps the exact elimination quick
        n = int(gen.integers(4, n_hi))
        yield clique_complex(gen_er_graph(n, p, RngStream(102, i)), n - 1)


def c03_complexes():
    """The 1060 full-dimension ER, Rips and Čech complexes of acceptance criteria 3 and 4."""
    gen = RngStream(103).generator()
    for i in range(400):
        n = int(gen.integers(4, 13))
        p = float(gen.random() * 0.8 + 0.1)
        yield clique_complex(gen_er_graph(n, p, RngStream(104, i)), n - 1)
    for i in range(330):
        pts = sample_points(60, DensitySpec("uniform_cube", 2), RngStream(105, i))
        r = 0.03 + 0.06 * float(gen.random())
        yield clique_complex(geometric_graph(pts, r), 12)
    for i in range(330):
        pts = sample_points(45, DensitySpec("uniform_cube", 2), RngStream(106, i))
        r = 0.04 + 0.06 * float(gen.random())
        yield cech_complex(pts, r, 10)


def faces_on_large_components_by_size_of(c, g: Graph, k: int, i: int) -> int:
    """Per-face size test of the first vertex's component: the slow path of
    `census.faces_on_large_components`."""
    comp = components_by_bfs(g)
    return sum(1 for face in c.faces[k].tolist() if comp.size[comp.label[face[0]]] >= i)


def _is_cross_skeleton(nbrs, subset) -> bool:
    """Induced subgraph is K_{2,..,2} iff every vertex misses exactly one other."""
    sset = set(subset)
    for u in subset:
        missing = len(sset) - 1 - len(nbrs[u] & sset)
        if missing != 1:
            return False
    return True


def _pair_completions(cand: list[int], pairs_left: int, nbrs) -> int:
    """Ways to split candidates into `pairs_left` ordered-by-minimum pairs.

    Every chosen vertex must be adjacent to all later choices except its
    own partner; `cand` already contains only vertices adjacent to all
    earlier pairs.
    """
    if pairs_left == 0:
        return 1
    total = 0
    for i, w in enumerate(cand):
        rest = cand[i + 1 :]
        if len(rest) < 2 * pairs_left - 1:
            break
        wn = nbrs[w]
        for x in rest:
            if x in wn:
                continue
            xn = nbrs[x]
            nxt = [y for y in rest if y != x and y in wn and y in xn]
            total += _pair_completions(nxt, pairs_left - 1, nbrs)
    return total


def cross_counts_by_pairs(g: Graph, k: int) -> tuple[int, int]:
    """(o_k, o~_k) by pair-by-pair enumeration over neighbour sets: the slow path of
    `census.cross_polytope_counts`.

    Copies are enumerated in order of the pair minima: the smallest vertex u,
    its non-neighbour partner v, then further pairs drawn from the common
    neighbourhood. A component counts toward o~_k when every one of its
    2k+2 vertices misses exactly one other.
    """
    size = 2 * k + 2
    mindeg = size - 2
    nbrs = neighbor_sets(g)
    o_induced = 0
    for u in range(g.vertex_count):
        un = nbrs[u]
        if len(un) < mindeg:
            continue
        partners = set()
        for w in un:
            partners.update(x for x in nbrs[w] if x > u and x not in un)
        for v in sorted(partners):
            if len(nbrs[v]) < mindeg:
                continue
            cand = sorted(y for y in un & nbrs[v] if y > u and len(nbrs[y]) >= mindeg)
            o_induced += _pair_completions(cand, k, nbrs)
    comp = components_by_bfs(g)
    groups: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(int(comp.label[v]), []).append(v)
    o_component = sum(
        1 for verts in groups.values() if len(verts) == size and _is_cross_skeleton(nbrs, verts)
    )
    return o_induced, o_component


def is_isomorphic(n: int, edges_a, edges_b) -> bool:
    ea = {frozenset(e) for e in edges_a}
    eb = {frozenset(e) for e in edges_b}
    if len(ea) != len(eb):
        return False

    def degseq(es):
        degs = [0] * n
        for e in es:
            for v in e:
                degs[v] += 1
        return sorted(degs)

    if degseq(ea) != degseq(eb):
        return False
    for perm in permutations(range(n)):
        if {frozenset((perm[u], perm[v])) for u, v in ea} == eb:
            return True
    return False


def cross_polytope_edges(k: int) -> list[tuple[int, int]]:
    n = 2 * k + 2
    return [
        (u, v)
        for u, v in combinations(range(n), 2)
        if not (u % 2 == 0 and v == u + 1)
    ]


def cross_polytope_skeleton(k: int):
    """1-skeleton of the k-dimensional cross-polytope boundary, K_{2,..,2}, in canonical form."""
    return canonical_form(2 * k + 2, cross_polytope_edges(k))


def brute_cross_counts(n: int, adj_sets, k: int) -> tuple[int, int]:
    """(o_k, o~_k) via permutation isomorphism against the explicit pattern."""
    size = 2 * k + 2
    pattern = cross_polytope_edges(k)
    o = 0
    for S in combinations(range(n), size):
        sset = set(S)
        pos = {v: i for i, v in enumerate(S)}
        induced = [
            (pos[u], pos[v]) for u, v in combinations(S, 2) if v in adj_sets[u]
        ]
        if is_isomorphic(size, induced, pattern):
            o += 1
    comp = brute_components(n, [(u, v) for u in range(n) for v in adj_sets[u] if u < v])
    o_comp = 0
    for group in comp:
        if len(group) != size:
            continue
        S = sorted(group)
        pos = {v: i for i, v in enumerate(S)}
        induced = [
            (pos[u], pos[v]) for u, v in combinations(S, 2) if v in adj_sets[u]
        ]
        if is_isomorphic(size, induced, pattern):
            o_comp += 1
    return o, o_comp


def cross_polytope_zoo() -> dict[str, Graph]:
    """Named graphs for the cross-polytope and component checks.

    n = 0, 1, 2, edgeless graphs and K_n; C4 (O_1), the octahedron (O_2),
    K_{2,2,2,2} (O_3) and an octahedron beside a C4; and three seeded dense
    Rips graphs on 40 points, on streams picked for holding induced octahedra.
    """
    zoo = {f"edgeless-{n}": Graph.from_edges(n, []) for n in (0, 1, 2, 7)}
    zoo.update({f"K{n}": Graph.from_edges(n, list(combinations(range(n), 2))) for n in (2, 3, 6)})
    zoo["C4"] = Graph.from_edges(4, cross_polytope_edges(1))
    zoo["octahedron"] = Graph.from_edges(6, cross_polytope_edges(2))
    zoo["K2222"] = Graph.from_edges(8, cross_polytope_edges(3))
    square = [(6 + u, 6 + v) for u, v in cross_polytope_edges(1)]
    zoo["octahedron+C4"] = Graph.from_edges(10, cross_polytope_edges(2) + square)
    spec = RegimeSpec(model="rips", k=2, n=40, d=2, alpha=20000.0)
    for t in (0, 2, 4):  # o_2 = 24, 3 and 9
        pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), RngStream(1, t))
        zoo[f"dense-rips-{t}"] = geometric_graph(pts, spec.resolve_r())
    return zoo


def brute_subgraph_count(n: int, adj_sets, pattern_edges, v: int, induced: bool) -> int:
    """Count (induced) subgraphs isomorphic to the pattern, fully naively."""
    pedges = {frozenset(e) for e in pattern_edges}
    total = 0
    for S in combinations(range(n), v):
        if induced:
            pos = {x: i for i, x in enumerate(S)}
            edges = {
                frozenset((pos[a], pos[b]))
                for a, b in combinations(S, 2)
                if b in adj_sets[a]
            }
            if is_isomorphic(v, edges, pedges):
                total += 1
        else:
            # distinct edge sets isomorphic to the pattern with vertex set S
            seen = set()
            for perm in permutations(S):
                mapped = frozenset(
                    frozenset((perm[a], perm[b])) for a, b in pedges
                )
                if mapped in seen:
                    continue
                if all(tuple(e)[1] in adj_sets[tuple(e)[0]] for e in mapped):
                    seen.add(mapped)
            total += len(seen)
    return total


def brute_faces_on_large_components(n: int, edges, faces, i: int) -> int:
    groups = brute_components(n, edges)
    size_of = {}
    for group in groups:
        for v in group:
            size_of[v] = len(group)
    return sum(1 for face in faces if size_of[face[0]] >= i)


# ---------------------------------------------------------------------------
# Geometric brute force
# ---------------------------------------------------------------------------


def brute_empty_simplices(points: np.ndarray, r: float, k: int) -> list[tuple[int, ...]]:
    """All k-subsets forming an empty (k-1)-simplex, by exhaustive MEB tests."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    out = []
    for S in combinations(range(n), k):
        sub = pts[list(S)]
        if meb_radius_exhaustive(sub) <= r * (1 + 1e-9):
            continue
        if all(
            meb_radius_exhaustive(np.delete(sub, omit, axis=0)) <= r * (1 + 1e-9)
            for omit in range(k)
        ):
            out.append(S)
    return out


def brute_isolated_empty_count(points: np.ndarray, r: float, empties) -> int:
    """How many of `empties` (from `brute_empty_simplices`) have no vertex
    within 2r of a point outside the simplex."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    lim = (2 * r) ** 2
    count = 0
    for S in empties:
        sset = set(S)
        if all(d2[u, w] > lim for u in S for w in range(n) if w not in sset):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Distribution oracles
# ---------------------------------------------------------------------------


def tv_to_poisson_two_pass(samples, lam: float, weights=None) -> float:
    """`experiments.tv_to_poisson` as two loops, each mass evaluated once per loop:
    the slow path of the one-pass distance, kept for bit-for-bit comparison."""
    samples = list(samples)
    if weights is None:
        weights = [1.0 / len(samples)] * len(samples)
    emp: dict[int, float] = {}
    for x, w in zip(samples, weights):
        emp[int(x)] = emp.get(int(x), 0.0) + w

    def log_pmf(j: int) -> float:
        return j * math.log(lam) - lam - math.lgamma(j + 1)

    cutoff = max(emp)
    cumulative = 0.0
    j = 0
    while cumulative < 1.0 - 1e-12:
        cumulative += math.exp(log_pmf(j))
        j += 1
        if j > lam + 40.0 * math.sqrt(lam) + 100:
            break
    cutoff = max(cutoff, j - 1)
    total = 0.0
    for i in range(cutoff + 1):
        total += abs(emp.get(i, 0.0) - math.exp(log_pmf(i)))
    return 0.5 * total


def tv_to_poisson_loop(samples, lam: float, weights=None) -> float:
    """`experiments.tv_to_poisson` one mass at a time, with `math.lgamma` and
    `math.exp` at each j and the tail exit: the slow path of the block form,
    kept for bit-for-bit comparison."""
    samples = list(samples)
    if weights is None:
        weights = [1.0 / len(samples)] * len(samples)
    emp: dict[int, float] = {}
    for x, w in zip(samples, weights):
        emp[int(x)] = emp.get(int(x), 0.0) + w
    log_lam, far, top = math.log(lam), lam + 40.0 * math.sqrt(lam) + 100, max(emp)
    cumulative = total = 0.0
    j, tail = 0, True
    while tail or j <= top:
        p = math.exp(j * log_lam - lam - math.lgamma(j + 1))
        cumulative += p
        total += abs(emp.get(j, 0.0) - p)
        if j > top and j > lam and p >= 2.0**-1022 and total + 2.0 * p == total:
            break  # every later mass is below 2p, so adding it leaves the total's bits
        j += 1
        tail = tail and cumulative < 1.0 - 1e-12 and j <= far
    return 0.5 * total


def tv_to_poisson_full_tail(samples, lam: float, weights=None) -> float:
    """`experiments.tv_to_poisson` without its early exit: one pass that runs to
    the 1 - 1e-12 tail or the lam + 40 sqrt(lam) + 100 guard, kept for
    bit-for-bit comparison."""
    samples = list(samples)
    if weights is None:
        weights = [1.0 / len(samples)] * len(samples)
    emp: dict[int, float] = {}
    for x, w in zip(samples, weights):
        emp[int(x)] = emp.get(int(x), 0.0) + w
    log_lam, far, top = math.log(lam), lam + 40.0 * math.sqrt(lam) + 100, max(emp)
    cumulative = total = 0.0
    j, tail = 0, True
    while tail or j <= top:
        p = math.exp(j * log_lam - lam - math.lgamma(j + 1))
        cumulative += p
        total += abs(emp.get(j, 0.0) - p)
        j += 1
        tail = tail and cumulative < 1.0 - 1e-12 and j <= far
    return 0.5 * total


def poisson_pmf_direct(j: int, lam: float) -> float:
    val = math.exp(-lam)
    for i in range(1, j + 1):
        val *= lam / i
    return val


def tv_between_poissons(lam_a: float, lam_b: float, cutoff: int = 200) -> float:
    return 0.5 * sum(
        abs(poisson_pmf_direct(j, lam_a) - poisson_pmf_direct(j, lam_b))
        for j in range(cutoff)
    )


def mu_quadrature_k3(d: int, cells_per_axis: int) -> float:
    """Grid quadrature of the k=3 empty-simplex shape integral over (B(0,2))^2.

    Midpoint rule on the cube [-2,2]^(2d); the indicator is evaluated with
    an independent squared-distance circumradius formula.
    """
    h = 4.0 / cells_per_axis
    axis = -2.0 + h * (np.arange(cells_per_axis) + 0.5)
    grids = np.meshgrid(*([axis] * (2 * d)), indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=-1)
    y2, y3 = flat[:, :d], flat[:, d:]
    n2 = np.einsum("ij,ij->i", y2, y2)
    n3 = np.einsum("ij,ij->i", y3, y3)
    d23 = np.einsum("ij,ij->i", y2 - y3, y2 - y3)
    pair_ok = (n2 <= 4.0) & (n3 <= 4.0) & (d23 <= 4.0)
    x, y, z = n2, d23, n3
    big = np.maximum(np.maximum(x, y), z)
    obtuse = big >= x + y + z - big
    area16 = 2.0 * (x * y + y * z + z * x) - (x * x + y * y + z * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(obtuse, big / 4.0, x * y * z / np.maximum(area16, 1e-300))
    empty = r2 > 1.0
    return float(np.count_nonzero(pair_ok & empty)) * h ** (2 * d)


def mu_hits_per_sample(k: int, d: int, samples: int, rng, rho: float = 1.0) -> int:
    """The hit count of `census.estimate_mu` by one scalar test per sample, on the
    same block draws: the slow path of `census._hits`.

    A sample (0, y_2, .., y_k) hits when all its squared pair distances are
    <= 4, its radius-rho balls share no point and, for k >= 4, the unit balls
    about each facet do, radii from `min_enclosing_radius_by_dot`.
    """
    hits = done = block = 0
    while done < samples:
        m = min(MU_BLOCK_SIZE, samples - done)
        gen = rng.block(block)
        dirs = gen.standard_normal((m, k - 1, d))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        Y = dirs * (2.0 * gen.random((m, k - 1)) ** (1.0 / d))[:, :, None]
        for row in Y:
            pts = np.concatenate([np.zeros((1, d)), row], axis=0)
            diffs = pts[:, None, :] - pts[None, :, :]
            if np.any(np.einsum("ijk,ijk->ij", diffs, diffs) > 4.0):
                continue
            if min_enclosing_radius_by_dot(pts) <= rho * (1.0 + RADIUS_RTOL):
                continue
            hits += k == 3 or all(
                min_enclosing_radius_by_dot(np.delete(pts, i, axis=0)) <= 1.0 + RADIUS_RTOL
                for i in range(k)
            )
        done += m
        block += 1
    return hits


# ---------------------------------------------------------------------------
# The trial pipeline one trial at a time
# ---------------------------------------------------------------------------


def _assert_morse(f: tuple[int, ...], betti: tuple[int, ...]) -> None:
    for k, b in enumerate(betti):
        lower = f[k] - (f[k - 1] if k >= 1 else 0) - f[k + 1]
        if not lower <= b <= f[k]:
            raise AssertionError(f"Morse violation at degree {k}: {lower} <= {b} <= {f[k]}")


def instance_census_per_trial(spec: RegimeSpec, rng: RngStream) -> dict[str, int | None]:
    """The census row of one trial by the public per-graph functions, with the same
    checks: the row oracle of the batch pipeline (`experiments.instance_census`)."""
    k = spec.k
    top = k - 2 if spec.model == "cech" else k
    if spec.model == "er_clique":
        g = gen_er_graph(spec.n, spec.resolve_p(), rng)
    else:
        pts = sample_points(spec.n, DensitySpec(spec.density, spec.d), rng)
        r = spec.resolve_r()
        g = geometric_graph(pts, r)
    if spec.model == "cech":
        c = cech_complex(pts, r, k - 1, graph=g)
    else:
        c = clique_complex(g, k + 1)
    f = f_vector(c)
    core = strong_collapse_core(c, g) if spec.model == "rips" else c
    betti = betti_numbers(core, top, spec.field_prime).betti
    comp_count = components(g).count
    if betti[0] != comp_count:
        raise AssertionError(f"beta_0={betti[0]} disagrees with component count {comp_count}")
    _assert_morse(f, betti)
    row: dict[str, int | None] = {f"f_{i}": v for i, v in enumerate(f)}
    row.update({f"betti_{i}": v for i, v in enumerate(betti)})
    row["euler"] = euler_characteristic(c) if f[-1] == 0 else None
    if spec.model == "cech":
        s, s_iso = empty_simplex_counts(c, g, k)
        y = y_count(g, k)
        z = z_count(g, k)
        if not s_iso <= betti[top] <= s + y + z:
            raise AssertionError(
                f"Cech sandwich violation: {s_iso} <= beta_{top}={betti[top]} <= {s}+{y}+{z}"
            )
        if s_iso > s:
            raise AssertionError(f"census inconsistency: S_iso_{k}={s_iso} exceeds S_{k}={s}")
        row.update({f"S_{k}": s, f"S_iso_{k}": s_iso, f"Y_{k}": y, f"Z_{k}": z})
    elif spec.model == "rips":
        o_ind, o_comp = cross_polytope_counts(g, k)
        fge = faces_on_large_components(c, g, k, 2 * k + 3)
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
            t1, t2, t3 = tree_counts_order5(g)
            if fge > 4 * (t1 + t2 + t3):
                raise AssertionError(
                    f"tree bound violation: f_1_ge_5={fge} > 4*({t1}+{t2}+{t3})"
                )
            row.update(t1=t1, t2=t2, t3=t3)
    return row
