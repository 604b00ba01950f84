"""Count statistics behind the sandwich bounds, plus exact ER moments.

Conventions recorded here because the counts are only defined up to them:

* An empty (k-1)-simplex is a k-set of points whose (k-1)-subsets all have
  a common ball intersection at radius r while the full k-set does not. S
  and S_iso read this off the Čech complex: a k-clique that is not a face
  although its k facets are.
* Y counts (base clique on k-1 vertices, unordered pair {u, v} of base
  vertices, pendant edges u-a and v-b) with a, b outside the base and
  a != b. Z counts (base clique, base vertex u, path u-a-b) with a, b
  outside the base. Both read "simplex on k-1 vertices" as a clique of the
  1-skeleton, matching how the underlying argument counts via the
  geometric graph; both deliberately over-count, which is all the upper
  bound needs.
* An induced cross-polytope skeleton O_k (K_{2,..,2}) is a vertex set whose
  complement within it is a perfect matching: k+1 disjoint non-adjacent
  pairs, every cross pair adjacent. o_k counts the (k+1)-cliques of the
  graph on those pairs, and o~_k the components on 2k+2 vertices of
  degree 2k each (docs/decisions.md, section 12).
* Y, Z and the non-induced counts t1-t3 of the three trees on five
  vertices come from closed forms in degrees and pair codegrees, array sums
  over the edge keys (`_codegrees`, memoized on the graph and shared with
  the pair graph; docs/decisions.md, section 11).
  `subgraph_counts` stays the general census: it counts the injective maps
  of each pattern into the graph by backtracking (docs/decisions.md, section 6).
* Each pipeline counter has a private form that returns one int64 tally
  per vertex, each object counted at a vertex it owns: a face or an S
  candidate at its first vertex, an O_k at its first pair's m, a whole
  O_k component at its label, a tree at its centre. The public counter
  returns the sum (docs/decisions.md, section 16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .complexes import (
    MAX_KEYED_VERTICES, Graph, PointCloud, SimplicialComplex, _deletions, _face_keys, _face_rows,
    components
)
from .generators import RngStream, cech_complex, cliques_of_order, geometric_graph
from .miniball import RADIUS_RTOL, enclosing_radius

# ---------------------------------------------------------------------------
# Canonical forms for small graphs
# ---------------------------------------------------------------------------

MAX_CANONICAL_VERTICES = 9


@dataclass(frozen=True)
class CanonicalGraph:
    """A small graph in canonical form: lexicographically minimal edge set.

    Isomorphic graphs have identical canonical forms; the form is exact
    (all tie-breaking orderings of the color refinement are tried).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def _refined_colors(n: int, adj: list[set[int]]) -> list[int]:
    """Iterated degree refinement (1-WL); colors are isomorphism-invariant ints."""
    colors = [len(adj[v]) for v in range(n)]
    for _ in range(n):
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def canonical_form(vertex_count: int, edges) -> CanonicalGraph:
    """Canonical form by color refinement plus exhaustive tie-breaking.

    Vertices are grouped by refined color; every ordering that lists the
    color classes in increasing color order is tried, and the minimal
    relabeled edge set wins. Exhaustive over ties, hence exact; intended
    for graphs of at most MAX_CANONICAL_VERTICES vertices.
    """
    if vertex_count > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical_form supports at most {MAX_CANONICAL_VERTICES} vertices")
    edge_set = {tuple(sorted(e)) for e in edges}
    adj: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edge_set:
        if u == v or not 0 <= u < vertex_count or not 0 <= v < vertex_count:
            raise ValueError(f"bad edge ({u},{v})")
        adj[u].add(v)
        adj[v].add(u)
    if not edge_set:
        return CanonicalGraph(vertex_count, ())
    colors = _refined_colors(vertex_count, adj)
    cells: dict[int, list[int]] = {}
    for v in range(vertex_count):
        cells.setdefault(colors[v], []).append(v)
    groups = [cells[c] for c in sorted(cells)]
    best: tuple[tuple[int, int], ...] | None = None
    for perm_parts in product(*(permutations(grp) for grp in groups)):
        ordering = [v for part in perm_parts for v in part]
        pos = {v: i for i, v in enumerate(ordering)}
        relabeled = tuple(
            sorted(tuple(sorted((pos[u], pos[v]))) for u, v in edge_set)
        )
        if best is None or relabeled < best:
            best = relabeled
    return CanonicalGraph(vertex_count, best if best is not None else ())


def complete_graph_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def tree_patterns_order5() -> tuple[CanonicalGraph, CanonicalGraph, CanonicalGraph]:
    """The three isomorphism types of trees on five vertices."""
    path = canonical_form(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    star = canonical_form(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    spider = canonical_form(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    return path, star, spider


def _codegrees(g: Graph) -> tuple[np.ndarray, ...]:
    """Degrees d, neighbour-degree sums s, pair codegrees w, edge codegrees c, wedges and pairs of g.

    The wedges m-b-x (x ~ b ~ m) are gathered by `np.repeat` over the CSR rows
    of `g.edge_keys`, as in `_clique_faces`, into columns m, b, x sorted by
    (m, b, x). w counts the wedges of each key m*n + x: |N(m) & N(x)| for
    x != m, d_m for x = m. s_m counts the wedges from m, and c is w at each
    edge key, or 0 (docs/decisions.md, section 11). The read-only tuple
    (d, s, w, c, m, b, x, pairs), with the sorted keys m*n + x that w counts,
    is memoized on g, so every counter shares one gather.
    """
    if g._codegrees is None:
        n, keys = g.vertex_count, g.edge_keys
        src, nbr = np.divmod(keys, n)
        d = np.bincount(src, minlength=n)
        count = d[nbr]  # wedge t of edge m-b: slot (wedges of earlier edges) + t, x = row of b + t
        shift = np.repeat((np.cumsum(d) - d)[nbr] - (np.cumsum(count) - count), count)
        m, b = np.repeat(src, count), np.repeat(nbr, count)
        x = nbr[np.arange(len(m)) + shift]
        pairs, w = np.unique(m * n + x, return_counts=True)
        pos = np.searchsorted(pairs, keys)
        c = np.where(pairs.take(pos, mode="clip") == keys, w.take(pos, mode="clip"), 0)
        g._codegrees = (d, np.bincount(m, minlength=n), w, c, m, b, x, pairs)
        for a in g._codegrees:
            a.flags.writeable = False
    return g._codegrees


def _require_graph_of(c: SimplicialComplex, g: Graph) -> None:
    """Raise ValueError unless g has one vertex per vertex slot of c."""
    if g.vertex_count != c.vertex_count:
        m, n = g.vertex_count, c.vertex_count
        raise ValueError(f"graph has {m} vertices but the complex has {n}")


def strong_collapse_core(c: SimplicialComplex, g: Graph) -> SimplicialComplex:
    """The subcomplex of c = `clique_complex(g, ...)` left by one round of strong collapses of g.

    Deleting a vertex v with N[v] ⊆ N[u] for a neighbour u, that is with
    edge codegree c_vu = d_v - 1, keeps the homotopy type of the flag
    complex, so the result has the Betti numbers of c below its top
    dimension. One array round deletes every v with a neighbour u such that
    N[v] ⊊ N[u], or N[v] = N[u] and u < v, and keeps the faces of c whose
    vertices all survive. Dominated vertices may remain: a survivor can be
    dominated once its neighbours are gone. Vertices keep their labels
    (docs/decisions.md, section 15). A graph of another vertex count raises
    ValueError.
    """
    _require_graph_of(c, g)
    n = g.vertex_count
    d, _, _, codegree = _codegrees(g)[:4]
    src, nbr = np.divmod(g.edge_keys, n)
    ds, dn = d[src], d[nbr]
    alive = np.ones(n, dtype=bool)
    alive[src[(codegree == ds - 1) & ((ds < dn) | ((ds == dn) & (nbr < src)))]] = False
    return SimplicialComplex(n, tuple(layer[alive[layer].all(1)] for layer in c.faces), c.max_dim)


def _tree_counts(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(path, star, spider) per-vertex tallies by `tree_counts_order5`'s forms, each tree at
    its centre m.

    The sums over b ~ m and over x run over the edge keys m*n + b and the
    pair keys m*n + x, so `np.add.at` at m sums each centre's terms. The
    path term of one centre is even (docs/decisions.md, section 16).
    """
    n, (d, s, w, t, *_, pairs) = g.vertex_count, _codegrees(g)
    m, b = np.divmod(g.edge_keys, max(n, 1))
    p, e = s - d, d[b] - 1
    tri, edge, pair = np.zeros((3, n), dtype=np.int64)
    np.add.at(tri, m, t)
    np.add.at(edge, m, e * (e + 2 * t))
    np.add.at(pair, pairs // max(n, 1), w * (w - 1))
    path2 = p * p - edge - pair + d * (d - 1) + tri
    star = d * (d - 1) * (d - 2) * (d - 3) // 24
    spider = (d - 1) * (d - 2) // 2 * p - (d - 2) * tri
    return path2 // 2, star, spider


def tree_counts_order5(g: Graph) -> tuple[int, int, int]:
    """Non-induced (path, star, spider) counts, in `tree_patterns_order5` order.

    Closed forms over each tree's unique centre m, with d = degree,
    P_m = sum_{b~m} (d_b - 1), w_x = |N(x) & N(m)|, t_mb = w_b for b ~ m
    and T_m = sum_{b~m} t_mb (twice the triangles at m):

    * star = sum_m C(d_m, 4);
    * spider = sum_m [C(d_m - 1, 2) P_m - (d_m - 2) T_m];
    * path = 1/2 sum_m [P_m^2 - sum_{b~m} (d_b - 1)^2 - sum_{x!=m} w_x (w_x - 1)
      - 2 sum_{b~m} t_mb (d_b - 1) + T_m].

    Sums over b ~ m run over the ordered edges (docs/decisions.md, sections 1, 11).
    """
    return tuple(int(a.sum()) for a in _tree_counts(g))


# ---------------------------------------------------------------------------
# Geometric census: empty simplices
# ---------------------------------------------------------------------------


def _empty_simplex_counts(
    c: SimplicialComplex, g: Graph, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(S, S_iso) for k >= 3 as per-vertex tallies, each candidate at its first vertex."""
    n, cand, comp = g.vertex_count, cliques_of_order(g, k), components(g)
    keys = _face_keys(c.faces, n, k)
    is_face = _face_rows(keys, n, cand)[1]
    empty = cand[_face_rows(keys[:-1], n, _deletions(cand))[1].all(axis=1) & ~is_face, 0]
    isolated = empty[comp.size[comp.label[empty]] == k]
    return np.bincount(empty, minlength=n), np.bincount(isolated, minlength=n)


def empty_simplex_counts(c: SimplicialComplex, g: Graph, k: int) -> tuple[int, int]:
    """(S, S_iso): empty (k-1)-simplices of the Čech complex c of g, and the isolated ones.

    A k-clique of g is empty when it is not a (k-1)-face of c although each
    of its k facets is a (k-2)-face, both looked up in the face keys of c,
    and isolated when its component of g is the clique itself
    (docs/decisions.md, section 10). For k = 2 they are the non-edges and
    the pairs of isolated vertices. A graph of another vertex count raises
    ValueError.
    """
    if not 2 <= k <= c.max_dim + 1:
        raise ValueError(f"k={k} outside 2..{c.max_dim + 1}")
    _require_graph_of(c, g)
    if k == 2:
        n, lonely = g.vertex_count, int(np.count_nonzero(components(g).size == 1))
        return n * (n - 1) // 2 - g.edge_count, lonely * (lonely - 1) // 2
    return tuple(int(a.sum()) for a in _empty_simplex_counts(c, g, k))


def _cech_counts(pts: PointCloud, r: float, k: int, g: Graph | None) -> tuple[int, int]:
    g = geometric_graph(pts, r) if g is None else g
    return empty_simplex_counts(cech_complex(pts, r, k - 1, graph=g), g, k)


def empty_simplex_count(pts: PointCloud, r: float, k: int, g: Graph | None = None) -> int:
    """Number of empty (k-1)-simplices among the points at radius r: S."""
    return _cech_counts(pts, r, k, g)[0]


def isolated_empty_simplex_count(pts: PointCloud, r: float, k: int, g: Graph | None = None) -> int:
    """Empty (k-1)-simplices whose k vertices have no edges to the rest: S_iso."""
    return _cech_counts(pts, r, k, g)[1]


# ---------------------------------------------------------------------------
# Attachment counts Y and Z
# ---------------------------------------------------------------------------


def _bases(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """d, s, the (k-1)-cliques of g as rows, and one row of codegrees per position pair i < j."""
    if k < 3:
        raise ValueError("k must be >= 3")
    n, (d, s, _, c, *_) = g.vertex_count, _codegrees(g)
    base = cliques_of_order(g, k - 1)
    at = [base[:, i] * n + base[:, j] for i, j in combinations(range(k - 1), 2)]
    return d, s, base, c[np.searchsorted(g.edge_keys, np.array(at))]


def y_count(g: Graph, k: int) -> int:
    """Cliques on k-1 vertices with pendant edges at two distinct vertices.

    Counted once per (base clique, unordered base pair {u, v}, pendant
    assignment a to u and b to v) with a, b outside the base and a != b, as
    the sum over bases B and pairs i < j in B of (d_i - (k-2))(d_j - (k-2)) -
    (c_ij - (k-3)), with c the edge codegrees (docs/decisions.md, section 11).
    """
    d, _, base, c = _bases(g, k)
    e = d[base] - (k - 2)
    rows = e.sum(axis=1)
    return int((rows @ rows - (e * e).sum()) // 2 - c.sum()) + c.size * (k - 3)


def z_count(g: Graph, k: int) -> int:
    """Cliques on k-1 vertices with a path of length two attached.

    Counted once per (base clique, base vertex u, path u-a-b) with a and b
    outside the base, as the sum over bases B and u in B of s_u - (d_u - (k-2))
    - sum_{b in B, b != u} (d_b + c_ub - (k-3)), with s_u = sum_{a~u} d_a.
    """
    d, s, base, c = _bases(g, k)
    z = (s[base] - (k - 1) * d[base]).sum() - 2 * c.sum()
    return int(z) + len(base) * (k - 1) * (k - 2) ** 2


# ---------------------------------------------------------------------------
# Cross-polytope skeleton counts
# ---------------------------------------------------------------------------


_MAX_PAIRS = MAX_KEYED_VERTICES  # pair-graph keys p*N + q stay below N^2 <= 2^63 - 1


def _cross_polytope_counts(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(o_k, o~_k) per-vertex tallies, as `cross_polytope_counts` counts them: a clique of
    the pair graph at its first pair's vertex m, a component at its label."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n, keys = g.vertex_count, g.edge_keys
    d, *_, m, b, x, _ = _codegrees(g)
    upper = m < x
    mx = m[upper] * n + x[upper]
    order = np.argsort(mx, kind="stable")  # the middles of one pair stay ascending
    mx, b = mx[order], b[upper][order]
    head = np.flatnonzero(np.diff(mx, prepend=-1))  # one run of wedges per pair
    size = np.diff(head, append=len(mx))
    # a pair of an O_k is non-adjacent, with the other 2k vertices as common neighbours
    keep = (size >= 2 * k) & (keys.take(np.searchsorted(keys, mx[head]), mode="clip") != mx[head])
    wide = np.repeat(keep, size)
    mx, b, size = mx[wide], b[wide], size[keep]
    pairs = mx[np.cumsum(size) - size]
    if len(pairs) > _MAX_PAIRS:
        raise ValueError(f"the pair graph of a graph on n={n} vertices needs keys beyond int64")
    # the middles b1 < b2 of one run: wedge i meets the `later` wedges after it in its run
    later = np.repeat(np.cumsum(size), size) - np.arange(len(mx)) - 1
    i = np.repeat(np.arange(len(mx)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    q = b[i] * n + b[j]
    pos = np.searchsorted(pairs, q)
    # {b1, b2} in P is non-adjacent, so m-b1-x-b2 is induced; the larger diagonal skips it
    found = (pairs.take(pos, mode="clip") == q) & (mx[i] < q)
    run = np.repeat(np.arange(len(pairs)), size)
    p = Graph.from_edges(len(pairs), np.column_stack((run[i[found]], pos[found])))
    comp = components(g)
    whole = comp.size == 2 * k + 2
    regular = np.bincount(comp.label[d == 2 * k], minlength=n) == 2 * k + 2
    first = pairs[cliques_of_order(p, k + 1)[:, 0]] // max(n, 1)
    return np.bincount(first, minlength=n), (whole & regular).astype(np.int64)


def cross_polytope_counts(g: Graph, k: int) -> tuple[int, int]:
    """(o_k, o~_k): induced copies and whole components of the O_k 1-skeleton.

    An induced O_k (K_{2,..,2}) is k+1 disjoint non-adjacent pairs with every
    cross pair adjacent, so o_k is the number of (k+1)-cliques of the pair
    graph P. Its vertices are the non-adjacent pairs {m, x} with at least 2k
    common neighbours, joined when all four cross edges exist. Each P-edge is
    an induced 4-cycle m-b1-x-b2, read off the wedges m-b-x of its diagonal
    {m, x} that has the smaller key. o~_k counts the components on 2k+2
    vertices that have degree 2k each (docs/decisions.md, section 12).
    """
    return tuple(int(a.sum()) for a in _cross_polytope_counts(g, k))


def _faces_on_large_components(c: SimplicialComplex, g: Graph, k: int, i: int) -> np.ndarray:
    """`faces_on_large_components` as a per-vertex tally, each face at its first vertex."""
    if not 0 <= k <= c.max_dim:
        raise ValueError(f"k={k} outside built dimensions 0..{c.max_dim}")
    _require_graph_of(c, g)
    comp = components(g)
    first = c.faces[k][:, 0]
    return np.bincount(first[comp.size[comp.label[first]] >= i], minlength=c.vertex_count)


def faces_on_large_components(
    c: SimplicialComplex, g: Graph, k: int, i: int
) -> int:
    """Number of k-faces lying on connected components with at least i vertices.

    A face lies on the component of its first vertex, so the count is one
    read of the per-vertex component sizes at the first column of the faces.
    A graph of another vertex count raises ValueError.
    """
    return int(_faces_on_large_components(c, g, k, i).sum())


# ---------------------------------------------------------------------------
# Subgraph census
# ---------------------------------------------------------------------------


def _neighbor_sets(g: Graph) -> list[frozenset[int]]:
    """One frozenset of neighbours per vertex, cut from the keys at `searchsorted` offsets."""
    n, key = g.vertex_count, g.edge_keys
    cuts = np.searchsorted(key, np.arange(n + 1) * n).tolist()
    nbrs = (key % n).tolist()
    return [frozenset(nbrs[a:b]) for a, b in zip(cuts, cuts[1:])]


def connected_subsets(g: Graph, size: int):
    """Enumerate every connected vertex subset of the given size exactly once.

    ESU-style: subsets are rooted at their minimum vertex and extended only
    by exclusive neighbors larger than the root.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    nbrs = _neighbor_sets(g)

    def extend(sub: tuple[int, ...], ext: list[int], closed: frozenset[int], root: int):
        if len(sub) == size:
            yield tuple(sorted(sub))
            return
        ext = list(ext)
        while ext:
            w = ext.pop()
            fresh = [u for u in nbrs[w] if u > root and u not in closed]
            new_closed = closed | nbrs[w] | {w}
            yield from extend(sub + (w,), ext + fresh, new_closed, root)

    for root in range(len(nbrs)):
        ext0 = [u for u in nbrs[root] if u > root]
        closed0 = frozenset(nbrs[root]) | {root}
        yield from extend((root,), ext0, closed0, root)


def _bfs_order(pat_adj: list[set[int]]) -> list[int]:
    """Pattern vertices in breadth-first order, each component from its smallest vertex."""
    order: list[int] = []
    for start in range(len(pat_adj)):
        if start not in order:
            head = len(order)
            order.append(start)
            while head < len(order):
                order += [w for w in sorted(pat_adj[order[head]]) if w not in order]
                head += 1
    return order


def _count_maps(p: CanonicalGraph, rows, induced: bool) -> int:
    """Injective edge-preserving maps of p into the graph with neighbour rows `rows`.

    The pattern vertices are placed in BFS order. A vertex's candidates are
    the common neighbours of its earlier neighbours' images (every vertex
    when it has none), less the images used so far and, when induced, less
    the neighbours of its earlier non-neighbours' images; at the last
    position the candidates are counted, not tried.
    """
    adj = p.adjacency_sets()
    order = _bfs_order(adj)
    if not order:
        return 1  # the pattern with no vertices has one map, the empty one
    pos = {u: i for i, u in enumerate(order)}
    nbr = [[pos[w] for w in adj[u] if pos[w] < i] for i, u in enumerate(order)]
    non = [[j for j in range(i) if induced and j not in nbr[i]] for i in range(len(order))]
    every = frozenset(range(len(rows)))
    image = [0] * len(order)
    last = len(order) - 1

    def place(i: int) -> int:
        cands = every
        for j in nbr[i]:
            cands = cands & rows[image[j]]
        cands = cands.difference(image[:i])
        for j in non[i]:
            cands = cands - rows[image[j]]
        if i == last:
            return len(cands)
        total = 0
        for w in cands:
            image[i] = w
            total += place(i + 1)
        return total

    return place(0)


def automorphism_count(p: CanonicalGraph) -> int:
    """Automorphisms: the injective edge-preserving maps of the pattern to itself."""
    return _count_maps(p, p.adjacency_sets(), induced=False)


def subgraph_counts(
    g: Graph, patterns, induced: bool = True
) -> list[int]:
    """Exact (induced) subgraph counts for each pattern, in input order.

    Each copy of a pattern P is the image of |Aut P| injective edge-preserving
    maps P -> g; with the induced non-edges required too, those maps are the
    isomorphisms of P onto the induced subgraphs (docs/decisions.md, section 6).
    """
    for p in patterns:
        if p.vertex_count > MAX_CANONICAL_VERTICES:
            raise ValueError("pattern too large")
        if p.vertex_count < 1:
            raise ValueError("pattern needs at least one vertex")
    rows = _neighbor_sets(g)
    counts = []
    for p in patterns:
        maps, aut = _count_maps(p, rows, induced), automorphism_count(p)
        if maps % aut:
            raise RuntimeError("map count not divisible by automorphism count")
        counts.append(maps // aut)
    return counts


# ---------------------------------------------------------------------------
# Extension types
# ---------------------------------------------------------------------------


def enumerate_extension_types(k: int) -> set[CanonicalGraph]:
    """Isomorphism classes reachable by the clique-extension procedure.

    Start from a (k+1)-clique and repeatedly attach a new vertex by a
    single edge to any current vertex, until the graph has 2k+3 vertices
    (hence C(k+1,2) + k + 2 edges). States are deduplicated by canonical
    form at every step, since future growth depends only on the class.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if 2 * k + 3 > MAX_CANONICAL_VERTICES:
        raise ValueError(f"k={k} exceeds the supported canonical-form size")
    frontier = {canonical_form(k + 1, complete_graph_edges(k + 1))}
    for _ in range(k + 2):
        new_frontier: set[CanonicalGraph] = set()
        for cg in frontier:
            n = cg.vertex_count
            for attach in range(n):
                new_frontier.add(canonical_form(n + 1, cg.edges + ((attach, n),)))
        frontier = new_frontier
    return frontier


# ---------------------------------------------------------------------------
# Exact Erdos-Renyi face-count moments
# ---------------------------------------------------------------------------


def _log_comb(n: int, m: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)


def er_expected_faces(n: int, k: int, p: float) -> float:
    """E[f_k] for the ER clique complex: C(n, k+1) p^C(k+1, 2)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    m = k + 1
    if m > n:
        return 0.0
    exponent = math.comb(m, 2)
    if p == 0.0:
        return float(math.comb(n, m)) if exponent == 0 else 0.0
    try:
        return float(math.comb(n, m)) * p**exponent
    except OverflowError:
        return math.exp(_log_comb(n, m) + exponent * math.log(p))


def _er_pair_moment(n: int, k: int, j: int, p: float) -> float:
    """Exact Cov(f_k, f_{k+j}), by the pair expansion over intersection sizes r
    of a (k+1)-set and a (k+1+j)-set."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    a, b = k + 1, k + 1 + j
    if b > n or p in (0.0, 1.0):
        return 0.0
    exps = math.comb(a, 2) + math.comb(b, 2)
    terms = [
        float(math.comb(a, r)) * float(math.comb(n - a, b - r)) * p ** (exps - math.comb(r, 2))
        for r in range(a + 1)
    ]
    mean_a, mean_b = er_expected_faces(n, k, p), er_expected_faces(n, k + j, p)
    return float(math.comb(n, a)) * math.fsum(terms) - mean_a * mean_b


def er_variance_faces(n: int, k: int, p: float) -> float:
    """Exact Var(f_k), by the pair expansion over intersection sizes r."""
    return _er_pair_moment(n, k, 0, p)


def er_covariance_faces(n: int, k: int, p: float) -> float:
    """Exact Cov(f_k, f_{k+1}), by the same expansion across sizes."""
    return _er_pair_moment(n, k, 1, p)


# ---------------------------------------------------------------------------
# Monte Carlo estimate of the empty-simplex integral
# ---------------------------------------------------------------------------


MU_BLOCK_SIZE = 1 << 15  # samples per sub-stream block of `estimate_mu`


@dataclass(frozen=True)
class MuEstimate:
    value: float
    std_error: float
    samples: int
    hits: int


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def estimate_mu(
    k: int,
    d: int,
    samples: int,
    rng: RngStream,
    *,
    full_intersection_radius: float = 1.0,
) -> MuEstimate:
    """Monte Carlo estimate of the empty-simplex shape integral.

    The integrand is the indicator that (0, y_2, .., y_k) form an empty
    (k-1)-simplex at radius 1; the pairwise constraints involving the
    origin force every y_i into the ball of radius 2, so points are
    sampled uniformly there and the acceptance fraction is scaled by
    (vol B(0,2))^(k-1). Blocks use independent sub-streams and integer hit
    counts, so the result is independent of evaluation order.

    k = 2 is rejected: there the defining indicator is |y| > 2 and the
    integral diverges.

    `full_intersection_radius` widens only the full-set intersection test;
    raising it far enough forces the indicator to vanish identically,
    which is useful as a null check.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if d < 1:
        raise ValueError("d must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rho = full_intersection_radius
    if not rho > 0:
        raise ValueError(f"full_intersection_radius={rho} must be positive")
    hits = 0
    done = 0
    block = 0
    while done < samples:
        m = min(MU_BLOCK_SIZE, samples - done)
        gen = rng.block(block)
        dirs = gen.standard_normal((m, k - 1, d))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        radii = 2.0 * gen.random((m, k - 1)) ** (1.0 / d)
        Y = dirs * radii[:, :, None]
        hits += _hits(Y, rho)
        done += m
        block += 1
    vol = (unit_ball_volume(d) * 2.0**d) ** (k - 1)
    p_hat = hits / samples
    value = vol * p_hat
    se = vol * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return MuEstimate(value, se, samples, hits)


def _hits(Y: np.ndarray, rho: float) -> int:
    """Samples (0, y_2, .., y_k) that form a clique of the 2-graph whose radius-rho
    balls share no point while the unit balls about every facet do.

    The pairs y_i, y_j are tested first, then the whole set, then each
    facet, each test on the rows the one before kept (docs/decisions.md,
    section 10).
    """
    k = Y.shape[1] + 1
    keep = np.ones(len(Y), dtype=bool)
    for i, j in combinations(range(k - 1), 2):
        keep &= np.linalg.norm(Y[:, i] - Y[:, j], axis=1) <= 2.0
    X = np.concatenate((np.zeros_like(Y[:, :1]), Y), axis=1)[keep]
    X = X[enclosing_radius(X) > rho * (1.0 + RADIUS_RTOL)]
    if k >= 4:  # the facets of a triangle are its pairs
        for i in range(k):
            X = X[enclosing_radius(np.delete(X, i, axis=1)) <= 1.0 + RADIUS_RTOL]
    return len(X)
