"""Seeded random model generators: ER clique complexes, Rips, and Cech.

Every generator is a pure function of its parameters and an RngStream, so
distinct trials can run in any order or in parallel and still reproduce
bit-identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Graph, PointCloud, SimplicialComplex, _face_keys, _face_rows
from .miniball import RADIUS_RTOL, enclosing_radius

DENSITY_KINDS = ("uniform_cube", "gaussian")


@dataclass(frozen=True)
class RngStream:
    """One reproducible random stream, keyed by (master_seed, stream_index).

    Streams are derived through numpy's SeedSequence spawn keys, so the
    bytes drawn by stream i never depend on whether stream j ran first,
    on the worker count, or on the platform.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)

    def block(self, j: int) -> np.random.Generator:
        """Sub-stream j of this stream, for order-independent block parallelism."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index, j))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class DensitySpec:
    """Sampling density: uniform on [0,1]^d or standard gaussian per coordinate."""

    kind: str
    dimension: int

    def __post_init__(self):
        if self.kind not in DENSITY_KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


def gen_er_graph(n: int, p: float, rng: RngStream) -> Graph:
    """G(n, p): each of the C(n,2) edges present independently with probability p.

    One uniform draw per pair u < v, in row-major (`triu_indices`) order; the
    kept pair indices are decoded to (u, v) arithmetically, with row u starting
    at u*n - u(u+1)/2 (docs/decisions.md, section 8).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if n < 0:
        raise ValueError("n must be non-negative")
    idx = np.flatnonzero(rng.generator().random(n * (n - 1) // 2) < p)
    rows = np.arange(n)
    starts = rows * n - rows * (rows + 1) // 2
    u = np.searchsorted(starts, idx, side="right") - 1
    return Graph.from_edges(n, np.column_stack((u, idx - starts[u] + u + 1)))


def _clique_faces(g: Graph, max_dim: int) -> tuple[np.ndarray, ...]:
    """All cliques of g grouped by dimension 0..max_dim, by ordered expansion.

    Layer i is a read-only (f_i, i+1) int64 array of faces. A face extends by
    each upper neighbour w of its last vertex that is adjacent to every other
    vertex f_j, tested by `searchsorted` of the key f_j*n + w in the sorted
    edge keys. Each clique is produced once, and every layer is in
    lexicographic order (docs/decisions.md, section 9).
    """
    n = g.vertex_count
    layer = np.arange(n, dtype=np.int64)[:, None]
    faces = [layer]
    if max_dim >= 1:
        keys = g.edge_keys
        u, v = np.divmod(keys, n)
        upper = u < v
        u, v = u[upper], v[upper]
        start = np.searchsorted(u, np.arange(n + 1))
        layer = np.column_stack((u, v))
        faces.append(layer)
        for _ in range(2, max_dim + 1):
            first = start[layer[:, -1]]
            count = start[layer[:, -1] + 1] - first
            parent = np.repeat(np.arange(len(first)), count)
            # candidate t of a face is v[first + t] and lands at slot offset + t
            offset = np.cumsum(count) - count
            w = v[np.arange(len(parent)) + np.repeat(first - offset, count)]
            keep = np.ones(len(w), dtype=bool)
            for col in layer[:, :-1].T:
                q = col[parent] * n + w
                keep &= keys.take(np.searchsorted(keys, q), mode="clip") == q
            parent = parent[keep]
            layer = np.column_stack((layer[parent], w[keep]))
            faces.append(layer)
    for layer in faces:
        layer.flags.writeable = False
    return tuple(faces)


def _cliques_up_to(g: Graph, max_dim: int) -> tuple[np.ndarray, ...]:
    """Unfiltered clique layers 0..max_dim, served from g's deepest expansion."""
    if g._cliques is None or len(g._cliques) <= max_dim:
        g._cliques = _clique_faces(g, max_dim)
    return g._cliques[: max_dim + 1]


def clique_complex(g: Graph, max_dim: int) -> SimplicialComplex:
    """The flag complex of g up to the dimension cap: i-faces are (i+1)-cliques."""
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    return SimplicialComplex(g.vertex_count, _cliques_up_to(g, max_dim), max_dim)


def cliques_of_order(g: Graph, m: int) -> np.ndarray:
    """All cliques on exactly m vertices (m >= 1): g's read-only (count, m) memo layer."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _cliques_up_to(g, m - 1)[m - 1]


def sample_points(n: int, density: DensitySpec, rng: RngStream) -> PointCloud:
    """n i.i.d. draws from the named density, deterministic given the stream."""
    if n < 0:
        raise ValueError("n must be non-negative")
    gen = rng.generator()
    if density.kind == "uniform_cube":
        pts = gen.random((n, density.dimension))
    else:
        pts = gen.standard_normal((n, density.dimension))
    return PointCloud(density.dimension, pts, density.kind)


# window pairs tested per array step of geometric_graph; bounds its scratch memory
_WINDOW_BLOCK = 8192


def geometric_graph(pts: PointCloud, r: float) -> Graph:
    """Edge {i,j} iff |X_i - X_j| <= 2r (closed rule), by a sort and a blocked gather.

    The points are sorted by their first coordinate, and each one is tested
    only against the later points of its x-window. The window pairs are
    gathered by `np.repeat` over the window sizes, for a run of rows at a
    time holding at most `_WINDOW_BLOCK` pairs (or one larger row). The test
    sums the squared coordinate differences in float64 from 0.0, one
    coordinate at a time, and keeps the pair when the sum is <= (2r)^2. The
    window is padded past the largest x-gap that test can accept, so it
    never drops a kept pair (docs/decisions.md, section 7).
    """
    if not r > 0:
        raise ValueError("r must be positive")
    P = pts.points
    n = P.shape[0]
    order = np.argsort(P[:, 0], kind="stable")
    Q = P[order].T.copy()  # one contiguous row per coordinate
    limit_sq = (2.0 * r) * (2.0 * r)
    reach = np.sqrt(np.nextafter(limit_sq, np.inf)) * (1.0 + 1e-9)
    ends = np.searchsorted(Q[0], Q[0] + reach, side="right")
    # row i pairs with i+1..ends[i]-1; its pairs start at offset[i] of all window pairs
    count = ends - np.arange(n) - 1
    offset = np.concatenate(([0], np.cumsum(count)))
    us, vs = [order[:0]], [order[:0]]  # never empty, also when no pair is tested
    a = 0
    while a < n:
        b = max(int(np.searchsorted(offset, offset[a] + _WINDOW_BLOCK, side="right")) - 1, a + 1)
        size = count[a:b]
        i = np.repeat(np.arange(a, b), size)
        j = i + 1 + np.arange(len(i)) - np.repeat(offset[a:b] - offset[a], size)
        dist_sq = np.zeros(len(i))
        for q in Q:
            diff = q[j] - q[i]
            dist_sq += diff * diff
        kept = dist_sq <= limit_sq
        us.append(order[i[kept]])
        vs.append(order[j[kept]])
        a = b
    return Graph.from_edges(n, np.column_stack((np.concatenate(us), np.concatenate(vs))))


def rips_complex(pts: PointCloud, r: float, max_dim: int) -> SimplicialComplex:
    """Vietoris-Rips: the clique complex of the geometric graph at scale r."""
    return clique_complex(geometric_graph(pts, r), max_dim)


def balls_intersect(centers: np.ndarray, r: float) -> bool:
    """Do closed balls of radius r about all centers share a point?

    Equivalent to the smallest-enclosing-ball radius being <= r; compared
    with relative tolerance RADIUS_RTOL. The radius search tries every
    support subset, m * sum(C(m, s), s = 2..d + 1) work for m centers.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    radius = enclosing_radius(np.asarray(centers, dtype=np.float64)[None])[0]
    return bool(radius <= r * (1.0 + RADIUS_RTOL))


def cech_complex(
    pts: PointCloud, r: float, max_dim: int, graph: Graph | None = None
) -> SimplicialComplex:
    """Nerve of radius-r balls about the points, up to the dimension cap.

    The 1-skeleton equals the geometric graph at scale r (two r-balls meet
    iff centers are <= 2r apart); higher faces are cliques of that graph
    whose full ball intersection is nonempty, taken from g's memoized
    expansion. Each layer from dimension 2 up is decided by one
    `enclosing_radius` call, on the cliques whose prefix face was kept (by
    the face keys; every prefix of a triangle is an edge), which by
    monotonicity finds every face (docs/decisions.md, section 6). Pass
    `graph` to reuse a geometric graph already built at the same scale; a
    graph with other than one vertex per point raises ValueError.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    if not r > 0:
        raise ValueError("r must be positive")
    g = geometric_graph(pts, r) if graph is None else graph
    n, P = g.vertex_count, pts.points
    if n != len(P):
        raise ValueError(f"graph has {n} vertices but there are {len(P)} points")
    cliques = _cliques_up_to(g, max_dim)
    faces = list(cliques[:2])
    for layer in cliques[2:]:
        if len(faces) > 2:  # a triangle's prefix is an edge, and every edge is kept
            layer = layer[_face_rows(_face_keys(faces, n, len(faces)), n, layer)[1]]
        faces.append(layer[enclosing_radius(P[layer]) <= r * (1.0 + RADIUS_RTOL)])
    return SimplicialComplex(n, tuple(faces), max_dim)
