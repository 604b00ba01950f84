"""Core representations: graphs, point clouds, simplicial complexes, components.

All types are immutable after construction and safe to share across worker
processes. Vertex indices are 0-based everywhere, faces are strictly
increasing int64 rows, and each face layer is kept in lexicographic order so
that every downstream count is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

import numpy as np

MAX_KEYED_VERTICES = math.isqrt(2**63 - 1)  # the largest n whose keys u*n + v < n^2 fit int64


class Graph:
    """Undirected simple graph on vertices 0..n-1, held as its sorted edge keys.

    `from_edges` is the only constructor, and the keys are the one form of
    the edges (docs/decisions.md, section 12).
    """

    # immutable, so components, codegrees and cliques are memos
    __slots__ = ("vertex_count", "edge_keys", "_components", "_codegrees", "_cliques")

    def __init__(self, vertex_count: int, *, edge_keys: np.ndarray):
        """Take the checked keys of `from_edges`; call that instead."""
        self.vertex_count = vertex_count
        self.edge_keys = edge_keys  # read-only sorted int64 keys u*n + v, one per ordered pair
        self._components: ComponentDecomposition | None = None
        self._codegrees: tuple[np.ndarray, ...] | None = None
        self._cliques: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> Graph:
        """Build a graph from an (m, 2) int array or an iterable of (u, v) pairs.

        Reversed and repeated pairs collapse to one edge. The pairs are checked
        all at once: a self-loop or out-of-range vertex raises ValueError naming
        the first such pair, and non-integer vertices raise TypeError. Both
        directions are packed as u*n + v keys, sorted, deduplicated and kept
        as `edge_keys`, so n > `MAX_KEYED_VERTICES` raises ValueError
        (docs/decisions.md, section 8).
        """
        n = vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        if n > MAX_KEYED_VERTICES:
            raise ValueError(f"vertex_count={n} above {MAX_KEYED_VERTICES}: u*n + v passes int64")
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if e.size == 0:
            e = np.empty((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {e.shape}")
        if e.dtype.kind not in "iu":
            raise TypeError(f"edge vertices must be integers, got dtype {e.dtype}")
        e = e.astype(np.int64, copy=False)
        u, v = e[:, 0], e[:, 1]
        bad = np.flatnonzero((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n))
        if bad.size:
            a, b = int(u[bad[0]]), int(v[bad[0]])
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            raise ValueError(f"edge ({a},{b}) out of range")
        key = np.sort(np.concatenate((u * n + v, v * n + u)))
        key = key[np.diff(key, prepend=-1) != 0]
        key.flags.writeable = False
        return cls(n, edge_keys=key)

    @property
    def edge_count(self) -> int:
        return len(self.edge_keys) // 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and np.array_equal(self.edge_keys, other.edge_keys)
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edge_keys.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, edges={self.edge_count})"


class PointCloud:
    """n points in R^d plus the identity of the sampling density."""

    __slots__ = ("dimension", "points", "density_id")

    def __init__(self, dimension: int, points: np.ndarray, density_id: str = ""):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, dimension)
        if pts.ndim != 2 or pts.shape[1] != dimension:
            raise ValueError(f"points must have shape (n, {dimension})")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        self.dimension = dimension
        self.points = pts
        self.density_id = density_id

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"PointCloud(n={len(self)}, d={self.dimension}, density={self.density_id!r})"


class SimplicialComplex:
    """Faces grouped by dimension 0..max_dim, each layer one int64 array.

    `faces[i]` is a read-only (f_i, i+1) array whose rows are the i-faces,
    each strictly increasing, in lexicographic order. The dimension cap
    `max_dim` is fixed at construction: homology in degree k needs faces up
    to k+1, and callers are expected to request no more than they need.
    """

    __slots__ = ("vertex_count", "faces", "max_dim")

    def __init__(self, vertex_count: int, faces: tuple[np.ndarray, ...], max_dim: int):
        if max_dim < 0:
            raise ValueError("max_dim must be non-negative")
        if len(faces) != max_dim + 1:
            raise ValueError("faces must list every dimension 0..max_dim")
        for i, layer in enumerate(faces):
            ok = isinstance(layer, np.ndarray) and layer.dtype == np.int64
            if not ok or layer.shape[1:] != (i + 1,):
                raise ValueError(f"faces[{i}] must be an int64 array of shape (f_{i}, {i + 1})")
            layer.flags.writeable = False
        self.vertex_count = vertex_count
        self.faces = tuple(faces)
        self.max_dim = max_dim

    @classmethod
    def from_face_lists(
        cls, vertex_count: int, faces_by_dim, max_dim: int | None = None
    ) -> SimplicialComplex:
        """Normalize, sort, pad with empty dimensions, and validate.

        Each face is any sequence of integer vertices; a non-integer vertex
        raises TypeError and a face of the wrong length ValueError.
        """
        groups = [sorted({tuple(map(index, f)) for f in dim_faces}) for dim_faces in faces_by_dim]
        if max_dim is None:
            max_dim = max(len(groups) - 1, 0)
        while len(groups) <= max_dim:
            groups.append([])
        layers = (
            np.array(g, dtype=np.int64) if g else np.empty((0, i + 1), dtype=np.int64)
            for i, g in enumerate(groups)
        )
        c = cls(vertex_count, tuple(layers), max_dim)
        c.validate()
        return c

    def validate(self) -> None:
        """Check the vertex set, sorted layers and closure on the face keys; raise on violation.

        Keys are injective only on vertices 0..n-1, so the range is checked
        first (docs/decisions.md, section 14).
        """
        n = self.vertex_count
        if not np.array_equal(self.faces[0][:, 0], np.arange(n)):
            raise ValueError("dimension-0 faces must be exactly the vertices")
        for dim, layer in enumerate(self.faces[1:], 1):
            if layer.size and (layer.min() < 0 or layer.max() >= n):
                raise ValueError(f"a face of dim {dim} has a vertex outside 0..{n - 1}")
            if np.any(layer[:, 1:] <= layer[:, :-1]):
                raise ValueError(f"a face of dim {dim} is not strictly increasing")
        keys = _face_keys(self.faces, n, self.max_dim + 1)
        for dim in range(1, self.max_dim + 1):
            if np.any(np.diff(keys[dim]) <= 0):
                raise ValueError(f"faces of dim {dim} not sorted/unique")
            if not _face_rows(keys[:dim], n, _deletions(self.faces[dim]))[1].all():
                raise ValueError(f"a face of dim {dim} misses one of its subfaces")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self.max_dim == other.max_dim
            and all(map(np.array_equal, self.faces, other.faces))
        )

    def __hash__(self):
        return hash((self.vertex_count, self.max_dim, tuple(f.tobytes() for f in self.faces)))

    def __repr__(self) -> str:
        return f"SimplicialComplex(f={f_vector(self)}, max_dim={self.max_dim})"


def _face_rows(keys: list, n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows in faces[m - 1] of the (m-1)-faces x[..., :m], m = len(keys), and which were found.

    keys[d] holds the sorted keys of the d-faces: a vertex is its own key,
    and a d-face (v_0, ..., v_d) has key row(v_0..v_{d-1}) * n + v_d. One
    `searchsorted` per dimension turns a key into a row; keys[0] is None
    when the vertices are 0..n-1, each its own row. A face not found gets
    a meaningless row (docs/decisions.md, section 5).
    """
    row = x[..., 0]
    found = np.ones(row.shape, dtype=bool)
    for d, table in enumerate(keys):
        key = row * n + x[..., d] if d else row
        if table is None:
            continue
        row = np.searchsorted(table, key)
        found &= np.append(table, -1)[row] == key
    return row, found


def _face_keys(faces, n: int, top: int) -> list[np.ndarray | None]:
    """The keys of the face layers of dimensions 0..top-1, as `_face_rows` reads them.

    A d-face key is below f_{d-1} n, so every key fits in int64 unless some
    f_d n >= 2^63, d <= top-2, which raises ValueError, as does a face whose
    prefix is missing (docs/decisions.md, section 5).
    """
    widest = max((len(faces[d]) for d in range(top - 1)), default=0)
    if widest * n >= 2**63:
        raise ValueError(f"face keys on n={n} vertices reach {widest}*n >= 2**63 (k={top})")
    keys = [None if len(faces[0]) == n else faces[0][:, 0]]
    for d in range(1, top):
        row, found = _face_rows(keys, n, faces[d])
        if not found.all():
            raise ValueError(f"a {d}-face misses its prefix {d - 1}-face")
        keys.append(row * n + faces[d][:, d])
    return keys


def _deletions(faces: np.ndarray) -> np.ndarray:
    """Entry (j, i) of the (f_k, k+1, k) result is k-face j without its i-th vertex.

    Its row in the (k-1)-faces is row i of column j of d_k, with sign (-1)^i.
    """
    k = faces.shape[1] - 1
    return faces[:, [[v for v in range(k + 1) if v != i] for i in range(k + 1)]]


@dataclass(frozen=True, eq=False)
class ComponentDecomposition:
    """Connected components: a per-vertex label array and a per-label size array.

    The label of a component is the smallest vertex index it contains, so
    the decomposition is deterministic and permutation-covariant. `size[v]`
    is the size of the component labelled v, and 0 when v is no label.
    """

    label: np.ndarray
    size: np.ndarray

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.size))


def components(g: Graph) -> ComponentDecomposition:
    """Decompose `g` into connected components, once per graph.

    Two vertices share a label iff they are joined by a path; the label is
    the smallest vertex index in the component. Each round hooks the larger
    end label of every edge onto the smaller one (`np.minimum.at`), then
    jumps pointers until every label is a root; it stops when no edge joins
    two labels (docs/decisions.md, section 5).
    """
    if g._components is not None:
        return g._components
    n = g.vertex_count
    u, v = np.divmod(g.edge_keys, n)
    upper = u < v
    u, v = u[upper], v[upper]
    label = np.arange(n)
    lu, lv = label[u], label[v]
    while not np.array_equal(lu, lv):
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
        lu, lv = label[u], label[v]
    size = np.bincount(label, minlength=n)
    label.flags.writeable = size.flags.writeable = False
    g._components = ComponentDecomposition(label, size)
    return g._components


def _disjoint_union(graphs: list[Graph]) -> Graph:
    """One graph of graphs on n vertices each: vertex v of graph t becomes t*n + v.

    Graph t's key u*n + v becomes (tn + u)*N + tn + v, N = T*n. Each graph's
    keys stay sorted and all lie below graph t+1's, so the concatenation
    is sorted with no sort; one `np.diff` pass checks it. A batch of one is
    its graph (docs/decisions.md, section 16).
    """
    if len(graphs) == 1:
        return graphs[0]
    n = graphs[0].vertex_count
    big = len(graphs) * n
    if big > MAX_KEYED_VERTICES or any(g.vertex_count != n for g in graphs):
        raise ValueError(f"no keyed union of {len(graphs)} graphs on {n} vertices")
    keys = np.concatenate([g.edge_keys for g in graphs])
    shift = np.repeat(np.arange(len(graphs)) * n, [len(g.edge_keys) for g in graphs])
    u, v = np.divmod(keys, max(n, 1))
    keys = (u + shift) * big + v + shift
    if np.any(np.diff(keys) <= 0):
        raise ValueError("the union's edge keys are not increasing")
    keys.flags.writeable = False
    return Graph(big, edge_keys=keys)


def _fold(tally: np.ndarray, trials: int, n: int) -> np.ndarray:
    """Sum a per-vertex tally (last axis) of `_disjoint_union` over each trial's n vertices.

    The inverse of the union: vertex t*n + v is in trial t, so entry t of the
    result is trial t's count (docs/decisions.md, section 16).
    """
    return tally.reshape(*tally.shape[:-1], trials, n).sum(-1)


def _face_tally(c: SimplicialComplex) -> np.ndarray:
    """The (max_dim + 1, n) f-vector tally of c: the i-faces whose first vertex is v, at (i, v)."""
    return np.array([np.bincount(layer[:, 0], minlength=c.vertex_count) for layer in c.faces])


def f_vector(c: SimplicialComplex) -> tuple[int, ...]:
    """Number of i-faces for i = 0..max_dim (trailing zeros included)."""
    return tuple(len(c.faces[i]) for i in range(c.max_dim + 1))


def skeleton_graph(c: SimplicialComplex) -> Graph:
    """The 1-skeleton of a complex as a Graph."""
    edges = c.faces[1] if c.max_dim >= 1 else ()
    return Graph.from_edges(c.vertex_count, edges)

