"""Simplicial homology ranks over GF(q), plus an exact rational oracle.

Betti numbers come from rank-nullity: beta_k = f_k - rank d_k - rank d_{k+1}.
The working field is a prime q below 2^31; rank over GF(q) equals the
rational rank unless q divides a torsion coefficient, which a second-prime
pass detects. rank d_1 = f_0 - #components over every field, so
`betti_numbers` counts it by min-label propagation over the edge arrays,
finished by a union-find. It reduces d_2 and up with one sparse column
reduction, from the top degree down, and skips the columns of d_k that are
pivot rows of d_{k+1} (clearing). The rows of each boundary come from
`searchsorted` on face keys, one per dimension.
`betti_numbers_exact` reduces every degree, d_1 included, over Q on Python
ints, dividing each column by the gcd of its entries (docs/decisions.md,
section 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    SimplicialComplex, _by_trial, _deletions, _face_counts, _face_keys, _face_rows, f_vector
)

DEFAULT_PRIME = 2147483629  # large prime below 2^31, the bound of require_prime_field


def require_prime_field(q: int) -> None:
    """Raise ValueError unless q is a prime below 2^31.

    The bound keeps the primality test exact: Miller-Rabin to the bases
    2, 3, 5, 7 has no strong pseudoprime below 3,215,031,751 > 2^31.
    """
    if isinstance(q, bool) or not isinstance(q, int) or not 2 <= q < 2**31:
        raise ValueError(f"field size q={q!r} must be a prime below 2^31")
    if q in (2, 3, 5, 7):
        return
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            raise ValueError(f"field size q={q} is not a prime")


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """The boundary operator d_k as one array of rows.

    Rows index (k-1)-faces, columns index k-faces, both in lexicographic
    order. `rows` is the read-only (f_k, k+1) int64 array whose entry (j, i)
    is the row of k-face j without its i-th vertex, where column j holds
    (-1)^i. Signs are reduced mod q only when a rank is taken.
    """

    degree: int
    row_count: int
    rows: np.ndarray

    @property
    def col_count(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoundaryMatrix)
            and (self.degree, self.row_count) == (other.degree, other.row_count)
            and np.array_equal(self.rows, other.rows)
        )


def _boundary(keys: list, c: SimplicialComplex, k: int) -> BoundaryMatrix:
    """d_k with row i of column j the row of k-face j without vertex i."""
    rows, found = _face_rows(keys[:k], c.vertex_count, _deletions(c.faces[k]))
    if not found.all():
        raise ValueError(f"a face of the complex misses one of its {k - 1}-faces")
    rows.flags.writeable = False
    return BoundaryMatrix(k, len(c.faces[k - 1]), rows)


def boundary_matrix(c: SimplicialComplex, k: int) -> BoundaryMatrix:
    """Standard simplicial boundary with alternating signs, 1 <= k <= max_dim."""
    if not 1 <= k <= c.max_dim:
        raise ValueError(f"k={k} out of range 1..{c.max_dim}")
    return _boundary(_face_keys(c.faces, c.vertex_count, k), c, k)


def _pivot_lows(cols: list[dict[int, int]], q: int, cleared) -> dict[int, dict[int, int]]:
    """Left-to-right column reduction (persistence-style) over GF(q).

    Each column whose index is not in `cleared` is reduced against the pivot
    column sharing its lowest nonzero row until it gains a fresh pivot or
    vanishes. Returns the pivot columns keyed by their lows, as many as the
    rank of the uncleared columns. Boundary columns have k+1 entries, so
    fill-in stays small in practice.
    """
    pivot_of_low: dict[int, dict[int, int]] = {}
    for j, col in enumerate(cols):
        if j in cleared:
            continue
        while col:
            low = max(col)
            piv = pivot_of_low.get(low)
            if piv is None:
                pivot_of_low[low] = col
                break
            factor = (col[low] * pow(piv[low], -1, q)) % q
            for row, val in piv.items():
                nv = (col.get(row, 0) - factor * val) % q
                if nv:
                    col[row] = nv
                else:
                    col.pop(row, None)
    return pivot_of_low


def _columns(bm: BoundaryMatrix, q: int | None = None) -> list[dict[int, int]]:
    """The columns of the matrix as {row: entry} dicts, entries mod q unless q is None."""
    sign = [(-1) ** i if q is None else (-1) ** i % q for i in range(bm.degree + 1)]
    return [dict(zip(row, sign)) for row in bm.rows.tolist()]


def rank_gf(bm: BoundaryMatrix, q: int = DEFAULT_PRIME) -> int:
    """Rank of the boundary matrix over GF(q), q a prime below 2^31, by `_pivot_lows`."""
    require_prime_field(q)
    return len(_pivot_lows(_columns(bm, q), q, ()))


_LABEL_HANDOFF = 128  # split edges at or below which the union-find finishes
_LABEL_ROUNDS = 16  # propagation rounds at most before the union-find finishes


def _rank_d1(c: SimplicialComplex, n: int, trials: int) -> np.ndarray:
    """rank d_1 = f_0 - #components of each trial of a batch, by min-label propagation
    and a union-find finish.

    Every label starts as its vertex, and each round both ends of every edge
    take the smaller label, with no pointer jumping. Once at most
    `_LABEL_HANDOFF` edges have ends of different labels, or after
    `_LABEL_ROUNDS` rounds, a path-halving union-find starts from the labels
    as its forest and joins the label pairs of those edges. The rank of a
    trial is its vertices that point elsewhere plus its joins, each counted
    by the trial of its vertex (docs/decisions.md, sections 5, 16).
    """
    lo, hi = c.faces[1].T
    label = np.arange(c.vertex_count)
    a, b, rounds = lo, hi, 0  # the end labels of the edges whose ends differ
    while len(a) > _LABEL_HANDOFF and rounds < _LABEL_ROUNDS:
        np.minimum.at(label, lo, label[hi])
        np.minimum.at(label, hi, label[lo])
        a, b = label[lo], label[hi]
        split = a != b
        a, b, rounds = a[split], b[split], rounds + 1
    moved = np.flatnonzero(label != np.arange(c.vertex_count)) if rounds else label[:0]
    parent, joins = label.tolist(), []
    for u, v in zip(a.tolist(), b.tolist()):
        while parent[u] != u:  # find with path halving
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            joins.append(u)
    return _by_trial(moved, n, trials) + _by_trial(np.array(joins, dtype=np.int64), n, trials)


def _rank_exact(bm: BoundaryMatrix) -> int:
    """Rank over Q by a fraction-free column reduction by lows on Python ints.

    A column that shares its low with a pivot becomes a*col - b*piv, with
    a = piv[low] and b = col[low], divided by the gcd of its entries. Every
    step scales the column by a nonzero rational and adds a combination of
    earlier columns, so the pivots, whose lows differ, count the rank.
    """
    pivot_of_low: dict[int, dict[int, int]] = {}
    for col in _columns(bm):
        while col:
            low = max(col)
            piv = pivot_of_low.get(low)
            if piv is None:
                pivot_of_low[low] = col
                break
            a, b = piv[low], col[low]
            col = {r: a * col.get(r, 0) - b * piv.get(r, 0) for r in col.keys() | piv.keys()}
            g = math.gcd(*col.values())
            col = {r: x // g for r, x in col.items() if x}
    return len(pivot_of_low)


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers beta_0..beta_{up_to} with the boundary ranks used.

    field_prime is None when the ranks were computed exactly over Q.
    ranks[k] is rank d_k (rank d_0 == 0 by convention).
    """

    field_prime: int | None
    betti: tuple[int, ...]
    ranks: tuple[int, ...]


def _resolve_up_to(c: SimplicialComplex, up_to: int | None) -> int:
    """The top degree, by default max_dim - 1; it must lie in 0..max_dim - 1.

    beta_k needs faces of dimension k+1 (the relations); a silently
    truncated complex would inflate the top Betti number.
    """
    if up_to is None:
        up_to = c.max_dim - 1
    if not 0 <= up_to <= c.max_dim - 1:
        raise ValueError(
            f"up_to={up_to} requires faces of dimension {up_to + 1}; complex has max_dim={c.max_dim}"
        )
    return up_to


def _betti_vector(f: tuple[int, ...], ranks: list[int], q: int | None) -> BettiVector:
    """beta_k = f_k - rank d_k - rank d_{k+1} for k = 0..len(ranks) - 2."""
    betti = tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1))
    if any(b < 0 for b in betti):
        raise RuntimeError(f"negative Betti number from ranks {ranks}")
    return BettiVector(q, betti, tuple(ranks))


def _ranks(
    c: SimplicialComplex, top: int, q: int, n: int, trials: int
) -> list[tuple[tuple[int, ...], list[int]]]:
    """The f-vector and the ranks of d_0..d_top over GF(q) of each trial of a batch.

    d_top is reduced first and d_2 last. A column of d_k whose index is the
    low of a pivot of d_{k+1} reduces to zero, so it is skipped (clearing).
    A pivot counts for the trial of its low row's first vertex: the union
    of a batch is block-diagonal, so each trial's pivots are its own
    (docs/decisions.md, sections 5, 16).
    """
    ranks = np.zeros((trials, top + 1), dtype=np.int64)
    keys = _face_keys(c.faces, c.vertex_count, top)
    lows = ()
    for k in range(top, 1, -1):
        lows = _pivot_lows(_columns(_boundary(keys, c, k), q), q, lows)
        low = np.fromiter(lows, dtype=np.int64, count=len(lows))
        ranks[:, k] = _by_trial(c.faces[k - 1][low, 0], n, trials)
    ranks[:, 1] = _rank_d1(c, n, trials)
    return list(zip(_face_counts(c, n, trials), ranks.tolist()))


def betti_numbers(
    c: SimplicialComplex, up_to: int | None = None, q: int = DEFAULT_PRIME
) -> BettiVector:
    """Betti numbers beta_0..beta_{up_to} over GF(q) by boundary ranks.

    The ranks are those of `_ranks` on a batch of one: clearing from
    d_{up_to+1} down to d_2, and rank d_1 from min-label propagation over
    the edges, finished by a union-find, so beta_0 is their component
    count. A trial checks that count against the components of the graph
    the complex was built from (docs/decisions.md, section 5).
    """
    require_prime_field(q)
    top = _resolve_up_to(c, up_to) + 1
    return _betti_vector(*_ranks(c, top, q, c.vertex_count, 1)[0], q)


def betti_numbers_exact(c: SimplicialComplex, up_to: int | None = None) -> BettiVector:
    """Brute-force oracle: Betti numbers over Q by exact column reduction, with no prime."""
    top = _resolve_up_to(c, up_to) + 1
    ranks = [0] + [_rank_exact(boundary_matrix(c, k)) for k in range(1, top + 1)]
    return _betti_vector(f_vector(c), ranks, None)


def check_field_independence(
    c: SimplicialComplex,
    up_to: int | None = None,
    q1: int = DEFAULT_PRIME,
    q2: int = 2147483587,
) -> tuple[BettiVector, BettiVector, bool]:
    """Compute Betti numbers at two primes; disagreement flags torsion at a prime."""
    b1 = betti_numbers(c, up_to, q1)
    b2 = betti_numbers(c, up_to, q2)
    return b1, b2, b1.betti == b2.betti


def euler_characteristic(c: SimplicialComplex) -> int:
    """Alternating sum of face counts.

    Only meaningful when the complex is built to its full dimension (no
    face exists above max_dim); callers guarantee this by choosing
    max_dim >= clique number - 1.
    """
    return sum((-1) ** i * n_i for i, n_i in enumerate(f_vector(c)))
