"""Smallest enclosing ball radii in R^d, for arrays of point sets.

The ball-intersection predicate for Cech faces reduces to this: closed
balls of radius r about a point set share a point iff the smallest
enclosing ball of the set has radius <= r.
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

# Relative slack on radius comparisons; ties have probability zero for
# continuous densities, the slack only guards float round-off.
RADIUS_RTOL = 1e-10

# (set, support subset) pairs per array step of enclosing_radius; bounds its scratch memory
_BALL_BLOCK = 1 << 12


def triangle_radius(tri: np.ndarray) -> np.ndarray:
    """Smallest-enclosing-ball radii of point triples: (m, 3, d) -> (m,).

    The squared sides x, y, z are summed one coordinate at a time, with no
    BLAS call, so the bits do not depend on the numpy build. An angle >= 90
    degrees gives the diameter ball of the longest side, otherwise the
    circumscribed ball, R^2 = xyz / (2(xy + yz + zx) - (x^2 + y^2 + z^2))
    (Welzl 1991 for the case split; docs/decisions.md, section 6).
    """
    tri = np.asarray(tri, dtype=np.float64)
    x, y, z = np.zeros((3, len(tri)))
    for a, b, c in tri.transpose(2, 1, 0):  # one coordinate of the three points
        ab, bc, ca = a - b, b - c, c - a
        x += ab * ab
        y += bc * bc
        z += ca * ca
    big = np.maximum(np.maximum(x, y), z)
    radius = 0.5 * np.sqrt(big)
    acute = big < x + y + z - big
    x, y, z = x[acute], y[acute], z[acute]
    area16 = 2.0 * (x * y + y * z + z * x) - (x * x + y * y + z * z)
    radius[acute] = np.sqrt(x * y * z / area16)
    return radius


def _support_radii(P: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Smallest radius, per set of P (N, m, d), of a circumball of one of the
    `subsets` (c, s) that holds all m points; inf where none does.

    The circumcenter of a support set lies in its affine hull: base + V^T lam
    with 2 V V^T lam = diag(V V^T), V the other points less the base. A
    singular system is replaced by lam = 0, the radius-0 ball at the base.
    """
    S = P[:, subsets].transpose(3, 2, 0, 1)  # (d, s, N, c): one coordinate of one point
    V = S[:, 1:] - S[:, :1]
    # Python's sum adds over the first axis one term at a time: no BLAS call, no pairwise sum
    gram = sum(v[:, None] * v[None] for v in V).transpose(2, 3, 0, 1)  # (N, c, s-1, s-1)
    rhs = np.diagonal(gram, axis1=-2, axis2=-1).copy()
    gram = 2.0 * gram
    try:
        lam = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # an exactly singular system: LU met a zero pivot
        singular = np.linalg.slogdet(gram)[0] == 0.0
        gram[singular], rhs[singular] = np.eye(gram.shape[-1]), 0.0
        lam = np.linalg.solve(gram, rhs[..., None])[..., 0]
    offset = sum(lam[..., i] * V[:, i] for i in range(lam.shape[-1]))  # (d, N, c)
    radius = np.sqrt(sum(offset * offset))
    # |(x - base) - offset|, x - base taken as V is: no centre rounded at the points' scale
    points, base = P.transpose(2, 0, 1)[..., None], S[:, 0, :, None]  # (d, N, m, 1), (d, N, 1, c)
    dist = np.sqrt(sum(np.square(p - x0 - o) for p, x0, o in zip(points, base, offset[:, :, None])))
    holds = (dist <= (radius * (1.0 + RADIUS_RTOL) + 1e-300)[:, None]).all(axis=1)
    return np.where(holds, radius, np.inf).min(axis=1)


def enclosing_radius(P: np.ndarray) -> np.ndarray:
    """Smallest-enclosing-ball radii of point sets: (N, m, d) -> (N,).

    Up to three points take `triangle_radius`, the last point repeated.
    Larger sets take the smallest circumball of a support subset of 2 to
    d + 1 points that holds the whole set, by batched solves over
    `_BALL_BLOCK` (set, subset) pairs at a time. The work grows as
    N * m * sum(C(m, s), s = 2..d + 1), so it is meant for the small sets of
    Cech faces and mu samples, not for sets of dozens of points. Every row
    is computed alone, so its bits do not depend on the batch
    (docs/decisions.md, section 6).
    """
    P = np.asarray(P, dtype=np.float64)
    N, m, d = P.shape
    if m == 0:
        raise ValueError("need at least one point per set")
    if m <= 3 or d == 0:  # in R^0 every set is one point
        return triangle_radius(P if m == 3 else P[:, np.minimum([0, 1, 2], m - 1)])
    best = np.full(N, np.inf)
    for s in range(2, min(m, d + 1) + 1):
        combos = combinations(range(m), s)
        while len(subsets := np.array(list(islice(combos, _BALL_BLOCK)))):
            step = max(1, _BALL_BLOCK // len(subsets))
            for a in range(0, N, step):
                rows = slice(a, a + step)
                best[rows] = np.minimum(best[rows], _support_radii(P[rows], subsets))
    return best
