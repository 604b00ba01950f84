"""Smallest enclosing ball in R^d, Welzl's algorithm with move-to-front.

The ball-intersection predicate for Cech faces reduces to this: closed
balls of radius r about a point set share a point iff the smallest
enclosing ball of the set has radius <= r.
"""

from __future__ import annotations

import numpy as np

# Relative slack on radius comparisons; ties have probability zero for
# continuous densities, the slack only guards float round-off.
RADIUS_RTOL = 1e-10


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
    """Center and radius of the smallest ball enclosing `points` (shape (m, d))."""
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


def min_enclosing_radius(points: np.ndarray) -> float:
    """Radius only: up to three points take `triangle_radius`, the last point repeated."""
    pts = np.asarray(points, dtype=np.float64)
    if not 1 <= len(pts) <= 3:
        return min_enclosing_ball(pts)[1]
    return float(triangle_radius(pts[None, np.minimum([0, 1, 2], len(pts) - 1)])[0])
