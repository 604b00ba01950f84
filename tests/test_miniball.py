"""The array smallest-enclosing-ball kernel against Welzl, exhaustive and projection oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from randcomplex import RngStream, balls_intersect, miniball
from randcomplex.miniball import enclosing_radius, triangle_radius

from oracles import ball_intersection_by_projection, meb_radius_exhaustive, min_enclosing_ball


def min_enclosing_radius(points) -> float:
    """`enclosing_radius` on one set (m, d)."""
    return float(enclosing_radius(np.asarray(points, dtype=np.float64)[None])[0])


def test_two_points_tangency():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert min_enclosing_radius(pts) == pytest.approx(1.0)
    assert balls_intersect(pts, 1.0)  # closed balls meet at the midpoint


def test_two_points_apart():
    pts = np.array([[0.0, 0.0], [1.01, 0.0]])
    assert not balls_intersect(pts, 0.5)


def test_equilateral_triangle_circumradius():
    side = 2.0
    pts = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
    circum = side / math.sqrt(3.0)
    assert min_enclosing_radius(pts) == pytest.approx(circum, rel=1e-12)
    assert not balls_intersect(pts, 1.05)
    assert balls_intersect(pts, 1.16)


def test_single_point():
    assert balls_intersect(np.array([[3.0, 4.0, 5.0]]), 1e-9)


def test_interior_point_ignored():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]])
    assert min_enclosing_radius(pts) == pytest.approx(1.0)


def test_obtuse_triangle_uses_diameter_ball():
    # opposite angle is obtuse, so the ball is the longest side's diameter ball
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 0.5]])
    assert min_enclosing_radius(pts) == pytest.approx(2.0, rel=1e-12)


def test_three_point_radius_matches_scalar():
    """`triangle_radius` against Welzl per triple, degenerate triples included."""
    gen = RngStream(5).generator()
    special = [
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # right angle at the first point
        [[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]],  # right angle at the last point
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [3.0, 3.0, 3.0]],  # collinear, middle point inside
        [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],  # collinear, longest side first
        [[1.0, 2.0, 3.0]] * 3,  # coincident
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 5.0]],  # two coincident
    ]
    tri = np.concatenate((np.array(special), gen.standard_normal((64, 3, 3))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = triangle_radius(tri)
        scalar = [min_enclosing_radius(t) for t in tri]
    assert batch[:6].tolist() == [0.5 * math.sqrt(2.0), 2.5, 1.5 * math.sqrt(3.0), 1.0, 0.0, 1.0]
    for t, radius, one in zip(tri, batch, scalar):
        assert radius == pytest.approx(min_enclosing_ball(t)[1], rel=1e-10, abs=1e-15)
        assert one == radius  # a single triple takes the same binary64 steps
    assert triangle_radius(np.empty((0, 3, 2))).shape == (0,)


def test_welzl_agrees_with_exhaustive_oracle():
    """The array kernel on one set against Welzl's recursion and the
    exhaustive support-subset oracle, also on sets far from the origin."""
    # spec invariant: 1e4 random instances, d <= 4, set sizes <= 6
    gen = RngStream(2024).generator()
    for _ in range(10_000):
        d = int(gen.integers(1, 5))
        m = int(gen.integers(1, 7))
        pts = gen.standard_normal((m, d)) * float(gen.random() * 3 + 0.1)
        mine = min_enclosing_radius(pts)
        ref = meb_radius_exhaustive(pts)
        assert mine == pytest.approx(ref, rel=1e-7, abs=1e-9)
        assert mine == pytest.approx(min_enclosing_ball(pts)[1], rel=1e-7, abs=1e-9)
    # radii far below the coordinates' scale, against Welzl alone (the exhaustive
    # oracle rounds its centres at that scale): on the line only the extreme
    # pair's ball holds the set, and a small square is moved far from the origin
    far = [0.7 + 2e-7 * gen.random((int(gen.integers(4, 7)), 1)) for _ in range(200)]
    square = np.array([[0.0, 0.0], [1e-3, 0.0], [0.0, 1e-3], [1e-3, 1e-3], [5e-4, 5e-4]])
    far += [square + shift for shift in ([1e8, 3e7], [-2.5e5, 7.0])]
    for pts in far:
        assert min_enclosing_radius(pts) == pytest.approx(min_enclosing_ball(pts)[1], rel=1e-12)
    assert balls_intersect(far[-2], 7.1e-4) and not balls_intersect(far[-2], 7.0e-4)


def test_welzl_agrees_with_projection_feasibility():
    """`balls_intersect` on the array kernel against alternating projections."""
    gen = RngStream(77).generator()
    checked = 0
    for _ in range(300):
        d = int(gen.integers(2, 5))
        m = int(gen.integers(2, 7))
        pts = gen.standard_normal((m, d))
        r = float(gen.random() * 2.0 + 0.2)
        verdict = ball_intersection_by_projection(pts, r)
        if verdict is None:
            continue
        checked += 1
        assert balls_intersect(pts, r) == verdict
    assert checked >= 250


def test_degenerate_duplicate_points():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    assert min_enclosing_radius(pts) == pytest.approx(0.0, abs=1e-12)
    center, radius = min_enclosing_ball(np.array([[2.0, 3.0], [2.0, 3.0]]))
    assert radius == 0.0 and center.tolist() == [2.0, 3.0]
    # four or more points: every support subset with a repeated point or a
    # flat hull has a singular Gram system, which must not undercut the minimum
    sets = [
        [[1.0, 2.0, 3.0]] * 4,  # coincident
        [[1.0, 2.0, 3.0]] * 5 + [[1.0, 2.0, 4.0]],  # coincident but one
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [3.0, 3.0, 3.0], [2.0, 2.0, 2.0]],  # collinear
        [[0.0, 0.0], [2.0, 0.0], [0.5, 0.0], [1.5, 0.0], [1.0, 0.0]],  # collinear in the plane
        [[0.0, 0.0, 5.0], [2.0, 0.0, 5.0], [0.0, 2.0, 5.0], [2.0, 2.0, 5.0]],  # coplanar square
        [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [1.0, 0.5, 0.0], [2.0, 1.0, 0.0]],  # coplanar, obtuse
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],  # duplicated pairs
        [[3.0], [1.0], [3.0], [-2.0]],  # d = 1
        [[]] * 4,  # d = 0
    ]
    expected = [0.0, 0.5, 1.5 * math.sqrt(3.0), 1.0, math.sqrt(2.0), 2.0, None, None, 2.5, 0.0]
    for pts, want in zip(sets, expected):
        pts = np.array(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mine = min_enclosing_radius(pts)
        assert mine == pytest.approx(min_enclosing_ball(pts)[1], rel=1e-12, abs=1e-15)
        assert mine == pytest.approx(meb_radius_exhaustive(pts), rel=1e-12, abs=1e-15)
        if want is not None:
            assert mine == pytest.approx(want, rel=1e-15)


def test_enclosing_radius_bits_alone_in_a_batch_and_across_blocks(monkeypatch):
    """Each row is computed alone: the same bits for one set, inside a batch,
    and on either side of a `_BALL_BLOCK` boundary, block-aligned or not,
    with the subsets of one size split across steps or not."""
    gen = RngStream(11).generator()
    for m, d in [(4, 2), (4, 3), (5, 3), (6, 4)]:
        P = gen.standard_normal((41, m, d))
        P[7] = P[7, [0, 0, 1, 2] + list(range(3, m - 1))]  # a repeated point
        alone = [enclosing_radius(p[None])[0] for p in P]
        whole = enclosing_radius(P)
        assert whole.tolist() == alone
        # steps of one pair, of 10 pairs (subsets split if C(m, s) > 10), and of about 4 sets
        for block in (1, 10, 4 * math.comb(m, 3) + 1):
            monkeypatch.setattr(miniball, "_BALL_BLOCK", block)
            assert enclosing_radius(P).tolist() == alone
            assert enclosing_radius(P[5:]).tolist() == alone[5:]
        monkeypatch.undo()
    assert enclosing_radius(np.empty((0, 5, 3))).shape == (0,)
    with pytest.raises(ValueError):
        enclosing_radius(np.empty((2, 0, 3)))
