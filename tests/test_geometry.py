"""Tests for the incremental convex hull, volumes, clipping, and f-vectors.

Facet sets and extreme points are checked against the brute-force procedures
in tests/reference.py on seeded random point clouds; volumes against closed
forms and the 2-D shoelace formula.
"""

import random
from fractions import Fraction

import pytest

from reference import brute_force_facets, extreme_points, point_in_hull, shoelace_area

from resnewt.errors import EmptyIntersection, InvariantViolation
from resnewt.geometry import (
    Hyperplane,
    TriangulatedHull,
    clip_halfspace,
    f_vector,
    hull_volume,
)


def _build(points, ambient=None, track=True):
    hull = TriangulatedHull(ambient if ambient is not None else len(points[0]), track_facets=track)
    for p in points:
        hull.insert(tuple(p), tag=tuple(p))
    return hull


def _random_points(rng, d, n, lo=-6, hi=6):
    pts = [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(n)]
    # reference.extreme_points treats a duplicated point as non-extreme
    # (each copy lies in the hull of the rest), so draw distinct points.
    return list(dict.fromkeys(pts))


# -- hull combinatorics vs brute force ---------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_facets_match_brute_force(d):
    rng = random.Random(200 + d)
    for trial in range(8 if d < 4 else 4):
        pts = _random_points(rng, d, rng.randint(d + 2, d + 7))
        hull = _build(pts)
        if hull.dim < d:
            continue  # facet tracking applies to full-dimensional hulls
        # Compare facets by the full set of input points lying on each
        # supporting hyperplane — the representation brute_force_facets uses.
        got = set()
        for plane in hull.facet_map():
            on_plane = frozenset(
                p
                for p in pts
                if sum(n * x for n, x in zip(plane.normal, p)) == plane.offset
            )
            got.add(on_plane)
        expect = {frozenset(pts[i] for i in ids) for ids in brute_force_facets(pts)}
        assert got == expect


@pytest.mark.parametrize("d", [2, 3])
def test_facet_vertices_are_the_extreme_points(d):
    # hull.points stores every triangulation vertex (a point can be swallowed
    # after insertion); the facets reference exactly the extreme points.
    rng = random.Random(300 + d)
    for trial in range(10):
        pts = _random_points(rng, d, rng.randint(d + 2, d + 8))
        hull = _build(pts)
        expect = {pts[i] for i in extreme_points(pts)}
        assert expect <= set(hull.points) <= set(pts)
        if hull.dim < d:
            continue
        on_facets = {
            hull.points[i]
            for facet in hull.facet_map().values()
            for i in facet.vertex_ids
        }
        # vertex_ids may include triangulation points interior to a facet,
        # but every extreme point must appear on some facet, and everything
        # on a facet must satisfy its plane with equality.
        assert expect <= on_facets
        for plane, facet in hull.facet_map().items():
            for vid in facet.vertex_ids:
                p = hull.points[vid]
                assert sum(n * x for n, x in zip(plane.normal, p)) == plane.offset


def test_duplicate_and_interior_points_are_noops():
    hull = TriangulatedHull(2, track_facets=True)
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    for p in square:
        hull.insert(p, tag=p)
    nverts = len(hull.points)
    cells_before = sorted(hull.cells)
    removed, added = hull.insert((2, 2), tag=(2, 2))
    assert not removed and not added
    removed, added = hull.insert((0, 0), tag=(0, 0))
    assert not removed and not added
    assert len(hull.points) == nverts
    assert sorted(hull.cells) == cells_before


def test_insert_returns_facet_deltas():
    hull = TriangulatedHull(2, track_facets=True)
    for p in [(0, 0), (2, 0), (0, 2)]:
        hull.insert(p, tag=p)
    planes_before = set(hull.facet_map())
    removed, added = hull.insert((2, 2), tag=(2, 2))
    planes_after = set(hull.facet_map())
    assert {f.plane for f in added} == planes_after - planes_before
    assert {f.plane for f in removed} <= planes_before
    assert planes_before - {f.plane for f in removed} <= planes_after


def test_facet_map_keys_support_hull():
    rng = random.Random(42)
    pts = _random_points(rng, 3, 9)
    hull = _build(pts)
    if hull.dim < 3:
        pytest.skip("degenerate draw")
    for plane, facet in hull.facet_map().items():
        values = [sum(n * x for n, x in zip(plane.normal, p)) for p in hull.points]
        assert max(values) == plane.offset
        for vid in facet.vertex_ids:
            v = sum(n * x for n, x in zip(plane.normal, hull.points[vid]))
            assert v == plane.offset


# -- volumes -------------------------------------------------------------------


def test_hull_volume_closed_forms():
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert hull_volume(_build(cube)) == 1
    square2 = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert hull_volume(_build(square2)) == 4
    # Full-dimensional simplex 2*standard in the plane x+y+z=2 of R^3:
    tri = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    assert hull_volume(_build(tri)) == 2
    seg = [(0, 0, 0), (3, 6, 0)]
    assert hull_volume(_build(seg)) == 3  # lattice length
    assert hull_volume(_build([(5, 5)])) == 1
    empty = TriangulatedHull(2)
    assert hull_volume(empty) == 1


def test_hull_volume_matches_shoelace():
    import math

    rng = random.Random(77)
    for _ in range(15):
        pts = _random_points(rng, 2, rng.randint(4, 9))
        hull = _build(pts)
        if hull.dim < 2:
            continue
        corners = [pts[i] for i in extreme_points(pts)]
        cx = Fraction(sum(p[0] for p in corners), len(corners))
        cy = Fraction(sum(p[1] for p in corners), len(corners))
        ring = sorted(
            corners, key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx))
        )
        assert hull_volume(hull) == shoelace_area(ring)


# -- halfspace clipping ------------------------------------------------------------


def test_clip_identity_and_empty():
    square = _build([(0, 0), (2, 0), (2, 2), (0, 2)])
    same = clip_halfspace(square, Hyperplane((1, 0), 5))
    assert same is square  # nothing strictly outside: identity object
    with pytest.raises(EmptyIntersection):
        clip_halfspace(square, Hyperplane((1, 0), -1))


def test_clip_rectangle_area():
    square = _build([(0, 0), (4, 0), (4, 4), (0, 4)])
    clipped = clip_halfspace(square, Hyperplane((1, 0), 1))
    assert hull_volume(clipped) == 4
    assert set(clipped.points) == {(0, 0), (1, 0), (1, 4), (0, 4)}


def test_clip_simplex_scaling():
    # Cutting the corner of the standard simplex at x <= t leaves
    # volume 1/6 - (1-t)^3/6 ... easier checked from the apex side:
    # {x >= t} intersected with the simplex is a scaled copy, volume (1-t)^3/6.
    simplex = _build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    t = Fraction(1, 3)
    upper = clip_halfspace(simplex, Hyperplane((-1, 0, 0), -t))  # x >= t
    assert hull_volume(upper) == (1 - t) ** 3 / 6


def test_clip_cascade_monotone():
    rng = random.Random(11)
    cube = _build([(x, y) for x in (0, 6) for y in (0, 6)])
    vol = hull_volume(cube)
    hull = cube
    for _ in range(6):
        n = (rng.randint(-2, 2), rng.randint(-2, 2))
        if n == (0, 0):
            continue
        c = max(sum(a * b for a, b in zip(n, p)) for p in hull.points) - 1
        try:
            hull = clip_halfspace(hull, Hyperplane(n, c))
        except EmptyIntersection:
            break
        new_vol = hull_volume(hull)
        assert new_vol <= vol
        vol = new_vol
        for p in hull.points:
            assert sum(a * b for a, b in zip(n, p)) <= c


# -- f-vectors ------------------------------------------------------------------


def test_f_vector_closed_forms():
    tetra = _build([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert f_vector(tetra) == (4, 6, 4)
    cube = _build([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert f_vector(cube) == (8, 12, 6)
    square = _build([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert f_vector(square) == (4, 4)
    point = _build([(7, 7)])
    assert f_vector(point) == (1,)
    seg = _build([(0,), (5,)])
    assert f_vector(seg) == (2,)
    # Non-full-dimensional hulls need reparameterization first:
    from resnewt.errors import DegenerateInput

    with pytest.raises(DegenerateInput):
        f_vector(_build([(0, 0), (5, 0)]))


def test_f_vector_euler_relation():
    rng = random.Random(999)
    for d in (2, 3):
        for _ in range(5):
            pts = _random_points(rng, d, rng.randint(d + 2, d + 7))
            hull = _build(pts)
            if hull.dim < d:
                continue
            fv = f_vector(hull)
            euler = sum((-1) ** i * fv[i] for i in range(len(fv)))
            assert euler == 1 - (-1) ** hull.dim


# -- lower-dimensional hulls ---------------------------------------------------------


def test_lower_dim_hull_membership():
    # A 2-flat inside R^4: hull arithmetic must stay consistent.
    base = [(1, 0, 2, 0), (0, 1, 0, 3)]
    rng = random.Random(9)
    raw = []
    for _ in range(7):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        raw.append(tuple(a * u + b * v for u, v in zip(*base)))
    hull = _build(raw, ambient=4, track=False)
    assert hull.dim <= 2
    for p in hull.points:
        assert point_in_hull(p, raw)


def _boundary(hull):
    return sorted((bs.verts, bs.opp) for bs in hull.alive_boundary())


def test_flat_chart_matches_intrinsic_hull():
    # Points p0 + a.u + b.v of a 2-flat in R^4 (u, v a saturated basis of
    # its direction space), some with Fraction (a, b).  The flat hull orients
    # over its chart; the hull of the (a, b) in R^2 orients directly.  Both
    # must make every decision alike: same cells, same boundary simplices,
    # and facets that are the brute-force facets of the flat points.
    p0, u, v = (1, -2, 0, 3), (1, 0, 2, -1), (0, 1, -1, 2)
    rng = random.Random(41)
    for trial in range(6):
        ab = []
        while len(ab) < 9:
            a = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3)))
            b = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2)))
            if (a, b) not in ab:
                ab.append((a, b))
        flat_pts = [
            tuple(x + a * y + b * z for x, y, z in zip(p0, u, v)) for a, b in ab
        ]
        flat = _build(flat_pts, ambient=4, track=False)
        intrinsic = TriangulatedHull(2, track_facets=True)
        for (a, b), p in zip(ab, flat_pts):
            intrinsic.insert((a, b), tag=p)
        assert flat.dim == intrinsic.dim == 2
        assert flat.tags == intrinsic.tags
        assert flat.cells == intrinsic.cells
        assert _boundary(flat) == _boundary(intrinsic)
        got = {
            frozenset(
                p
                for (a, b), p in zip(ab, flat_pts)
                if plane.normal[0] * a + plane.normal[1] * b == plane.offset
            )
            for plane in intrinsic.facet_map()
        }
        expect = {
            frozenset(flat_pts[i] for i in ids)
            for ids in brute_force_facets(flat_pts)
        }
        assert got == expect


@pytest.mark.parametrize("base_dim", [2, 3])
def test_extended_clone_matches_direct_build(base_dim):
    # A base hull in R^3 (full, or in a plane when base_dim is 2), cloned
    # into R^4 and given lifted points, ends with the cells of a hull built
    # in R^4 from all the points in the same order.  The base starts along
    # the last axes first, so its chart's pivots arrive out of order.
    rng = random.Random(70 + base_dim)
    for trial in range(5):
        if base_dim == 3:
            start = [(0, 0, 0), (0, 0, 3), (0, 2, 1), (1, 1, 1)]
            base = list(dict.fromkeys(start + _random_points(rng, 3, 8)))
        else:
            start = [(0, 0), (0, 3), (1, 1)]
            base = list(dict.fromkeys(
                (x, y, 2 * x - y) for x, y in start + _random_points(rng, 2, 7)
            ))
        lifted = list(dict.fromkeys(
            p + (rng.randint(-9, 9),) for p in _random_points(rng, 3, 6)
        ))
        small = _build(base, track=False)
        clone = small.extended_clone()
        direct = TriangulatedHull(4)
        for p in base:
            direct.insert(p + (0,), tag=p + (0,))
        for p in lifted:
            clone.insert(p, tag=p)
            direct.insert(p, tag=p)
        assert clone.dim == direct.dim
        assert clone.points == direct.points
        assert clone.cells == direct.cells
        assert _boundary(clone) == _boundary(direct)


def test_cached_planes_track_every_insert():
    # facet_map keeps each boundary simplex's plane; after every insert its
    # facets must still be those of a brute-force hull of the points so far.
    rng = random.Random(5)
    pts = _random_points(rng, 3, 14)
    hull = TriangulatedHull(3, track_facets=True)
    for n, p in enumerate(pts, start=1):
        hull.insert(p, tag=p)
        if hull.dim < 3:
            continue
        so_far = pts[:n]
        got = set()
        for plane, facet in hull.facet_map().items():
            on_plane = frozenset(
                q for q in so_far
                if sum(a * x for a, x in zip(plane.normal, q)) == plane.offset
            )
            assert {hull.points[i] for i in facet.vertex_ids} <= on_plane
            assert all(
                sum(a * x for a, x in zip(plane.normal, q)) <= plane.offset
                for q in so_far
            )
            got.add(on_plane)
        expect = {frozenset(so_far[i] for i in ids) for ids in brute_force_facets(so_far)}
        assert got == expect


def test_flat_witness_raises_invariant_violation():
    # An orientation callback that finds every simplex flat breaks the
    # hull's invariants; that must raise a typed error even under -O.
    hull = TriangulatedHull(2, orient_fn=lambda h, ids: 0)
    with pytest.raises(InvariantViolation):
        for p in [(0, 0), (1, 0), (0, 1)]:
            hull.insert(p)
