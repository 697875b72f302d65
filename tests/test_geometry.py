"""Tests for the convex hulls, volumes, clipping, and f-vectors.

Facet sets, extreme points and facet graphs are checked against the
brute-force procedures in tests/reference.py on seeded random and
degenerate point sets; volumes against closed forms, an independent sum
over a placing triangulation's cells and the 2-D shoelace formula.
"""

import functools
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import cells_volume, system_from
from golden import BICUBIC, CIRCLE_LINE, MONOMIAL_SURFACE, SYLVESTER
from reference import (
    brute_force_facets,
    brute_force_vertices,
    extreme_points,
    outer_points,
    point_in_hull,
    ref_affine_dim,
    ref_plane,
    ref_simplex_planes,
    shoelace_area,
)

from resnewt import geometry
from resnewt import oracle as oracle_module
from resnewt import outer as outer_module
from resnewt.cayley import unproject
from resnewt.errors import DegenerateInput, EmptyIntersection, InvariantViolation
from resnewt.exactlin import (
    AffineChart,
    adjugate,
    integer_kernel,
    primitive,
    rank_int,
    saturated_basis,
)
from resnewt.geometry import (
    FacetHull,
    Hyperplane,
    TriangulatedHull,
    f_vector,
    hull_volume,
    lattice_hull,
)
from resnewt.kernels import MinorCache, det_bareiss
from resnewt.oracle import lift_direction
from resnewt.outer import OuterPolytope, clip_halfspace
from resnewt.reconstruct import compute_pi


def _build(points, ambient=None):
    # A triangulated hull of the points, tagged by their places.
    ambient = ambient if ambient is not None else len(points[0])
    hull = TriangulatedHull(ambient)
    for i, p in enumerate(points):
        hull.place(tuple(p), tag=i)
    return hull


def _hull(points):
    # The FacetHull of the points, or None when they do not span their space.
    try:
        return FacetHull(points)
    except DegenerateInput:
        return None


def _grown(pts):
    # The FacetHull of the shortest prefix of pts that spans, then the same
    # hull after each later insert: yields (hull, points so far, planes
    # added), all planes at the start.
    d = len(pts[0])
    n = next((n for n in range(1, len(pts) + 1) if ref_affine_dim(pts[:n]) == d), None)
    if n is None:
        return
    hull = FacetHull(pts[:n])
    yield hull, pts[:n], list(hull.facet_map())
    for i in range(n, len(pts)):
        added = hull.insert(pts[i])
        yield hull, pts[: i + 1], added


def _on(hull, mask):
    # The recorded points whose bits are set in mask.
    return {p for i, p in enumerate(hull.points) if mask >> i & 1}


def _facet_points(hull):
    return {plane: frozenset(_on(hull, mask)) for plane, mask in hull.facet_map().items()}


def _tags(mask):
    # The tags of a triangulated hull's simplex, increasing.
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


def _grouped(hull):
    # A triangulated hull's facets: its boundary simplices grouped by their
    # planes, taken by tests/reference.py, each with the points of the
    # simplices on it.  A plane is taken away from any recorded point off it.
    point, groups = dict(zip(hull.tags, hull.points)), {}
    for mask, _ in hull.boundary:
        on = tuple(point[t] for t in _tags(mask))
        for t in (t for t in hull.tags if not mask >> t & 1):
            plane = _ref_plane(on, point[t])
            if plane is not None:
                break  # else t lies on the plane
        else:
            raise AssertionError("no recorded point off the plane of %s" % bin(mask))
        groups.setdefault(plane, set()).update(on)
    return {plane: frozenset(pts) for plane, pts in groups.items()}


@functools.cache
def _ref_plane(points, witness):
    # ref_plane, once per (points, witness): a hull is grouped again after
    # every insert.
    return ref_plane(points, witness)


def _value(plane, p):
    return sum(a * x for a, x in zip(plane.normal, p))


def _sees(plane, p):
    return _value(plane, p) > plane.offset


def _random_points(rng, d, n, lo=-6, hi=6):
    pts = [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(n)]
    # reference.extreme_points treats a duplicated point as non-extreme
    # (each copy lies in the hull of the rest), so draw distinct points.
    return list(dict.fromkeys(pts))


def _brute_facets(pts):
    return {frozenset(pts[i] for i in ids) for ids in brute_force_facets(pts)}


def _assert_double_description(hull, so_far):
    # Facets, masks and facet graph of a FacetHull of the points so_far,
    # against tests/reference.py: every plane supports the points, its
    # points are a brute-force facet's, its mask holds exactly the recorded
    # points on it, and the facet graph joins the facets that meet in a ridge.
    facets = hull.facet_map()
    got = set()
    for plane, mask in facets.items():
        assert all(_value(plane, q) <= plane.offset for q in so_far)
        got.add(frozenset(q for q in so_far if _value(plane, q) == plane.offset))
        assert _on(hull, mask) == {q for q in hull.points if _value(plane, q) == plane.offset}
    brute = _brute_facets(so_far)
    assert got == brute
    # A point is a vertex when the brute-force facets through it meet in it.
    for q in so_far:
        through = [f for f in brute if q in f]
        if through and frozenset.intersection(*through) == {q}:
            assert q in hull.points
    assert set(hull.points) <= set(so_far)
    _assert_facet_graph(hull)


# -- the facet hull against brute force ---------------------------------------------


def _degenerate_sets(d):
    # Cubes (below dimension 4, where the brute force is slow on them) and
    # cross-polytopes, with points beyond them on a facet plane (a2 = 0: a
    # kept facet gains the point) and on the planes of several.
    cube = [p for p in product((0, 2), repeat=d)]
    beyond = [(4,) + (0,) * (d - 1), (4,) + (2,) * (d - 1), (3,) + (1,) * (d - 1)]
    cross = [(0,) * d] + [
        tuple(s if i == t else 0 for i in range(d)) for t in range(d) for s in (2, -2)
    ]
    tip = [(4,) + (0,) * (d - 1), (1,) * d, (2,) + (1,) * (d - 1)]
    sets = [list(dict.fromkeys(cross + tip))]
    return sets if d == 4 else sets + [list(dict.fromkeys(cube + beyond))]


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_facet_hull_matches_brute_force_after_every_insert(d):
    # Random, grid (coplanar), half-integer and degenerate point sets: after
    # the simplex and after every insert, the facets, masks and facet graph
    # are the brute-force ones, and the running volume equals a fresh
    # pulling volume and the sum over an independent triangulation's cells
    # (and, in 2D, the shoelace area); the recorded points hold every
    # vertex of the brute-force facets.
    if d == 0:
        hull = FacetHull([()])
        assert hull.facet_map() == {} and hull.insert(()) == []
        assert hull_volume(hull) == 1 and f_vector(hull) == (1,)
        return
    rng = random.Random(1000 + d)
    sets = _degenerate_sets(d)
    for trial in range(2 if d < 4 else 1):
        sets.append(_random_points(rng, d, d + 5))
        grid = lambda: tuple(rng.randint(0, 2) for _ in range(d))
        sets.append(list(dict.fromkeys(grid() for _ in range(d + 5))))
    half = lambda: tuple(rng.randint(0, 4) for _ in range(d))  # halves, scaled by 2
    sets.append(list(dict.fromkeys(half() for _ in range(d + 5))))
    gained = 0
    for pts in sets:
        seen = False
        for hull, so_far, added in _grown(pts):
            _assert_double_description(hull, so_far)
            rows = [geometry._hom_row(p) for p in hull.points]
            assert hull_volume(hull) == geometry._pulling_volume(
                d, rows, hull.facet_map().values()
            )
            assert hull_volume(hull) == cells_volume(so_far)
            if d == 2:
                ring = [so_far[i] for i in _ring(so_far)]
                assert hull_volume(hull) == shoelace_area(ring)
            vid = len(hull.points) - 1
            if seen and hull.points[vid] == so_far[-1]:
                gained += any(
                    mask >> vid & 1 and plane not in added
                    for plane, mask in hull.facet_map().items()
                )
            seen = True
    if d > 1:
        assert gained  # some kept facet took the new point (a2 = 0)


def _ring(pts):
    # The indices of the extreme points of 2-D points, in angular order.
    corners = extreme_points(pts)
    cx = Fraction(sum(pts[i][0] for i in corners), len(corners))
    cy = Fraction(sum(pts[i][1] for i in corners), len(corners))
    return sorted(corners, key=lambda i: math.atan2(pts[i][1] - cy, pts[i][0] - cx))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_facets_match_brute_force(d):
    rng = random.Random(200 + d)
    for trial in range(8 if d < 4 else 4):
        pts = _random_points(rng, d, rng.randint(d + 2, d + 7))
        hull = _hull(pts)
        if hull is None:
            continue  # facets are those of full-dimensional hulls
        # Compare facets by the full set of input points lying on each
        # supporting hyperplane — the representation brute_force_facets uses.
        got = set()
        for plane in hull.facet_map():
            on_plane = frozenset(p for p in pts if _value(plane, p) == plane.offset)
            got.add(on_plane)
        assert got == _brute_facets(pts)


@pytest.mark.parametrize("d", [2, 3])
def test_facet_vertices_are_the_extreme_points(d):
    # hull.points records every point that lay outside the hull when it came
    # (a later point can swallow it); the facets hold every extreme point.
    rng = random.Random(300 + d)
    for trial in range(10):
        pts = _random_points(rng, d, rng.randint(d + 2, d + 8))
        hull = _hull(pts)
        if hull is None:
            continue
        expect = {pts[i] for i in extreme_points(pts)}
        assert expect <= set(hull.points) <= set(pts)
        on_facets = set().union(*(_on(hull, mask) for mask in hull.facet_map().values()))
        # The masks may hold points interior to a facet, but every extreme
        # point must appear on some facet, and everything on a facet must
        # satisfy its plane with equality.
        assert expect <= on_facets
        for plane, mask in hull.facet_map().items():
            for p in _on(hull, mask):
                assert _value(plane, p) == plane.offset


def test_duplicate_and_interior_points_are_noops():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    hull = FacetHull(square)
    nverts = len(hull.points)
    facets_before = dict(hull.facet_map())
    assert hull.insert((2, 2), tag=(2, 2)) == []
    assert hull.insert((0, 0), tag=(0, 0)) == []
    assert hull.facet_map() == facets_before
    assert len(hull.points) == nverts


def test_insert_returns_facet_deltas():
    hull = FacetHull([(0, 0), (2, 0), (0, 2)])
    planes_before = set(hull.facet_map())
    added = hull.insert((2, 2), tag=(2, 2))
    planes_after = set(hull.facet_map())
    assert set(added) == planes_after - planes_before
    # The planes that went are exactly those the point sees.
    removed = planes_before - planes_after
    assert removed == {plane for plane in planes_before if _sees(plane, (2, 2))}
    assert removed


def test_facet_map_keys_support_hull():
    rng = random.Random(42)
    pts = _random_points(rng, 3, 9)
    hull = _hull(pts)
    if hull is None:
        pytest.skip("degenerate draw")
    for plane, mask in hull.facet_map().items():
        values = [_value(plane, p) for p in hull.points]
        assert max(values) == plane.offset
        for p in _on(hull, mask):
            assert _value(plane, p) == plane.offset


# -- the integer contract --------------------------------------------------------


@pytest.mark.parametrize(
    "x", [Fraction(1, 2), 0.5, Fraction(1), 1.0], ids=["fraction", "float", "fraction-1", "float-1"]
)
def test_exact_layer_entries_reject_non_int_coordinates(x):
    # Each entry that takes coordinates raises ValueError on one that is not
    # an int, even one equal to an int, before it reads or changes anything.
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    tri, flat, facets = TriangulatedHull(2), TriangulatedHull(3), FacetHull(square)
    for p in square:
        tri.place(p)
    flat.insert((0, 0, 0))
    segments = system_from(1, [[(0,), (1,)], [(0,), (1,)]], "full")
    surface = system_from(
        MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "implicitization"
    )
    entries = {
        "rank_int": lambda: rank_int([(1, 0), (0, x)]),
        # Capped, as essential_violation reads an affine dimension.
        "rank_int capped": lambda: rank_int([(0, 0), (x, 1)], 2),
        "integer_kernel": lambda: integer_kernel([[1, x]], 2),
        "saturated_basis": lambda: saturated_basis([(x, 1)], 2),
        # At x = 0.5 this column was once truncated to (0, 0).
        "MinorCache": lambda: MinorCache([(x, 0), (1, 0), (0, 1)]),
        "first point": lambda: TriangulatedHull(2).insert((x, 0)),
        "dimension jump": lambda: flat.insert((1, x, 0)),
        "point inside": lambda: tri.place((x, 1)),
        "FacetHull": lambda: FacetHull([(0, 0), (1, 0), (x, 1)]),
        "facet point": lambda: facets.insert((x, 0)),
        "point beyond": lambda: facets.insert((3, x)),
        "clip_halfspace": lambda: clip_halfspace(_box(2), Hyperplane((1, 0), x)),
        # At x = 1/2 the full projection's vertex was once truncated to
        # (0, 0, 1, 1), and the other branch reported no integral solution.
        "unproject full": lambda: unproject(segments, [(x, 0, 1, 1)], (0, 1, 1, 0)),
        "unproject": lambda: unproject(surface, [(x, 0, 0)], (0,) * surface.num_columns),
    }
    for entry in entries.values():
        with pytest.raises(ValueError, match="must be ints"):
            entry()
    assert len(tri.points) == len(facets.points) == 4 and flat.dim == 0


def _vector_entry_calls():
    # Each exact-layer entry that takes a point, row, column or direction,
    # as {(entry, case): call}, every call one that exactlin.int_vector must
    # stop.
    x = Fraction(1, 2)
    surface = system_from(
        MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "implicitization"
    )
    segments = system_from(1, [[(0,), (1,)], [(0,), (1,)]], "full")  # m = |A|
    zeros = (0,) * surface.num_columns
    cache = MinorCache([(0, 0), (1, 0), (0, 1)])
    square = FacetHull([(0, 0), (2, 0), (0, 2), (2, 2)])
    chart = AffineChart((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
    return {
        ("TriangulatedHull.insert", "length"): lambda: TriangulatedHull(2).insert((0, 0, 0)),
        ("TriangulatedHull.insert", "non-int"): lambda: TriangulatedHull(2).insert((x, 0)),
        ("TriangulatedHull.place", "length"): lambda: TriangulatedHull(2).place((0, 0, 0)),
        ("TriangulatedHull.place", "non-int"): lambda: TriangulatedHull(2).place((x, 0)),
        ("FacetHull", "length"): lambda: FacetHull([(0, 0), (1, 0), (0, 1, 5)]),
        ("FacetHull", "non-int"): lambda: FacetHull([(0, 0), (1, 0), (x, 1)]),
        ("FacetHull", "empty"): lambda: FacetHull([]),
        ("FacetHull.insert", "length"): lambda: square.insert((3, 3, 3)),
        ("FacetHull.insert", "non-int"): lambda: square.insert((3, x)),
        ("lattice_hull", "length"): lambda: lattice_hull([(0, 0), (1, 0, 0)]),
        ("lattice_hull", "non-int"): lambda: lattice_hull([(0, 0), (x, 0)]),
        ("lattice_hull", "empty"): lambda: lattice_hull([]),
        ("MinorCache", "length"): lambda: MinorCache([(0, 0), (1,), (0, 1)]),
        ("MinorCache", "non-int"): lambda: MinorCache([(x, 0), (1, 0), (0, 1)]),
        ("orientation", "length"): lambda: cache.orientation((0, 1, 2), (1, 2)),
        ("orientation", "non-int"): lambda: cache.orientation((0, 1, 2), (x, 0, 0)),
        # Once read as rank 2.
        ("rank_int", "length"): lambda: rank_int([(1, 0), (0, 0, 5)]),
        ("rank_int", "non-int"): lambda: rank_int([(1, 0), (0, x)]),
        ("integer_kernel", "length"): lambda: integer_kernel([[1, 2, 3]], 2),
        ("integer_kernel", "non-int"): lambda: integer_kernel([[1, x]], 2),
        ("adjugate", "length"): lambda: adjugate([[1, 2, 3], [4, 5, 6]]),
        ("adjugate", "non-int"): lambda: adjugate([[x, 0], [0, 1]]),
        # Its point (3, 0) once got the coordinates (3,).
        ("AffineChart", "length"): lambda: AffineChart((0, 0), [(1, 0, 9)]),
        ("AffineChart", "non-int"): lambda: AffineChart((0, 0), [(x, 1)]),
        # Once (1, 2) for a point of four coordinates.
        ("AffineChart.coords", "length"): lambda: chart.coords((1, 2, 0, 7)),
        ("AffineChart.coords", "non-int"): lambda: chart.coords((x, 0, 0)),
        # Two rows of three once read as affinely dependent, and a short
        # row as an IndexError.
        ("OuterPolytope.simplex", "length"): lambda: OuterPolytope.simplex([(0, 0, 1), (2, 0, 1)]),
        ("OuterPolytope.simplex", "short row"): lambda: OuterPolytope.simplex(
            [(0, 0, 1), (2, 0), (0, 2, 1)]
        ),
        ("OuterPolytope.simplex", "non-int"): lambda: OuterPolytope.simplex(
            [(0, 0, 1), (x, 0, 1), (0, 2, 1)]
        ),
        # Its volume once read -2.
        ("OuterPolytope.simplex", "d not positive"): lambda: OuterPolytope.simplex(
            [(0, 0, 1), (2, 0, -1), (0, 2, 1)]
        ),
        ("clip_halfspace", "length"): lambda: clip_halfspace(_box(2), Hyperplane((1, 0, 0), 1)),
        ("clip_halfspace", "non-int"): lambda: clip_halfspace(_box(2), Hyperplane((1, 0), x)),
        ("lift_direction", "length"): lambda: lift_direction(surface, (1, 2)),
        ("lift_direction", "non-int"): lambda: lift_direction(surface, (x, 0, 0)),
        ("unproject rho_ref", "length"): lambda: unproject(surface, [(4, 0, 0)], (0, 0)),
        ("unproject rho_ref", "non-int"): lambda: unproject(surface, [(4, 0, 0)], (x, *zeros[1:])),
        ("unproject", "length"): lambda: unproject(surface, [(1, 2)], zeros),
        ("unproject", "non-int"): lambda: unproject(surface, [(x, 0, 0)], zeros),
        # Its vertex (1, 2) once came back as a full vertex of a 4-column system.
        ("unproject full", "length"): lambda: unproject(segments, [(1, 2)], (0, 1, 1, 0)),
        ("unproject full", "non-int"): lambda: unproject(segments, [(x, 0, 1, 1)], (0, 1, 1, 0)),
    }


VECTOR_CHECKS = {
    "length": r"expected \d+ coordinates",
    "short row": r"expected \d+ coordinates",
    "non-int": "must be ints",
    "empty": "at least one point",
    "d not positive": "d > 0",
}


@pytest.mark.parametrize(
    "entry, case", list(_vector_entry_calls()), ids=lambda v: v.replace(" ", "_")
)
def test_exact_layer_entries_check_every_vector(entry, case):
    # One check, exactlin.int_vector(vec, length), for every vector the exact
    # layer takes in: a wrong length or an entry that is not an int raises
    # ValueError, as do no points at all and a simplex row with d <= 0.
    with pytest.raises(ValueError, match=VECTOR_CHECKS[case]):
        _vector_entry_calls()[entry, case]()


# -- volumes -------------------------------------------------------------------


def test_hull_volume_closed_forms():
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert hull_volume(FacetHull(cube)) == 1
    square2 = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert hull_volume(FacetHull(square2)) == 4
    # Below full dimension, the volume over the points' own lattice:
    # 2*standard triangle in the plane x+y+z=2 of R^3, and a segment.
    tri = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    assert hull_volume(lattice_hull(tri)[0]) == 2
    seg = [(0, 0, 0), (3, 6, 0)]
    assert hull_volume(lattice_hull(seg)[0]) == 3  # lattice length
    assert hull_volume(lattice_hull([(5, 5)])[0]) == 1


def test_lattice_hull_charts_points_over_their_own_lattice():
    # Tagged by the points, full-dimensional in a chart that round-trips
    # them, with the lattice volumes of test_hull_volume_closed_forms.
    cases = [
        ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 2, 2),  # triangle in x+y+z=2
        ([(0, 0, 0), (3, 6, 0)], 1, 3),  # segment: lattice length
        ([(5, 5)], 0, 1),  # single point
        ([(0, 0), (2, 0), (2, 2), (0, 2)], 2, 4),
    ]
    for pts, dim, volume in cases:
        hull, chart = lattice_hull(pts)
        assert hull.dim == len(hull.points[0]) == len(chart.basis) == dim
        assert hull.tags == pts
        assert chart.p0 == min(pts)
        for xi, p in zip(hull.points, hull.tags):
            assert chart.coords(p) == xi
            back = tuple(
                a + sum(b[j] * x for b, x in zip(chart.basis, xi))
                for j, a in enumerate(chart.p0)
            )
            assert back == p
        assert hull_volume(hull) == volume
    with pytest.raises(ValueError):
        lattice_hull([(0, 0), (Fraction(1, 2), 0)])  # not an integer point


def test_hull_volume_matches_shoelace():
    rng = random.Random(77)
    for _ in range(15):
        pts = _random_points(rng, 2, rng.randint(4, 9))
        hull = _hull(pts)
        if hull is None:
            continue
        assert hull_volume(hull) == shoelace_area([pts[i] for i in _ring(pts)])


def test_hull_volume_running_sum_across_dimension_jumps():
    # Integer prefixes rising through dimensions 0 to 3 have the volume of
    # their lattice_hull, which at full dimension is the volume of their own
    # FacetHull.  Once read, a hull keeps a running sum: after every further
    # insert (rational points with denominators up to 3, all points scaled
    # by 6) it must equal a fresh hull's volume of the same points and the
    # sum over an independent triangulation's cells of |det(edges)| / 3!.
    rng = random.Random(23)
    line = [(0, 0, 0), (2, 4, 6), (-1, -2, -3), (3, 6, 9)]
    plane = [(1, 0, 0), (3, 2, 3), (-4, -2, -3)]  # line + Z(1, 0, 0)
    space = [(0, 1, 5), (2, 3, -1)]
    dims = []
    pts = line + plane + space
    for n in range(1, len(pts) + 1):
        hull = lattice_hull(pts[:n])[0]
        dims.append(hull.dim)
        if hull.dim == 3:
            assert hull_volume(hull) == hull_volume(FacetHull(pts[:n]))
    assert dims[:4] == [0, 1, 1, 1] and dims[4:7] == [2, 2, 2] and dims[-1] == 3
    pts = [tuple(6 * x for x in p) for p in pts]
    hull = FacetHull(pts)
    more = [
        tuple(6 * rng.randint(-9, 9) // rng.choice((1, 2, 3)) for _ in range(3))
        for _ in range(6)
    ]
    hull_volume(hull)
    for n, p in enumerate(more, start=1):
        hull.insert(p)
        assert hull_volume(hull) == hull_volume(FacetHull(pts + more[:n]))
        assert hull_volume(hull) == cells_volume(pts + more[:n])


def _first_read_sets():
    # Point sets whose first point is often no vertex: the centre of
    # [0, 2]^d, or (1, 0, ..., 0) on a face of it, before its corners, for
    # d = 1 to 5, and seeded random sets led by the origin.
    rng = random.Random(41)
    for d in range(1, 6):
        corners = list(product((0, 2), repeat=d))
        for first in ((1,) * d, (1,) + (0,) * (d - 1)):
            yield [first] + corners
    for d in range(1, 6):
        for _ in range(4):
            yield list(dict.fromkeys([(0,) * d] + _random_points(rng, d, d + 6)))


def test_first_volume_read_cones_from_the_first_point():
    # vol(Q) has one routine: the first read is point 0 coned over the
    # facets that miss it, whether or not point 0 is a vertex.  It equals
    # the sum over an independent triangulation's cells and the general
    # pulling volume over the facets' point sets.
    inside = 0
    for pts in _first_read_sets():
        hull = _hull(pts)
        if hull is None:
            continue
        d, masks = hull.dim, hull.facet_map().values()
        inside += not any(mask & 1 for mask in masks)
        rows = [geometry._hom_row(p) for p in hull.points]
        pulling = geometry._pulling_volume(d, rows, masks)
        assert hull_volume(hull) == cells_volume(pts) == pulling, pts
        if pts[1:] == list(product((0, 2), repeat=d)):
            assert hull_volume(hull) == 2 ** d
    assert inside > 6  # the cube centres, and some random origins


def test_first_volume_read_calls_no_pulling_volume(monkeypatch):
    # Only the outer polytope takes the general pulling volume: Q's first
    # read and every later insert go through the cone routine.
    hulls = [_hull(pts) for pts in _first_read_sets()]

    def refuse(*args):
        raise AssertionError("vol(Q) took the pulling volume")

    monkeypatch.setattr(geometry, "_pulling_volume", refuse)
    for hull in filter(None, hulls):
        assert hull_volume(hull) > 0
        hull.insert((3,) * hull.dim)
        assert hull_volume(hull) > 0


# -- outer polytope and halfspace clipping ---------------------------------------------


def _clip_all(outer, planes):
    for n, c in planes:
        outer = clip_halfspace(outer, Hyperplane(n, c))
    return outer


def _simplex(points):
    # The outer simplex on integer points, as their rows (p, 1).
    return OuterPolytope.simplex([(*p, 1) for p in points])


def _int_plane(normal, offset):
    # {x : normal.x <= offset} for a rational offset, over its denominator.
    c = Fraction(offset)
    return Hyperplane(tuple(a * c.denominator for a in normal), c.numerator)


def _box(side):
    """The square [0, side]^2 cut out of a simplex by two clips."""
    simplex = _simplex([(0, 0), (2 * side, 0), (0, 2 * side)])
    return _clip_all(simplex, [((1, 0), side), ((0, 1), side)])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_simplex_planes_match_reference(d):
    # The outward planes read off one adjugate, against ref_simplex_planes, on
    # seeded simplices with Fraction coordinates, given as primitive
    # homogeneous rows (a, d) over the common denominator 12, so d > 1
    # occurs; the same points in another order permute them.
    rng = random.Random(900 + d)
    done = cleared = 0
    while done < 6:
        pts = [
            tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4])) for _ in range(d))
            for _ in range(d + 1)
        ]
        if ref_affine_dim(pts) < d:
            continue
        rows = [primitive((*(int(12 * x) for x in p), 12)) for p in pts]
        cleared += any(row[-1] > 1 for row in rows)
        planes = geometry._simplex_planes(rows)
        assert planes == ref_simplex_planes(pts)
        order = list(range(d + 1))
        rng.shuffle(order)
        shuffled = geometry._simplex_planes([rows[i] for i in order])
        assert shuffled == [planes[i] for i in order]
        done += 1
    assert cleared >= 4


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_simplex_planes_of_dependent_points_raise(d):
    # Points on a common hyperplane: a repeated point, or one an affine
    # combination of the others, all scaled by their common denominator 4.
    rng = random.Random(950 + d)
    pts = [tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(d)) for _ in range(d)]
    weights = [Fraction(rng.randint(-3, 3), 2) for _ in range(d - 1)]
    combo = tuple(
        p0 + sum(w * (p[j] - p0) for w, p in zip(weights, pts[1:])) for j, p0 in enumerate(pts[0])
    )
    for extra in (pts[0], combo):
        rows = [geometry._hom_row(tuple(int(4 * x) for x in p)) for p in pts + [extra]]
        with pytest.raises(InvariantViolation):
            geometry._simplex_planes(rows)


def test_outer_simplex_constraints():
    # The triangle's rows share the last entry 2, so its one cell's product
    # of last entries, 8, is more than their lcm.
    for rows, volume in (
        ([(0, 0, 0, 1), (3, 0, 0, 1), (0, 5, 0, 2), (1, 1, 4, 1)], 5),
        ([(1, 0, 2), (0, 1, 2), (1, 1, 2)], Fraction(1, 8)),
    ):
        pts = [tuple(Fraction(a, row[-1]) for a in row[:-1]) for row in rows]
        simplex = OuterPolytope.simplex(rows)
        assert outer_points(simplex) == pts
        assert simplex.volume == cells_volume(pts) == volume
        for cid, plane in enumerate(simplex.constraints):
            values = [sum(a * x for a, x in zip(plane.normal, p)) for p in pts]
            assert values[cid] < plane.offset
            assert all(v == plane.offset for i, v in enumerate(values) if i != cid)
            assert [cid in t for t in simplex.tight] == [i != cid for i in range(len(rows))]


def test_clip_identity_and_empty():
    square = _box(2)
    assert set(outer_points(square)) == {(0, 0), (2, 0), (2, 2), (0, 2)}
    same = clip_halfspace(square, Hyperplane((1, 0), 5))
    assert same is square  # nothing strictly outside: identity object
    with pytest.raises(EmptyIntersection):
        clip_halfspace(square, Hyperplane((1, 0), -1))


def test_clip_rectangle_area():
    square = _box(4)
    clipped = clip_halfspace(square, Hyperplane((1, 0), 1))
    assert clipped.volume == 4
    assert set(outer_points(clipped)) == {(0, 0), (1, 0), (1, 4), (0, 4)}


def test_clip_simplex_scaling():
    # Cutting the corner of the standard simplex at x <= t leaves
    # volume 1/6 - (1-t)^3/6 ... easier checked from the apex side:
    # {x >= t} intersected with the simplex is a scaled copy, volume (1-t)^3/6.
    simplex = _simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    t = Fraction(1, 3)
    upper = clip_halfspace(simplex, _int_plane((-1, 0, 0), -t))  # x >= t
    assert upper.volume == (1 - t) ** 3 / 6


def test_clip_cascade_monotone():
    rng = random.Random(11)
    cube = _box(6)
    vol = cube.volume
    outer = cube
    for _ in range(6):
        n = (rng.randint(-2, 2), rng.randint(-2, 2))
        if n == (0, 0):
            continue
        c = max(sum(a * b for a, b in zip(n, p)) for p in outer_points(outer)) - 1
        try:
            outer = clip_halfspace(outer, _int_plane(n, c))
        except EmptyIntersection:
            break
        new_vol = outer.volume
        assert new_vol <= vol
        vol = new_vol
        for p in outer_points(outer):
            assert sum(a * b for a, b in zip(n, p)) <= c


@pytest.mark.parametrize("d", [2, 3, 4])
def test_clip_cascades_match_vertex_enumeration(d):
    # Seeded cascades of clips from a simplex {x_i >= -r, sum x <= s}: after
    # every clip the outer polytope's vertices are those a brute-force
    # enumeration finds from the same constraints, and its running volume is
    # that of a fresh facet hull of them.  Offsets are rational (a plane
    # is cut over the offset's denominator), some planes pass through a
    # vertex, some miss the polytope.
    rng = random.Random(600 + d)
    for trial in range(4 if d < 4 else 2):
        r, s = rng.randint(1, 4), rng.randint(1, 6)
        # The simplex's facet opposite its i-th corner has constraint id i.
        constraints = [((1,) * d, s)] + [
            (tuple(-1 if i == t else 0 for i in range(d)), r) for t in range(d)
        ]
        corners = [(-r,) * d] + [
            tuple(s + (d - 1) * r if i == t else -r for i in range(d))
            for t in range(d)
        ]
        outer = _simplex(corners)
        for _ in range(7 if d < 4 else 5):
            n = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(n):
                continue
            values = [sum(a * x for a, x in zip(n, p)) for p in outer_points(outer)]
            lo, hi = min(values), max(values)
            pick = rng.random()
            if pick < 0.2:
                c = rng.choice([v for v in values if v > lo])
            elif pick < 0.3:
                c = hi + Fraction(1, rng.randint(1, 3))
            else:
                c = lo + (hi - lo) * Fraction(rng.randint(1, 11), 12)
            plane = _int_plane(n, c)
            clipped = clip_halfspace(outer, plane)
            if c >= hi:
                assert clipped is outer
                continue
            outer = clipped
            constraints.append(plane)
            expect = brute_force_vertices(constraints, d)
            assert set(outer_points(outer)) == expect
            assert outer.volume == cells_volume(sorted(expect))
            for cid, (cn, cc) in enumerate(constraints):
                assert outer.constraints[cid] == (cn, cc)
                for p, tight in zip(outer_points(outer), outer.tight):
                    value = sum(a * x for a, x in zip(cn, p))
                    assert (value == cc) == (cid in tight)


def test_a_volume_read_builds_one_fraction(monkeypatch):
    # A pulling triangulation's cells add as ints over one common
    # denominator, so each volume is one Fraction, however many of its rows
    # end in more than 1.  A seeded cascade of clips at rational offsets,
    # read after each clip.
    built, per_read = [], []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    pulling_volume = outer_module._pulling_volume

    def spy(dim, rows, sets):
        before = len(built)
        out = pulling_volume(dim, rows, sets)
        per_read.append((len(built) - before, any(row[-1] > 1 for row in rows)))
        return out

    monkeypatch.setattr(geometry, "Fraction", counted)
    monkeypatch.setattr(outer_module, "_pulling_volume", spy)
    rng = random.Random(808)
    outer = _simplex([(0, 0, 0), (9, 0, 0), (0, 9, 0), (0, 0, 9)])
    assert outer.volume == Fraction(729, 6)
    while len(per_read) < 8:
        n = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(n):
            continue
        values = [sum(a * x for a, x in zip(n, p)) for p in outer_points(outer)]
        lo, hi = min(values), max(values)
        c = lo + (hi - lo) * Fraction(rng.randint(6, 11), 12)
        outer = clip_halfspace(outer, _int_plane(n, c))
        assert outer.volume == cells_volume(outer_points(outer))
    assert all(count == 1 for count, _ in per_read)
    assert sum(rational for _, rational in per_read) >= 4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_clip_chain_volume_taken_on_read(d, monkeypatch):
    # One seeded chain of clips, replayed three times: with no read until
    # its end, with a read after every clip, and with one read halfway.
    # The cuts include planes through a vertex and planes that remove
    # nothing.  Every replay ends with the same volume, that of a cell sum
    # over the final vertices.  An unread chain takes one pulling
    # triangulation, at its end; a chain once read takes one per clip that
    # cuts something off.
    pulls = []
    pulling_volume = outer_module._pulling_volume

    def spy(*args):
        pulls.append(args)
        return pulling_volume(*args)

    monkeypatch.setattr(outer_module, "_pulling_volume", spy)
    rng = random.Random(700 + d)
    r, s = rng.randint(1, 4), rng.randint(1, 6)
    corners = [(-r,) * d] + [
        tuple(s + (d - 1) * r if i == t else -r for i in range(d)) for t in range(d)
    ]
    unread = _simplex(corners)
    planes = []
    while len(planes) < 9:
        n = tuple(rng.randint(-3, 3) for _ in range(d))
        if not any(n):
            continue
        values = [sum(a * x for a, x in zip(n, p)) for p in outer_points(unread)]
        lo, hi = min(values), max(values)
        kind = ("vertex", "nothing", "between")[len(planes) % 3]
        if kind == "vertex":
            through = [v for v in values if lo < v < hi]
            if not through:
                continue
            c = rng.choice(through)
        elif kind == "nothing":
            c = hi + rng.randint(0, 2)
        else:
            c = lo + (hi - lo) * Fraction(rng.randint(1, 11), 12)
        plane = _int_plane(n, c)
        clipped = clip_halfspace(unread, plane)
        assert (clipped is unread) == (kind == "nothing")
        unread = clipped
        planes.append(plane)
    assert not pulls
    expect = cells_volume(outer_points(unread))

    every = _simplex(corners)
    cuts = 0
    every_volumes = [every.volume]
    for plane in planes:
        clipped = clip_halfspace(every, plane)
        cuts += clipped is not every
        every = clipped
        every_volumes.append(every.volume)
    assert len(pulls) == 1 + cuts  # the simplex's read, then one per cut

    half = _simplex(corners)
    for k, plane in enumerate(planes, start=1):
        half = clip_halfspace(half, plane)
        if k == len(planes) // 2:
            assert half.volume == every_volumes[k]

    del pulls[:]
    assert unread.volume == every.volume == half.volume == expect
    assert len(pulls) == 1
    assert outer_points(unread) == outer_points(every) == outer_points(half)


def test_clip_adjacency_needs_more_than_rank():
    # In R^4, x1 - x2 <= 0 cuts the cube [0, 2]^4 through its 2-face
    # G = {x1 = x2 = 0}.  Three constraints are then tight on all of G, as
    # many as on an edge, yet the diagonal from (0,0,0,0) to (0,0,2,2) is no
    # edge: cutting it with x3 + x4 <= 3 must not add its midpoint.
    d = 4
    corners = [(0,) * d] + [tuple(8 if i == t else 0 for i in range(d)) for t in range(d)]
    constraints = [((1,) * d, 8)] + [
        (tuple(-1 if i == t else 0 for i in range(d)), 0) for t in range(d)
    ]
    constraints += [(tuple(1 if i == t else 0 for i in range(d)), 2) for t in range(d)]
    constraints += [((1, -1, 0, 0), 0), ((0, 0, 1, 1), 3)]
    outer = _clip_all(_simplex(corners), constraints[d + 1:])
    expect = brute_force_vertices(constraints, d)
    assert (0, 0, Fraction(3, 2), Fraction(3, 2)) not in expect
    assert set(outer_points(outer)) == expect
    # Half of the cube, times the 7/8 of [0, 2]^2 below x3 + x4 = 3:
    assert outer.volume == cells_volume(sorted(expect)) == 7


def test_clip_to_a_lower_dimensional_face_raises():
    with pytest.raises(DegenerateInput):
        clip_halfspace(_box(2), Hyperplane((1, 0), 0))


# -- f-vectors ------------------------------------------------------------------


def test_f_vector_closed_forms():
    tetra = FacetHull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert f_vector(tetra) == (4, 6, 4)
    cube = FacetHull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert f_vector(cube) == (8, 12, 6)
    square = FacetHull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert f_vector(square) == (4, 4)
    point = lattice_hull([(7, 7)])[0]
    assert f_vector(point) == (1,)
    seg = FacetHull([(0,), (5,)])
    assert f_vector(seg) == (2,)
    # Non-full-dimensional hulls need reparameterization first:
    with pytest.raises(DegenerateInput):
        f_vector(FacetHull([(0, 0), (5, 0)]))


def test_f_vector_euler_relation():
    rng = random.Random(999)
    for d in (2, 3):
        for _ in range(5):
            pts = _random_points(rng, d, rng.randint(d + 2, d + 7))
            hull = _hull(pts)
            if hull is None:
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
    hull = _build(raw, ambient=4)
    assert hull.dim <= 2
    for p in hull.points:
        assert point_in_hull(p, raw)


def _assert_signs_fresh(hull):
    # Every stored sign, including those a dimension jump derived rather
    # than computed, is what a fresh orientation gives: a cell's, of its
    # points in tag order; a boundary simplex's, of its points in tag order
    # followed by each recorded point off its hyperplane, of which there is
    # at least one.
    hom = hull._hom
    for mask, s in hull.cells:
        assert s == hull._orient([hom[t] for t in _tags(mask)]) != 0, mask
    for mask, q in hull.boundary:
        rows = [hom[t] for t in _tags(mask)]
        sides = {hull._orient(rows + [hom[t]]) for t in hull.tags if not mask >> t & 1}
        assert sides - {0} == {q}, mask


def _same_up_to_sign(a, b):
    # Two lists of (mask, sign) pairs with the same masks in the same order,
    # whose signs agree up to one common factor.
    assert [m for m, _ in a] == [m for m, _ in b]
    assert len({s * t for (_, s), (_, t) in zip(a, b)}) <= 1


def _flat_points(rng, ambient, n, rational):
    # Points of a random flat of R^ambient, drawn along its directions in
    # reverse order, so the chart's pivots often arrive out of order.  With
    # ``rational`` the coefficients have denominators up to 3 and every
    # point is scaled by their common denominator 6.
    k = rng.randint(1, ambient)
    p0 = [rng.randint(-3, 3) for _ in range(ambient)]
    dirs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(k)]
    pts = [tuple(p0)]
    for j in reversed(range(k)):
        pts.append(tuple(x + d for x, d in zip(p0, dirs[j])))
    while len(pts) < n:
        coef = [
            Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            if rational
            else rng.randint(-3, 3)
            for _ in range(k)
        ]
        pts.append(tuple(
            x + sum(c * d[i] for c, d in zip(coef, dirs)) for i, x in enumerate(p0)
        ))
    if rational:
        pts = [tuple(int(6 * x) for x in p) for p in pts]
    return list(dict.fromkeys(pts))


def test_flat_chart_matches_intrinsic_hull():
    # Points p0 + a.u + b.v of a 2-flat in R^4 (u, v a saturated basis of
    # its direction space), with Fraction (a, b) scaled by their common
    # denominator 6.  The flat hull orients
    # over its chart; the hull of the (a, b) in R^2 orients directly.  Both
    # must make every decision alike: same cells, same boundary simplices,
    # their signs the same up to the chart's one factor; and the facets of
    # the (a, b) are the brute-force facets of the flat points.
    p0, u, v = (1, -2, 0, 3), (1, 0, 2, -1), (0, 1, -1, 2)
    rng = random.Random(41)
    for trial in range(6):
        ab = []
        while len(ab) < 9:
            a = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3)))
            b = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2)))
            if (a, b) not in ab:
                ab.append((a, b))
        ab = [(int(6 * a), int(6 * b)) for a, b in ab]
        flat_pts = [
            tuple(x + a * y + b * z for x, y, z in zip(p0, u, v)) for a, b in ab
        ]
        flat = _build(flat_pts, ambient=4)
        intrinsic = TriangulatedHull(2)
        for i, (a, b) in enumerate(ab):
            intrinsic.place((a, b), tag=i)
        assert flat.dim == intrinsic.dim == 2
        assert flat.tags == intrinsic.tags
        _same_up_to_sign(
            flat.cells + sorted(flat.boundary),
            intrinsic.cells + sorted(intrinsic.boundary),
        )
        got = {
            frozenset(
                p
                for (a, b), p in zip(ab, flat_pts)
                if plane.normal[0] * a + plane.normal[1] * b == plane.offset
            )
            for plane in FacetHull(ab).facet_map()
        }
        expect = {
            frozenset(flat_pts[i] for i in ids)
            for ids in brute_force_facets(flat_pts)
        }
        assert got == expect


@pytest.mark.parametrize("base_dim", [2, 3])
def test_copied_base_matches_direct_build(base_dim):
    # A base hull in R^4 whose points have last coordinate 0 (a 3-flat, or
    # a plane when base_dim is 2), copied and given lifted points, ends with
    # the cells of a hull built in R^4 from all the points in the same
    # order, and the base is left as it was.  The base starts along the
    # last axes first, so its chart's pivots arrive out of order.
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
        base = [p + (0,) for p in base]
        lifted = list(dict.fromkeys(
            p + (rng.randint(-9, 9),) for p in _random_points(rng, 3, 6)
        ))
        small = _build(base)
        before = (list(small.points), dict(small._hom), _hull_state(small))
        copy = small.copy()
        direct = _build(base)
        _assert_signs_fresh(copy)
        for i, p in enumerate(lifted, len(base)):
            copy.place(p, tag=i)
            direct.place(p, tag=i)
            _assert_signs_fresh(copy)
        assert copy.dim == direct.dim
        assert copy.points == direct.points
        assert copy.cells == direct.cells
        assert sorted(copy.boundary) == sorted(direct.boundary)
        assert (small.points, small._hom, _hull_state(small)) == before


def test_cached_planes_track_every_insert():
    # A facet hull keeps its facet table current; after every insert its
    # facets must still be those of a brute-force hull of the points so far.
    rng = random.Random(5)
    pts = _random_points(rng, 3, 14)
    for hull, so_far, _ in _grown(pts):
        got = set()
        for plane, mask in hull.facet_map().items():
            on_plane = frozenset(
                q for q in so_far
                if sum(a * x for a, x in zip(plane.normal, q)) == plane.offset
            )
            assert _on(hull, mask) <= on_plane
            assert all(
                sum(a * x for a, x in zip(plane.normal, q)) <= plane.offset
                for q in so_far
            )
            got.add(on_plane)
        expect = {frozenset(so_far[i] for i in ids) for ids in brute_force_facets(so_far)}
        assert got == expect


# -- stored signs and plane visibility ----------------------------------------


@pytest.mark.parametrize("ambient", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rational", [False, True])
def test_stored_signs_match_fresh_orientations(ambient, rational):
    rng = random.Random(600 + 10 * ambient + rational)
    for trial in range(6):
        if trial % 2:
            pts = _flat_points(rng, ambient, ambient + 6, rational)
        else:
            pts = _random_points(rng, ambient, ambient + 6)
        hull = TriangulatedHull(ambient)
        for i, p in enumerate(pts):
            hull.place(p, tag=i)
            _assert_signs_fresh(hull)


def test_dimension_jump_takes_no_orientation(monkeypatch):
    # A dimension jump reads its sign off the echelon remainder: it calls
    # neither _orient nor det_bareiss, and every sign it leaves is a fresh
    # orientation.  The points come along the last axes first, so new
    # pivots land before old ones, and several remainders are negative at
    # their pivots; standard inserts come between the jumps.
    calls, signs, coned, late = [], [], [], [0]
    orient, det, extend = TriangulatedHull._orient, geometry.det_bareiss, geometry.echelon_extend
    monkeypatch.setattr(
        TriangulatedHull, "_orient", lambda hull, rows: calls.append(rows) or orient(hull, rows)
    )
    monkeypatch.setattr(geometry, "det_bareiss", lambda rows: calls.append(rows) or det(rows))

    def spy_extend(vec, rows, pivots):
        sign = extend(vec, rows, pivots)
        if sign:
            signs.append(sign)
            late[0] += any(c > pivots[-1] for c in pivots[:-1])
        return sign

    monkeypatch.setattr(geometry, "echelon_extend", spy_extend)
    walk = [
        (0, 0, 0, 0), (0, 0, 0, -3), (0, 0, -2, 1), (0, 0, 5, 5), (0, 0, -1, 4),
        (-1, 1, 1, 1), (2, 2, 1, -2), (2, 2, 1, 2), (0, 4, 0, 0),
    ]
    rng = random.Random(17)
    runs = [walk] + [_flat_points(rng, 4, 9, trial % 2) for trial in range(6)]
    for pts in runs:
        hull = TriangulatedHull(4)
        for i, p in enumerate(pts):
            dim = hull.dim
            del calls[:]
            hull.place(p, tag=i)
            if hull.dim > dim:
                assert not calls, p
                coned.append(len(hull.cells))
            _assert_signs_fresh(hull)
    assert -1 in signs and 1 in signs and late[0] > 0
    assert max(coned) > 1  # a jump that cones several cells


def _hull_state(hull):
    # Cells and boundary, in order, signs included.
    return list(hull.cells), list(hull.boundary)


@pytest.mark.parametrize(
    "name", ["sylvester", "surface-full", "surface-implicit", "circle-line", "bicubic"]
)
def test_oracle_lifted_hull_signs(monkeypatch, name):
    # The oracle's hulls orient over their own charts; after every insert
    # and place of a compute_pi run their stored signs must still be fresh
    # orientations, and they keep no facet table.  A hull is handed on as
    # (mask, q) pairs once it reaches dimension 2n, or, with no unlifted
    # base, the lifted hull starts at 2n as the simplex on its first 2n+1
    # columns, whose sign must be a fresh orientation too; test_oracle.py
    # checks the pairs' signs.
    golden, mode = {
        "sylvester": (SYLVESTER, "full"),
        "surface-full": (MONOMIAL_SURFACE, "full"),
        "surface-implicit": (MONOMIAL_SURFACE, "implicitization"),
        "circle-line": (CIRCLE_LINE, "u-resultant"),
        "bicubic": (BICUBIC, "implicitization"),
    }[name]
    sysd = system_from(golden["n"], golden["supports"], mode)
    dims = []
    insert, place = TriangulatedHull.insert, TriangulatedHull.place

    def checked(step):
        def run(hull, point, tag=None):
            before = len(hull.points)
            out = step(hull, point, tag)
            _assert_signs_fresh(hull)
            # An insert says whether it recorded the point; a place, nothing.
            assert out is (len(hull.points) > before if step is insert else None)
            with pytest.raises(DegenerateInput):
                hull.facet_map()
            dims.append(hull.dim)
            return out

        return run

    facets = oracle_module._simplex_facets

    def checked_start(head, s):
        # The oracle builds a simplex's pairs only to start from its head.
        assert list(head) == sorted(head)
        d = det_bareiss([sysd.columns[c] + (1,) for c in head])
        assert s == (d > 0) - (d < 0) != 0
        dims.append(2 * sysd.n)
        return facets(head, s)

    monkeypatch.setattr(TriangulatedHull, "insert", checked(insert))
    monkeypatch.setattr(TriangulatedHull, "place", checked(place))
    monkeypatch.setattr(oracle_module, "_simplex_facets", checked_start)
    compute_pi(sysd)
    assert max(dims) >= 2 * sysd.n  # a hull was handed on


# -- facet visibility, fresh planes and the facet graph ----------------------------


def _assert_facet_graph(hull):
    # Two facets are neighbours exactly when their common points span
    # dimension d - 2 (tests/reference.py's rank).
    d, facets = hull.dim, hull.facet_map()
    assert set(hull._graph) == set(facets)
    for f, g in combinations(facets, 2):
        common = list(_on(hull, facets[f] & facets[g]))
        ridge = len(common) >= d - 1 and ref_affine_dim(common) == d - 2
        assert (g in hull._graph[f]) == ridge == (f in hull._graph[g]), (f, g)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_plane_visibility_matches_orientation(d):
    # A facet hull finds the facets a point sees from their planes and
    # updates its facet table from them, an orienting hull orients.  Grid
    # points often lie exactly on a facet plane, which must not count as
    # seen but must join that plane's points; both hulls must decide alike,
    # the planes that go must be those the point sees, and replaying the
    # reported additions must give the table's keys.
    rng = random.Random(700 + d)
    for trial in range(5):
        if trial == 4:  # half-integer grid, scaled by 2
            draw = lambda: tuple(rng.randint(0, 4) for _ in range(d))
        else:
            draw = lambda: tuple(rng.randint(0, 2) for _ in range(d))
        pts = list(dict.fromkeys(draw() for _ in range(d + 7)))
        plain = TriangulatedHull(d)
        keys = set()
        for hull, so_far, added in _grown(pts):
            for i in range(len(plain.tags) and plain.tags[-1] + 1, len(so_far)):
                plain.place(so_far[i], tag=i)
            assert set(hull.points) == set(plain.points)
            p = so_far[-1]
            after = set(hull.facet_map())
            removed = keys - after
            assert removed == {plane for plane in keys if _sees(plane, p)}
            assert len(set(added)) == len(added) and not set(added) & keys
            keys = (keys - removed) | set(added)
            assert keys == after
            assert _facet_points(hull) == _grouped(plain)
        if not keys or d == 5:
            continue  # the brute force takes seconds in dimension 5
        got = {
            frozenset(p for p in pts if _value(plane, p) == plane.offset)
            for plane in hull.facet_map()
        }
        assert got == _brute_facets(pts)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_only_the_facet_hull_keeps_facets(d):
    # A triangulated hull keeps no facet table at any dimension, so it has
    # no hull_volume or f_vector either, and its places return nothing;
    # each insert of a facet hull returns exactly the keys it added.
    rng = random.Random(800 + d)
    pts = _random_points(rng, d, d + 8)
    plain = TriangulatedHull(d)
    for i, p in enumerate(pts):
        assert plain.place(p, tag=i) is None
        for read in (TriangulatedHull.facet_map, hull_volume, f_vector):
            with pytest.raises(DegenerateInput):
                read(plain)
    keys = set()
    for hull, _, added in _grown(pts):
        now = set(hull.facet_map())
        assert len(added) == len(set(added)) and set(added) == now - keys
        keys = now
    assert plain.dim == d and keys


def test_insert_rejects_tags_that_are_not_new_non_negative_ints():
    # A tag is a non-negative int that no recorded point has, the point's id
    # by default.  A point in the hull is not recorded, so its tag stays
    # free.
    hull = TriangulatedHull(2)
    hull.insert((0, 0), tag=1)
    for tag in ("a", (1,), 1.0, True, -1, 1, None):  # None: the default id 1
        with pytest.raises(ValueError):
            hull.insert((2, 0), tag=tag)
    hull.insert((2, 0), tag=0)
    hull.place((1, 0), tag=5)
    hull.insert((0, 1), tag=5)
    assert hull.tags == [1, 0, 5] and hull.dim == 2


def _whole_state(hull):
    # Everything a hull keeps, its chart included.
    return (
        list(hull.points), list(hull.tags), dict(hull._hom), hull.dim,
        list(hull._echelon), list(hull._pivots), list(hull._chart),
        list(hull.cells), list(hull.boundary),
    )


@pytest.mark.parametrize("ambient", [1, 2, 3, 4])
def test_insert_refuses_a_point_in_the_affine_hull(ambient):
    # insert records the first point and each point off the affine hull,
    # and returns True; it returns False for a point in the affine hull, a
    # repeated point and every point once the hull is full-dimensional
    # among them, and leaves the hull as it was.  place then takes that
    # point, and the hull ends as one built by place alone.
    rng = random.Random(1100 + ambient)
    refused = 0
    for trial in range(6):
        if trial % 2:
            pts = _flat_points(rng, ambient, ambient + 6, trial % 4 == 3)
        else:
            pts = _random_points(rng, ambient, ambient + 6)
        pts += [pts[0], tuple(9 * (i + 2) for i in range(ambient))]
        hull, placed = TriangulatedHull(ambient), TriangulatedHull(ambient)
        for i, p in enumerate(pts):
            before = _whole_state(hull)
            flat = hull.dim >= 0 and ref_affine_dim(hull.points + [p]) == hull.dim
            assert hull.insert(p, tag=i) is not flat
            if flat:
                refused += 1
                assert _whole_state(hull) == before
                hull.place(p, tag=i)
            placed.place(p, tag=i)
            assert _hull_state(hull) == _hull_state(placed)
            assert hull.points == placed.points and hull.tags == placed.tags
        if hull.dim == ambient:
            # Outside the hull, and still refused: the hull spans its space.
            far = tuple(-99 for _ in range(ambient))
            before = _whole_state(hull)
            assert hull.insert(far, tag=len(pts)) is False
            assert _whole_state(hull) == before
            hull.place(far, tag=len(pts))
            assert hull.points[-1] == far
    assert refused > 0


def test_facet_hull_takes_one_tag_per_point():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    for tags in (["a", "b", "c"], ["a", "b", "c", "d", "e"]):
        with pytest.raises(ValueError):
            FacetHull(square, tags=tags)
    assert FacetHull(square, tags="abcd").tags == list("abcd")


def test_facet_hull_tags_a_point_by_itself_by_default():
    # In one call or by insert alike.
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    whole, grown = FacetHull(square), FacetHull(square[:3])
    grown.insert(square[3])
    assert whole.tags == grown.tags == square
    assert hull_volume(whole) == hull_volume(grown) == 4


def test_point_on_a_facet_plane_is_not_beyond_it(monkeypatch):
    hull = FacetHull([(0, 0), (4, 0), (4, 4), (0, 4)])
    dets = []
    monkeypatch.setattr(
        geometry, "det_bareiss", lambda rows: dets.append(rows) or det_bareiss(rows)
    )
    # On the plane y = 0 inside its facet, and inside the square: no-ops,
    # decided from the facet planes without a determinant.
    assert hull.insert((2, 0)) == []
    assert hull.insert((1, 3)) == []
    assert len(hull.points) == 4 and not dets
    # On y = 0 beyond x = 4: only the facet x = 4 sees it, and y = 0 grows.
    before = set(hull.facet_map())
    hull.insert((6, 0))
    assert before - set(hull.facet_map()) == {Hyperplane((1, 0), 4)}
    bottom = hull.facet_map()[Hyperplane((0, -1), 0)]
    assert _on(hull, bottom) == {(0, 0), (4, 0), (6, 0)}


def _pencil_points(rng, d, kind):
    if kind == "random":
        return _random_points(rng, d, d + 5)
    if kind == "grid":  # coplanar points: planes that gain the new point
        draw = lambda: tuple(rng.randint(0, 2) for _ in range(d))
    else:  # half-integer grid, scaled by 2
        draw = lambda: tuple(rng.randint(0, 4) for _ in range(d))
    return list(dict.fromkeys(draw() for _ in range(d + 5)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_fresh_planes_come_from_the_pencil(d, monkeypatch):
    # An insert takes every fresh plane from the two planes at its horizon
    # ridge, so it calls no determinant.  Each plane must be the reference
    # plane of the boundary simplices an orienting hull of the same points
    # keeps, the facet graph must join the facets that meet in a ridge, and
    # the final table must hold the brute-force facets.
    dets = []
    monkeypatch.setattr(
        geometry, "det_bareiss", lambda rows: dets.append(rows) or det_bareiss(rows)
    )
    rng = random.Random(900 + d)
    gained = 0
    for kind in ("random", "grid", "half"):
        for trial in range(3):
            pts = _pencil_points(rng, d, kind)
            plain = TriangulatedHull(d)
            keys = set()
            for hull, so_far, added in _grown(pts):
                if keys:
                    assert not dets
                for i in range(len(plain.tags) and plain.tags[-1] + 1, len(so_far)):
                    plain.place(so_far[i], tag=i)
                assert _facet_points(hull) == _grouped(plain)
                _assert_facet_graph(hull)
                vid = len(hull.points) - 1
                if keys and hull.points[vid] == so_far[-1]:
                    gained += any(
                        mask >> vid & 1 and plane in keys
                        for plane, mask in hull.facet_map().items()
                    )
                keys = set(hull.facet_map())
                del dets[:]
            if not keys or (d == 5 and trial):
                continue  # the brute force takes seconds in dimension 5
            got = {
                frozenset(q for q in pts if _value(plane, q) == plane.offset)
                for plane in hull.facet_map()
            }
            assert got == _brute_facets(pts)
    if d > 1:
        assert gained  # some kept facet took the new point (a2 = 0)


def test_horizon_ridge_on_no_kept_plane_raises():
    hull = FacetHull([(0, 0), (4, 0), (0, 4)])
    # (2, -3) sees only y = 0.  Link the y = 0 facet to itself in place of
    # x = 0: the horizon loses its ridge at (0, 0), so its one face, the
    # empty one, lies on one horizon ridge only.
    bottom, left = Hyperplane((0, -1), 0), Hyperplane((-1, 0), 0)
    hull._graph[bottom].discard(left)
    hull._graph[bottom].add(bottom)
    with pytest.raises(InvariantViolation):
        hull.insert((2, -3))


def test_horizon_ridge_meets_a_neighbour_in_an_edge():
    # A pyramid (apex a) over a pyramid (apex b) over a triangular prism in
    # R^5, with the midpoint of the edge e = [a, b] recorded: the facets
    # round e make a prism, so a ridge through e meets the facet two steps
    # round it in e alone, three points, as many as a facet of the ridge
    # may have; only maximality tells e from the ridge's facets.  A point
    # just beyond one facet through e must leave the true facet graph.  All
    # points are scaled by 350, the denominator of that point.
    k = 350
    prism = [(k * x, k * y, k * z, 0, 0) for x, y in ((0, 0), (2, 0), (0, 2)) for z in (0, 2)]
    b, a = (k, k, k, 2 * k, 0), (k, k, k, 0, 2 * k)
    mid = tuple((u + v) // 2 for u, v in zip(a, b))
    hull = FacetHull(prism + [b, mid, a])
    assert mid in hull.points
    on_e = [
        (plane, mask)
        for plane, mask in hull.facet_map().items()
        if _value(plane, mid) == plane.offset
    ]
    assert len(on_e) == 5
    plane, mask = next((plane, mask) for plane, mask in on_e if len(_on(hull, mask)) == 7)
    inside = [sum(q[i] for q in _on(hull, mask)) // 7 for i in range(5)]
    p = tuple(c + 7 * n for c, n in zip(inside, plane.normal))  # k.(n / 50)
    assert [pl for pl in hull.facet_map() if _sees(pl, p)] == [plane]
    hull.insert(p)
    _assert_facet_graph(hull)
    pts = prism + [b, mid, a, p]
    assert _facet_points(hull) == {
        pl: frozenset(q for q in hull.points if _value(pl, q) == pl.offset)
        for pl in hull.facet_map()
    }
    got = {frozenset(q for q in pts if _value(pl, q) == pl.offset) for pl in hull.facet_map()}
    assert got == _brute_facets(pts)
