"""Exact convex-hull machinery in general (small) dimension.

Two hulls live here.  ``TriangulatedHull`` is the oracle's up to dimension
2n or 2n+1: an incremental Beneath-and-Beyond hull that maintains its
placing triangulation, works at any intrinsic dimension inside its ambient
space and orients over an integer chart of its own.  It keeps its cells and
boundary simplices as bitmasks of point tags with an orientation sign each,
the oracle's own format, so the rules that make them (a simplex's boundary,
a cone over the horizon, a cone over a flat) are written once, here, and
the oracle reads the hull as it stands.  ``FacetHull`` is Q's: a
full-dimensional polytope kept as a double description, its points and its
facets with the points on each, plus a facet graph.  On top of them sit
pulling triangulations, lattice-normalized volume (Q's is one point coned
over its facets' pulling triangulations) and f-vector extraction.

All arithmetic is exact and runs on integers.  A point is a tuple of
``int``s of the hull's dimension (``exactlin.int_vector``), whose
homogeneous row is (p, 1); a facet plane is ``exactlin.Hyperplane``, which is
re-exported here.  A volume adds its cells as ``int``s over one common
denominator and is one ``Fraction``.
"""

from fractions import Fraction
from math import factorial, lcm, prod
from operator import mul

from .errors import DegenerateInput, InvariantViolation
from .exactlin import (
    AffineChart,
    Hyperplane,
    adjugate,
    canonical_hyperplane,
    echelon_extend,
    int_vector,
    saturated_basis,
    vec_sub,
)
from .kernels import det_bareiss

__all__ = [
    "FacetHull",
    "Hyperplane",
    "TriangulatedHull",
    "hull_volume",
    "lattice_hull",
    "f_vector",
]


def _hom_row(pt):
    """(pt, 1): the integer point's homogeneous row."""
    return (*pt, 1)


def _int_points(points):
    """The points as tuples of ``int``s as long as the first; there must be one."""
    pts = list(points)
    if not pts:
        raise ValueError("a hull needs at least one point")
    return [int_vector(p, len(pts[0])) for p in pts]


# -- simplices as (mask, sign) pairs, the format of TriangulatedHull and the oracle --


def _simplex_facets(tags, s):
    """The boundary (mask, q) pairs of the simplex on ``tags``, in their order.

    s is the orientation of the points in tag order.  Facet x, the mask
    less x, has x for its witness: moving x from its place in tag order to
    the end passes the points above it.
    """
    mask = sum(1 << x for x in tags)
    out = []
    for x in tags:
        facet = mask ^ 1 << x
        out.append((facet, -s if (facet >> x).bit_count() & 1 else s))
    return out


def _place(cells, visible, keep, tag):
    """(cells, boundary) once the point ``tag`` goes in beyond the ``visible`` pairs.

    ``keep`` holds the other boundary pairs.  Each visible (B, q) gives the
    cell B | tag, whose orientation with the point last is -q, flipped once
    per point of B above it.
    """
    bit = 1 << tag
    new = [(mask | bit, q if (mask >> tag).bit_count() & 1 else -q) for mask, q in visible]
    return cells + new, keep + _horizon_cone(visible, tag)


def _horizon_cone(visible, tag):
    """The (mask, q) pairs of the new boundary simplices through the point ``tag``.

    Each ridge R = mask - {x} of exactly one visible pair is on the horizon
    and gives the simplex R | tag with witness x.  From q = -orient(mask in
    tag order, tag): swapping the point and x, then moving each into its
    place, gives q times (-1)^(#R above x + #R above tag).
    """
    ridges = {}
    for mask, q in visible:
        m = mask
        while m:
            low = m & -m
            m ^= low
            ridge = mask ^ low
            # A ridge of two visible simplices is inside the new hull.
            ridges[ridge] = None if ridge in ridges else (low.bit_length() - 1, q)
    bit = 1 << tag
    fresh = []
    for ridge, info in ridges.items():
        if info is not None:
            x, q = info
            if ((ridge >> x).bit_count() + (ridge >> tag).bit_count()) & 1:
                q = -q
            fresh.append((ridge | bit, q))
    return fresh


def _cone(cells, pairs, tag, t):
    """The boundary (mask, q) pairs once the point ``tag`` cones over a flat hull.

    ``cells`` and ``pairs`` are the hull's, and the point lies off its flat:
    putting it after any tuple of the hull's points turns the tuple's
    orientation in the flat into t times the orientation in the new span.
    So each cell T becomes a simplex with the point for witness and q = t*s,
    and each boundary pair (B, q) the simplex B | tag with its old witness
    and q times -t, flipped once per point of B above the tag.
    """
    out = [(mask, t * s) for mask, s in cells]
    bit = 1 << tag
    for mask, q in pairs:
        out.append((mask | bit, t * q if (mask >> tag).bit_count() & 1 else -t * q))
    return out


class TriangulatedHull:
    """Incremental convex hull with maintained placing triangulation.

    This is the oracle's hull: the placement of its unlifted columns and
    each query's copy of it, until the oracle goes on with its simplices
    alone.  Points live in ``ambient_dim`` coordinates; the hull tracks its
    intrinsic dimension, growing it as points outside the current affine
    hull arrive.  ``insert`` takes only those and says whether it took the
    point, so a query's copy is also its rank pass; ``place`` takes any.

    Each point carries a tag, a distinct non-negative ``int`` its caller
    gives, and a simplex is the bitmask of its points' tags, bit t for the
    point tagged t.  ``cells`` holds the placing triangulation as pairs
    (mask, s), s the orientation of the cell's points in increasing tag
    order; the cells partition the hull.  ``boundary`` holds the boundary
    simplices as pairs (mask, q), q the orientation of the mask's points in
    tag order followed by any point of the hull off its hyperplane, so a
    new point lies beyond one exactly when it orients as -q in that point's
    place.  The oracle keeps its simplices so too, and the rules that make
    them (``_simplex_facets``, ``_place``, ``_horizon_cone``, ``_cone``)
    serve both.  ``_hom``, the hull's one record of its points, maps the
    tag of every point that lay outside the hull when inserted, in order,
    to its homogeneous row (p, 1).

    Below full dimension the hull keeps an integer chart of its affine hull:
    a fraction-free echelon of the span, one primitive row per dimension
    jump, each zero at the pivot coordinates of the rows before it and
    positive at its own (``echelon_extend``).  Membership is a remainder
    against the echelon; orientation is the sign over the pivot coordinates
    alone, on which the affine hull projects bijectively.  That sign is the
    intrinsic one times a factor fixed within one dimension, so every
    comparison of signs answers exactly as in intrinsic coordinates.  A
    dimension jump takes no orientation: the sign of the point's remainder
    at its new pivot, and that pivot's place among the others, give the
    factor by which putting the point after a cell multiplies the cell's
    sign (``_dim_jump``), and ``_cone`` gets every new sign from the stored
    ones.  The first point's boundary is the empty simplex, which the first
    jump cones into a segment's two ends.  So ``cells`` and ``boundary``
    are current after every insert.  A fresh simplex's sign follows from
    its parent's visibility test.  The hull keeps no facet table: facets
    are ``FacetHull``'s.
    """

    def __init__(self, ambient_dim):
        self.ambient = ambient_dim
        self._hom = {}
        self._origin = None  # the first point, from which the echelon reduces
        self.dim = -1
        self._echelon = []  # primitive integer rows spanning the affine hull
        self._pivots = []  # pivot coordinate of each echelon row
        # The pivots in increasing order, then the homogeneous coordinate
        # (index -1 of a _hom row): a hull one dimension below its ambient
        # with the last coordinate no pivot orients as the rows without
        # that coordinate do, which the oracle's handoff at 2n relies on.
        self._chart = [-1]
        self.cells = []
        self.boundary = []

    # -- predicates ----------------------------------------------------------

    def _rows(self, mask):
        hom = self._hom
        return [hom[t] for t in range(mask.bit_length()) if mask >> t & 1]

    def _orient(self, rows):
        # The orientation of the points with these homogeneous rows; at full
        # dimension the chart lists every coordinate in order.
        chart = self._chart
        d = det_bareiss([[row[j] for j in chart] for row in rows])
        return (d > 0) - (d < 0)

    # -- insertion -----------------------------------------------------------

    def insert(self, point, tag):
        """Record a point tagged ``tag`` if it is the first or lies outside
        the affine hull, a dimension jump that cones the whole
        triangulation; returns whether it did.  A point in the affine hull,
        as every point is once the hull spans its space, is refused and
        nothing is recorded (``place`` takes it).  Raises ``ValueError`` on
        a point of the wrong length or with a coordinate that is not an
        ``int``, and on a tag that is not a non-negative ``int`` or is a
        recorded point's.
        """
        pt = int_vector(point, self.ambient)
        if type(tag) is not int or tag < 0 or tag in self._hom:
            raise ValueError("tag %r is not a non-negative int of a new point" % (tag,))
        if self.dim == -1:
            self._origin, self._hom[tag] = pt, _hom_row(pt)
            self.dim = 0
            # The sign of the 1x1 row (1), and the empty simplex, which the
            # point lies off: a jump cones them into a segment's two ends.
            self.cells, self.boundary = [(1 << tag, 1)], [(0, 1)]
            return True
        sign = self.dim < self.ambient and echelon_extend(
            vec_sub(pt, self._origin), self._echelon, self._pivots
        )
        if sign:
            self._dim_jump(pt, tag, sign)
        return bool(sign)

    def place(self, point, tag):
        """``insert``, then the Beneath-and-Beyond step for a point it
        refuses; a point in the hull, a duplicate among them, is a no-op."""
        if not self.insert(point, tag):
            self._standard_insert(tuple(point), tag)

    def _dim_jump(self, pt, tag, sign):
        # The new pivot p is the i-th of the sorted pivots.  Putting the
        # point after a cell of k + 1 points multiplies the cell's
        # orientation by t = (-1)^(k+1+i) * sign: take the cell's first row
        # from the others and expand along the homogeneous column, then
        # trade the point's difference row for the remainder, a positive
        # multiple of it plus rows of the old flat, and expand along
        # column p, where the remainder alone is nonzero.
        self._hom[tag] = _hom_row(pt)
        pivots = sorted(self._pivots)
        i = pivots.index(self._pivots[-1])
        self._chart = pivots + [-1]
        t = -sign if (self.dim + i) & 1 == 0 else sign
        self.dim += 1
        cells, bit = self.cells, 1 << tag
        self.boundary = _cone(cells, self.boundary, tag, t)
        self.cells = [(m | bit, s * (-t if (m >> tag).bit_count() & 1 else t)) for m, s in cells]

    def _standard_insert(self, pt, tag):
        row = _hom_row(pt)
        visible, keep = [], []
        for pair in self.boundary:
            beyond = self._orient(self._rows(pair[0]) + [row]) == -pair[1]
            (visible if beyond else keep).append(pair)
        if visible:
            self._hom[tag] = row
            self.cells, self.boundary = _place(self.cells, visible, keep, tag)

    def facet_map(self):
        """Raises ``DegenerateInput``: a triangulated hull keeps no facets."""
        raise DegenerateInput("a TriangulatedHull keeps no facet table; see FacetHull")

    def copy(self):
        """A hull in the same state that takes points without changing this one."""
        out = TriangulatedHull(self.ambient)
        out._hom, out._origin = dict(self._hom), self._origin
        out.dim = self.dim
        out._echelon, out._pivots = list(self._echelon), list(self._pivots)
        out._chart = list(self._chart)
        out.cells, out.boundary = list(self.cells), list(self.boundary)
        return out


def _simplex_planes(rows):
    """The outward facet planes of a simplex in R^k, the one opposite each point.

    ``rows`` are the k + 1 points' homogeneous integer rows (a, d), d > 0.
    Column i of the adjugate of their matrix H vanishes on every row but row
    i, on which it takes det H: it is the plane through the other points,
    and -sign(det H) turns it away from point i.  All planes come from one
    elimination (``adjugate``).  Raises ``InvariantViolation`` when the
    points are affinely dependent.
    """
    try:
        det, adj = adjugate(rows)
    except DegenerateInput:
        raise InvariantViolation("simplex vertices are affinely dependent") from None
    s = -1 if det > 0 else 1
    return [canonical_hyperplane([s * a for a in col[:-1]], -s * col[-1]) for col in zip(*adj)]


class FacetHull:
    """A full-dimensional polytope in R^k kept as a double description.

    The first point and each later one that raises the affine rank make a
    simplex, whose planes are its adjugate's columns (``_simplex_planes``);
    the other points are then inserted in order.  ``points`` and ``tags``
    (by default the points) record, simplex first, each point that lay
    outside the hull when it came.  ``facet_map()`` is {Hyperplane: bitmask of the ids of
    the recorded points on it}; the masks are exact, so a face is known by
    its mask.  ``_graph`` maps each facet's plane to the planes of the
    facets it shares a ridge with: the facet graph.

    An insert takes a = g(p) per facet, and the point sees the facets with
    a > 0.  A seen F and an unseen neighbour G meet in a horizon ridge
    F & G, and a1.g2 - a2.g1 is the plane through it and the point, at most
    0 on the hull since a1 > 0 >= a2 (the dual of the edge combination in
    ``outer.clip_halfspace``); when a2 = 0 it is G, which gains the point.  The horizon ridges make a (k-2)-sphere, so each
    facet of one lies on one other, and the facets through the point over
    those two ridges meet in a ridge unless they are one.  ``_cone_volume``
    gives the volume: ``hull_volume``'s first read cones point 0 over the
    facets that miss it, and each insert adds its point over those it sees.
    """

    def __init__(self, points, tags=None):
        pts = _int_points(points)
        tags = pts if tags is None else list(tags)
        if len(tags) != len(pts):
            raise ValueError("%d tags for %d points" % (len(tags), len(pts)))
        k = self.dim = len(pts[0])
        self.points, self.tags, self._index = [], [], set()
        self._volume = None
        echelon, pivots, rest = [], [], []
        for p, t in zip(pts, tags):
            if not self.points or (len(self.points) <= k and echelon_extend(
                vec_sub(p, self.points[0]), echelon, pivots
            )):
                self._record(p, t)
            else:
                rest.append((p, t))
        if len(self.points) <= k:
            raise DegenerateInput("points span %d of %d dimensions" % (len(echelon), k))
        planes = _simplex_planes([_hom_row(p) for p in self.points]) if k else []
        everything = (1 << (k + 1)) - 1
        self._facets = {plane: everything ^ 1 << i for i, plane in enumerate(planes)}
        self._graph = {plane: set(planes) - {plane} for plane in planes}
        for p, t in rest:
            self.insert(p, t)

    def _record(self, pt, tag):
        vid = len(self.points)
        self.points.append(pt)
        self.tags.append(tag)
        self._index.add(pt)
        return vid

    def facet_map(self):
        """The facet table {Hyperplane: bitmask of the ids on it}, the hull's
        own: inserts keep it current, and callers must not change it."""
        return self._facets

    def insert(self, point, tag):
        """Insert a point tagged ``tag``; returns the list of facet planes
        it added.

        Duplicates and points in the hull are no-ops.  Raises ``ValueError``
        on a point of the wrong length or with a coordinate that is not an
        ``int``, and ``InvariantViolation`` when the facet graph is found
        corrupted: a facet of a horizon ridge that lies on no other.
        """
        pt = int_vector(point, self.dim)
        if pt in self._index:
            return []
        facets, graph = self._facets, self._graph
        a_of = {plane: sum(map(mul, plane.normal, pt)) - plane.offset for plane in facets}
        seen = [plane for plane, a in a_of.items() if a > 0]
        if not seen:
            return []
        vid = self._record(pt, tag)
        if self._volume is not None:
            self._volume += self._cone_volume(vid, seen)
        bit = 1 << vid
        through = {}  # plane -> mask of each facet through the point
        bases = []  # (fresh plane, the kept facet across its base ridge)
        at_face = {}  # (k-3)-face of the horizon -> the facets over its ridges
        gone = set(seen)
        for f in seen:
            a1, mf = a_of[f], facets[f]
            for g in graph[f] - gone:  # a ridge between two seen facets goes
                a2 = a_of[g]
                ridge = mf & facets[g]
                if a2 == 0:
                    plane = g
                    through[g] = facets[g] | bit
                else:
                    normal = [a1 * v - a2 * u for u, v in zip(f.normal, g.normal)]
                    offset = a1 * g.offset - a2 * f.offset
                    plane = canonical_hyperplane(normal, offset)
                    through[plane] = through.get(plane, bit) | ridge
                    bases.append((plane, g))
                for t in self._ridge_facets(ridge, f, g):
                    at_face.setdefault(t, []).append(plane)
        for f in seen:
            del facets[f]
            for g in graph.pop(f) - gone:
                graph[g].discard(f)
        added = [plane for plane in through if plane not in facets]
        for plane in added:
            graph[plane] = set()
        facets.update(through)
        for plane, g in bases:
            graph[plane].add(g)
            graph[g].add(plane)
        for pair in at_face.values():
            if len(pair) != 2:
                raise InvariantViolation("a horizon face on %d horizon ridges" % len(pair))
            h1, h2 = pair
            if h1 != h2:
                graph[h1].add(h2)
                graph[h2].add(h1)
        return added

    def _ridge_facets(self, ridge, f, g):
        # The facets of the ridge F & G, as masks.  A ridge of k - 1 points
        # is a simplex, whose facets leave out one point each; any other's
        # are its maximal proper meets with the neighbours of F, or of G,
        # since the next facet round each of them is one.
        k, facets, graph = self.dim, self._facets, self._graph
        if ridge.bit_count() == k - 1:
            out, rest = [], ridge
            while rest:
                low = rest & -rest
                rest ^= low
                out.append(ridge ^ low)
            return out
        near = graph[f] if len(graph[f]) < len(graph[g]) else graph[g]
        subs = {ridge & facets[x] for x in near}
        subs.discard(ridge)  # the meet with F or G
        return _maximal(subs, k - 2)  # a (k-3)-face has k - 2 points or more

    def _cone_volume(self, vid, seen):
        # Point vid coned over the pulling triangulation of each facet in
        # seen, whose ridges are its mask's meets with its neighbours': the
        # volume an insert adds, or, over the facets that miss vid, the
        # hull's.  The (p, 1) rows all end in 1: a cell adds its |det| alone.
        facets, graph, points = self._facets, self._graph, self.points
        apex = (*points[vid], 1)
        memo = {}
        total = 0
        for f in seen:
            mf = facets[f]
            ridges = {mf & facets[g] for g in graph[f]}
            for cell in _pulling_simplices(mf, ridges, self.dim - 1, memo):
                total += abs(det_bareiss([apex] + [(*points[v], 1) for v in cell]))
        return Fraction(total, factorial(self.dim))


def _maximal(meets, least=0):
    """The inclusion-maximal masks among ``meets`` with ``least`` points or more.

    The masks are taken by popcount, largest first, and each is kept unless
    a kept one contains it.
    """
    out = []
    for t in sorted(meets, key=int.bit_count, reverse=True):
        if t.bit_count() < least:
            break
        if all(t & u != t for u in out):
            out.append(t)
    return out


# -- volume ---------------------------------------------------------------------


def _pulling_simplices(face, sets, d, memo):
    """The pulling triangulation of a d-face, as tuples of point indices.

    ``face`` is the face's point set as a bit mask and ``sets`` holds point
    sets whose maximal proper nonempty meets with it are its facets: the
    facets' of a polytope, or a facet's ridges'.  The face is coned from
    its lowest point over its facets that miss that point.  A face's
    simplices depend on the face alone, so ``memo`` keeps them per face.
    """
    if d == 0:
        return [(face.bit_length() - 1,)]
    got = memo.get(face)
    if got is not None:
        return got
    apex_bit = face & -face
    apex = apex_bit.bit_length() - 1
    proper = {t for t in sets if t and t != face}
    out = []
    for sub in proper:
        if sub & apex_bit:
            continue
        if any(sub & t == sub and t != sub for t in proper):
            continue  # not a facet of this face
        for simplex in _pulling_simplices(sub, {t & sub for t in proper}, d - 1, memo):
            out.append((apex, *simplex))
    memo[face] = out
    return out


def _pulling_volume(dim, rows, sets):
    """Volume of a full-dimensional polytope from its facets' point sets.

    ``rows`` are its points as homogeneous rows and ``sets`` the bit masks
    of the points on each facet (bit i for ``rows[i]``), so that a face is
    known by its point set.  A cell is |det| / m of its rows, m the product
    of their last entries, which divides ``scale``: the cells add as
    ``int``s over that one denominator.
    """
    face = 0
    for t in sets:
        face |= t
    scale = lcm(*(row[-1] for row in rows)) ** (dim + 1)
    total = 0
    for cell in _pulling_simplices(face, sets, dim, {}):
        cell_rows = [rows[v] for v in cell]
        total += abs(det_bareiss(cell_rows)) * scale // prod(row[-1] for row in cell_rows)
    return Fraction(total, scale * factorial(dim))


def hull_volume(hull):
    """The volume of a ``FacetHull``; a single point has volume 1.

    The hull of a ``lattice_hull`` is full-dimensional over its points' own
    lattice, so integer polytopes get their lattice-normalized volume and
    volume *ratios* of hulls sharing one space are
    parameterization-independent.  The first call cones point 0 over the
    facets that miss it, and inserts keep the volume (``FacetHull``).  A
    ``TriangulatedHull`` keeps no facets and raises ``DegenerateInput``.
    """
    facets = hull.facet_map()
    if hull.dim == 0:
        return Fraction(1)
    if hull._volume is None:
        hull._volume = hull._cone_volume(0, [f for f, mask in facets.items() if not mask & 1])
    return hull._volume


def lattice_hull(points):
    """The hull of integer points over their own lattice, and its chart.

    The chart is p0 = min(points) plus a saturated basis of the differences,
    taken in the order given, so every integer point of the affine hull has
    integer coordinates and lattice volumes are kept.  The points go to a
    ``FacetHull`` in the order given, each tagged by itself; it is
    full-dimensional in the chart.  Returns (hull, chart).
    """
    pts = _int_points(points)
    p0 = min(pts)
    diffs = [vec_sub(p, p0) for p in pts if p != p0]
    chart = AffineChart(p0, saturated_basis(diffs, len(p0)))
    xis = []
    for p in pts:
        xi = chart.coords(p)
        if xi is None:
            raise InvariantViolation("point off the lattice of its own affine hull")
        xis.append(xi)
    return FacetHull(xis, pts), chart


# -- f-vector ---------------------------------------------------------------------


def f_vector(hull):
    """Face counts (f_0, ..., f_{dim-1}) of a ``FacetHull``.

    A face is known by the mask of the points on it, and its facets are its
    maximal proper nonempty meets with the hull's facets, the rule
    ``_pulling_simplices`` follows.  So the faces are found one dimension
    at a time, down from the facets (a single point gives (1,)).  A
    ``TriangulatedHull`` keeps no facets and raises ``DegenerateInput``.
    """
    facet_sets = set(hull.facet_map().values())
    if hull.dim == 0:
        return (1,)
    counts = [0] * hull.dim
    faces = facet_sets
    for d in range(hull.dim - 1, 0, -1):
        counts[d] = len(faces)
        below = set()
        for face in faces:
            below.update(_maximal({face & g for g in facet_sets} - {0, face}))
        faces = below
    counts[0] = len(faces)
    return tuple(counts)
