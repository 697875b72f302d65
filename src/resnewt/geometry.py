"""Exact convex-hull machinery in general (small) dimension.

Two hulls live here.  ``TriangulatedHull`` is the oracle's below dimension
2n: an incremental Beneath-and-Beyond hull that maintains its placing
triangulation, works at any intrinsic dimension inside its ambient space
and orients over an integer chart of its own.  ``FacetHull`` is Q's: a
full-dimensional polytope kept as a double description, its points and its
facets with the points on each, plus a facet graph.  On top of them sit the
pulling triangulation that Q and approx mode's outer polytope share,
lattice-normalized volume and f-vector extraction.

All arithmetic is exact; no floating point is ever used.  The hulls and
their volumes run on integers: a rational point is kept as its homogeneous
row (m.p, m), cleared of denominators once.  ``Fraction`` appears only in
the volumes handed out.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod
from operator import mul
from typing import NamedTuple

from .errors import DegenerateInput, InvariantViolation
from .exactlin import (
    AffineChart,
    affine_dim,
    canonical_hyperplane,
    det_bareiss,
    dot,
    echelon_extend,
    saturated_basis,
    vec_sub,
)
from .kernels import _sign

__all__ = [
    "FacetHull",
    "Hyperplane",
    "TriangulatedHull",
    "affine_dim",
    "hull_volume",
    "lattice_hull",
    "f_vector",
]


class Hyperplane(NamedTuple):
    """Oriented hyperplane {x : normal.x = offset}; outer side normal.x > offset.

    Normal entries and offset are integers with overall gcd 1.
    """

    normal: tuple
    offset: int


class _BoundarySimplex:
    """One (k-1)-simplex of the hull boundary, with an off-plane witness.

    ``verts`` are point ids in increasing order.  ``inner_sign`` is the
    orientation sign of (verts..., opp), set when the simplex is created; a
    candidate point lies beyond the simplex's hyperplane exactly when its
    orientation sign is the negative of it.  A simplex is never changed, so
    hulls and their clones share them.
    """

    __slots__ = ("verts", "opp", "inner_sign")

    def __init__(self, verts, opp, inner_sign):
        self.verts = verts
        self.opp = opp
        self.inner_sign = inner_sign


def _row_cleared(row):
    """(integer row, positive multiplier) clearing the row's denominators."""
    if all(map(int.__instancecheck__, row)):  # no Fraction ABC check per entry
        return row, 1
    mult = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
            mult = mult // gcd(mult, d) * d
    if mult == 1:
        return [int(x) for x in row], 1
    return [int(x * mult) for x in row], mult


def _hom_row(pt):
    """(m.pt, m): the point's homogeneous row, cleared by a positive m.

    Scaling a row by a positive integer keeps the sign of any determinant
    it enters, so orientation signs can be taken over these rows.
    """
    row, mult = _row_cleared(pt)
    return (*row, mult)


class TriangulatedHull:
    """Incremental convex hull with maintained placing triangulation.

    This is the oracle's hull: its base hull of the unlifted columns and
    the lifted clones of it, until they are handed on as column masks.
    Points live in ``ambient_dim`` coordinates; the hull tracks its
    intrinsic dimension, growing it as points outside the current affine
    hull arrive.  ``tags`` holds each recorded point's tag.

    Below full dimension the hull keeps an integer chart of its affine hull:
    a fraction-free echelon of the span, one primitive row per dimension
    jump, each zero at the pivot coordinates of the rows before it.
    Membership is a remainder against the echelon; orientation is the sign
    over the pivot coordinates alone, on which the affine hull projects
    bijectively.  That
    sign is the intrinsic one times a factor fixed within one dimension, so
    every comparison of signs answers exactly as in intrinsic coordinates.
    ``_cell_signs`` holds each cell's sign.  While every insert has been a
    dimension jump, the hull is one simplex: its sign and boundary wait for
    the first standard insert or read (``_build``).  After that, a
    dimension jump to a point v takes one orientation, of the first cell
    with v, and gets every other new sign from the stored ones: (T, v) has
    sigma times T's old sign for every tuple T of old points, with sigma
    fixed for that jump.  Orientation signs are taken over each point's
    homogeneous row (m.p, m), cleared of denominators once when the point
    is recorded, so hulls of rational points run on integers too.  A fresh
    simplex's sign follows from its parent's visibility test, which oriented
    a permutation of its points.

    ``boundary`` holds the boundary simplices of the current hull, and
    ``cells`` holds the placing triangulation: insertion-ordered, each cell a
    (dim+1)-tuple of point ids; cells partition the hull.  ``points``
    records every point that was a vertex when inserted (a later insertion
    may make an earlier point non-extreme without removing it from this
    list).  The hull keeps no facet table: facets are ``FacetHull``'s.
    """

    def __init__(self, ambient_dim):
        self.ambient = ambient_dim
        self.points = []
        self._hom = []  # _hom_row of each point, for orientation signs
        self.tags = []
        self.dim = -1
        self._echelon = []  # primitive integer rows spanning the affine hull
        self._pivots = []  # pivot coordinate of each echelon row
        # The pivots in increasing order, so that a clone of a full-dimensional
        # hull orients over its old coordinates in their old order, then the
        # homogeneous coordinate (index -1 of a _hom row).
        self._chart = [-1]
        self.cells = []
        self._signs = []  # orientation sign of each cell
        self._boundary = []
        self._pending = False  # a simplex above dimension 0 awaiting _build
        self._index = {}

    # -- the state a jump-only prefix builds on first read --------------------

    @property
    def boundary(self):
        if self._pending:
            self._build()
        return self._boundary

    @property
    def _cell_signs(self):
        if self._pending:
            self._build()
        return self._signs

    def _build(self):
        # The state the jumps would have left, from one orientation: the
        # facet opposite the last vertex first, and k - j swaps take the
        # witness from the end of the cell to its place j.
        self._pending = False
        cell = self.cells[0]
        k = self.dim
        s = self._nonzero_orient(cell)
        self._signs = [s]
        boundary = []
        for j in range(k, -1, -1):
            verts = cell[:j] + cell[j + 1:]
            sign = -s if (k - j) & 1 else s
            boundary.append(_BoundarySimplex(verts, cell[j], sign))
        self._boundary = boundary

    # -- predicates ----------------------------------------------------------

    def _orient(self, ids):
        hom = self._hom
        if self.dim == self.ambient:
            return _sign(det_bareiss([hom[i] for i in ids]))
        chart = self._chart
        return _sign(det_bareiss([[hom[i][j] for j in chart] for i in ids]))

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, pt, tag):
        vid = len(self.points)
        self.points.append(pt)
        self._hom.append(_hom_row(pt))
        self.tags.append(tag)
        self._index[pt] = vid
        return vid

    def _unrecord(self, vid):
        pt = self.points.pop()
        self._hom.pop()
        self.tags.pop()
        del self._index[pt]
        if vid != len(self.points):
            raise InvariantViolation("unrecorded point is not the last one")

    # -- insertion -----------------------------------------------------------

    def insert(self, point, tag=None):
        """Insert a point.

        Duplicates and points inside the hull are no-ops.  A point outside
        the current affine hull raises the intrinsic dimension by coning the
        whole triangulation.
        """
        pt = tuple(point)
        if len(pt) != self.ambient:
            raise ValueError("point has wrong dimension")
        if pt in self._index:
            return
        if self.dim == -1:
            self._record(pt, tag)
            self.dim = 0
            self.cells = [(0,)]
            self._signs = [1]  # the sign of the 1x1 row (m), m > 0
        elif self.dim < self.ambient and echelon_extend(
            _row_cleared(vec_sub(pt, self.points[0]))[0], self._echelon, self._pivots
        ):
            self._dim_jump(pt, tag)
        else:
            self._standard_insert(pt, tag)

    def _dim_jump(self, pt, tag):
        vid = self._record(pt, tag)
        self._chart = sorted(self._pivots) + [-1]
        self.dim += 1
        if self._pending or self.dim == 1:
            # Jumps alone so far: one cell, built on first read.
            self.cells = [self.cells[0] + (vid,)]
            self._pending = True
            return
        # Old points keep their old coordinates and get 0 in the new one, so
        # orient(T + (vid,)) is sigma times T's old sign, with sigma fixed
        # for this jump: one call gives sigma and every new sign follows.
        sigma = self._nonzero_orient(self.cells[0] + (vid,)) * self._signs[0]
        signs = [sigma * s for s in self._signs]
        new_boundary = [_BoundarySimplex(cell, vid, s) for cell, s in zip(self.cells, signs)]
        for bs in self._boundary:
            # (verts, vid, opp) is one swap from (verts, opp) + (vid,)
            new_boundary.append(_BoundarySimplex(bs.verts + (vid,), bs.opp, -sigma * bs.inner_sign))
        self.cells = [cell + (vid,) for cell in self.cells]
        self._signs = signs
        self._boundary = new_boundary

    def _nonzero_orient(self, ids):
        s = self._orient(ids)
        if s == 0:
            raise InvariantViolation("boundary simplex with a flat witness")
        return s

    def _standard_insert(self, pt, tag):
        if self._pending:
            self._build()
        vid = self._record(pt, tag)
        keep, visible = [], []
        for bs in self._boundary:
            if self._orient(bs.verts + (vid,)) == -bs.inner_sign:
                visible.append(bs)
            else:
                keep.append(bs)
        if not visible:
            self._unrecord(vid)
            return
        for bs in visible:
            self.cells.append(bs.verts + (vid,))
            self._signs.append(-bs.inner_sign)
        ridge_info = {}
        for bs in visible:
            # The ridge that leaves out verts[j], with j = k-1 down to 0.
            j = len(bs.verts)
            for ridge in combinations(bs.verts, j - 1):
                j -= 1
                if ridge in ridge_info:
                    ridge_info[ridge] = None  # internal: two visible cofacets
                else:
                    ridge_info[ridge] = (bs, j)
        fresh = []
        for ridge, info in ridge_info.items():
            if info is None:
                continue
            bs, j = info
            # orient(verts + (vid,)) is -inner_sign, and (ridge, vid, opp)
            # is len(ridge) - j + 1 swaps from it.
            sign = bs.inner_sign
            fresh.append(_BoundarySimplex(
                ridge + (vid,), bs.verts[j], -sign if (len(ridge) - j) & 1 else sign
            ))
        self._boundary = keep + fresh

    def facet_map(self):
        """Raises ``DegenerateInput``: a triangulated hull keeps no facets."""
        raise DegenerateInput("a TriangulatedHull keeps no facet table; see FacetHull")

    # -- cloning ----------------------------------------------------------------

    def extended_clone(self):
        """Clone into one more ambient coordinate (appended, set to 0).

        The triangulation, boundary, chart and vertex order carry over
        unchanged; the clone can then take points whose new coordinate is
        nonzero, which raises its intrinsic dimension.  A hull made by jumps
        alone is built first.
        """
        out = TriangulatedHull(self.ambient + 1)
        out.points = [pt + (0,) for pt in self.points]
        out._hom = [h[:-1] + (0, h[-1]) for h in self._hom]
        out.tags = list(self.tags)
        out.dim = self.dim
        out._echelon = [row + (0,) for row in self._echelon]
        out._pivots = list(self._pivots)
        out._chart = list(self._chart)
        out.cells = list(self.cells)
        out._boundary = list(self.boundary)
        out._signs = list(self._signs)  # built by the read of boundary
        out._index = {pt: i for i, pt in enumerate(out.points)}
        return out


def _cofactor_plane(rows, witness):
    """Outward plane through k homogeneous rows in R^k, away from ``witness``.

    Each row is a point's cleared row (m.p, m) with m > 0.  The normal is
    the cofactor row of the orientation determinant of (rows..., witness)
    along the witness's row.  Raises ``InvariantViolation`` when the
    witness lies on the plane.
    """
    # Everything stays integral: m0.(mi.pi) - mi.(m0.p0) is pi - p0 scaled
    # by m0.mi > 0, which scales the normal by a positive factor, and the
    # plane normal.x = normal.p0 scaled by m0 > 0 is (m0.normal,
    # normal.(m0.p0)).  The canonical form divides every positive factor out.
    k = len(rows)
    h0 = rows[0]
    m0 = h0[k]
    diffs = [[m0 * a - h[k] * b for a, b in zip(h[:k], h0)] for h in rows[1:]]
    normal = []
    sgn = 1
    for j in range(k):
        sub = [[row[t] for t in range(k) if t != j] for row in diffs]
        normal.append(sgn * det_bareiss(sub))
        sgn = -sgn
    offset = dot(normal, h0[:k])
    side = m0 * dot(normal, witness[:k]) - witness[k] * offset
    if side == 0:
        raise InvariantViolation("boundary simplex witness lies on its plane")
    if side > 0:
        normal = [-a for a in normal]
        offset = -offset
    return Hyperplane(*canonical_hyperplane([m0 * a for a in normal], offset))


class FacetHull:
    """A full-dimensional polytope in R^k kept as a double description.

    The first point and each later one that raises the affine rank make a
    simplex, whose planes are cofactor planes; the other points are then
    inserted in order.  ``points``, ``tags`` (by default the points) and
    ``_hom`` record, simplex first, each point that lay outside the hull
    when it came.  ``facet_map()`` is {Hyperplane: bitmask of the ids of
    the recorded points on it}; the masks are exact, so a face is known by
    its mask.  ``_graph`` maps each facet's plane to the planes of the
    facets it shares a ridge with: the facet graph.

    An insert takes a = m.g(p) per facet over the point's cleared row, and
    the point sees the facets with a > 0.  A seen F and an unseen neighbour
    G meet in a horizon ridge F & G, and a1.g2 - a2.g1 is the plane through
    it and the point, at most 0 on the hull since a1 > 0 >= a2 (the dual of
    the edge combination in ``outer.clip_halfspace``); when a2 = 0 it is G,
    which gains the point.  The horizon ridges make a (k-2)-sphere, so each
    facet of one lies on one other, and the facets through the point over
    those two ridges meet in a ridge unless they are one.  ``hull_volume``
    takes the pulling triangulation on first read; after that each insert
    adds the point coned over the pulling triangulation of each seen facet.
    """

    def __init__(self, points, tags=None):
        pts = [tuple(p) for p in points]
        tags = pts if tags is None else list(tags)
        k = self.dim = len(pts[0])
        self.points, self.tags, self._hom, self._index = [], [], [], {}
        self._volume = None
        echelon, pivots, rest = [], [], []
        for p, t in zip(pts, tags):
            if not self.points or (len(self.points) <= k and echelon_extend(
                _row_cleared(vec_sub(p, self.points[0]))[0], echelon, pivots
            )):
                self._record(p, _hom_row(p), t)
            else:
                rest.append((p, t))
        if len(self.points) <= k:
            raise DegenerateInput("points span %d of %d dimensions" % (len(echelon), k))
        hom = self._hom
        planes = [_cofactor_plane(hom[:i] + hom[i + 1:], hom[i]) for i in range(k + 1)] if k else []
        everything = (1 << (k + 1)) - 1
        self._facets = {plane: everything ^ 1 << i for i, plane in enumerate(planes)}
        self._graph = {plane: set(planes) - {plane} for plane in planes}
        for p, t in rest:
            self.insert(p, t)

    def _record(self, pt, row, tag):
        vid = len(self.points)
        self.points.append(pt)
        self._hom.append(row)
        self.tags.append(tag)
        self._index[pt] = vid
        return vid

    def facet_map(self):
        """The facet table {Hyperplane: bitmask of the ids on it}, the hull's
        own: inserts keep it current, and callers must not change it."""
        return self._facets

    def insert(self, point, tag=None):
        """Insert a point; returns the list of facet planes it added.

        Duplicates and points in the hull are no-ops.  Raises
        ``InvariantViolation`` when the facet graph is found corrupted: a
        facet of a horizon ridge that lies on no other.
        """
        pt = tuple(point)
        k = self.dim
        if len(pt) != k:
            raise ValueError("point has wrong dimension")
        if pt in self._index:
            return []
        row = _hom_row(pt)
        x, m = row[:k], row[k]
        facets, graph = self._facets, self._graph
        a_of = {plane: sum(map(mul, plane.normal, x)) - m * plane.offset for plane in facets}
        seen = [plane for plane, a in a_of.items() if a > 0]
        if not seen:
            return []
        vid = self._record(pt, row, tag)
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
                    plane = Hyperplane(*canonical_hyperplane(normal, offset))
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
        out = []
        for t in sorted(subs, key=int.bit_count, reverse=True):
            if t.bit_count() < k - 2:
                break  # too few points for a (k-3)-face
            if all(t & u != t for u in out):
                out.append(t)
        return out

    def _cone_volume(self, vid, seen):
        # The volume the point adds: it coned over the pulling triangulation
        # of each facet it sees, whose ridges are its mask's meets with its
        # neighbours'.
        facets, graph, hom = self._facets, self._graph, self._hom
        apex = hom[vid]
        memo = {}
        total = 0
        for f in seen:
            mf = facets[f]
            ridges = {mf & facets[g] for g in graph[f]}
            for cell in _pulling_simplices(mf, ridges, self.dim - 1, memo):
                total += _cell_volume([apex] + [hom[v] for v in cell])
        return Fraction(total) / factorial(self.dim)


# -- volume ---------------------------------------------------------------------


def _cell_volume(rows):
    """dim! times the volume of the simplex with these homogeneous rows."""
    d = abs(det_bareiss(rows))
    m = prod(row[-1] for row in rows)
    return d if m == 1 else Fraction(d, m)


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
    known by its point set.
    """
    face = 0
    for t in sets:
        face |= t
    cells = _pulling_simplices(face, sets, dim, {})
    total = sum(_cell_volume([rows[v] for v in cell]) for cell in cells)
    return Fraction(total) / factorial(dim)


def hull_volume(hull):
    """The volume of a ``FacetHull``; a single point has volume 1.

    The hull of a ``lattice_hull`` is full-dimensional over its points' own
    lattice, so integer polytopes get their lattice-normalized volume and
    volume *ratios* of hulls sharing one space are
    parameterization-independent.  The first call takes the pulling
    triangulation; inserts keep the volume from then on.  A
    ``TriangulatedHull`` keeps no facets and raises ``DegenerateInput``.
    """
    facets = hull.facet_map()
    if hull.dim == 0:
        return Fraction(1)
    if hull._volume is None:
        hull._volume = _pulling_volume(hull.dim, hull._hom, facets.values())
    return hull._volume


def lattice_hull(points):
    """The hull of integer points over their own lattice, and its chart.

    The chart is p0 = min(points) plus a saturated basis of the differences,
    taken in the order given, so every integer point of the affine hull has
    integer coordinates and lattice volumes are kept.  The points go to a
    ``FacetHull`` in the order given, each tagged by itself; it is
    full-dimensional in the chart.  Returns (hull, chart).
    """
    pts = list(points)
    p0 = min(pts)
    diffs = [vec_sub(p, p0) for p in pts if p != p0]
    chart = AffineChart(p0, saturated_basis(diffs, ambient_dim=len(p0)))
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

    Faces are obtained by closing the facets' point sets under intersection
    and grading by affine dimension (a single point gives (1,)).  A
    ``TriangulatedHull`` keeps no facets and raises ``DegenerateInput``.
    """
    facet_sets = set(hull.facet_map().values())
    if hull.dim == 0:
        return (1,)
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    new.add(h)
        faces |= new
        frontier = new
    counts = [0] * hull.dim
    for f in faces:
        d = affine_dim([p for i, p in enumerate(hull.points) if f >> i & 1])
        counts[d] += 1
    return tuple(counts)
