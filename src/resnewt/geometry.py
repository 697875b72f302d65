"""Exact convex-hull machinery in general (small) dimension.

Provides an incremental Beneath-and-Beyond hull that maintains its placing
triangulation, works at any intrinsic dimension inside its ambient space,
and accepts a pluggable orientation callback so that hulls over structured
point sets can route predicates through the shared minor cache.  On top of
the hull sit lattice-normalized volume and f-vector extraction.

All arithmetic is exact; no floating point is ever used.  The hull and its
volume run on integers: a rational point is kept as its homogeneous row
(m.p, m), cleared of denominators once.  ``Fraction`` appears only in the
volumes handed out.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod
from operator import attrgetter, mul
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
from .kernels import _sign, mask_with_parity

__all__ = [
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
    orientation sign is the negative of it.  A filed hull sets ``plane``,
    the simplex's outward hyperplane, from cofactors (``_bs_plane``) when it
    files and from the pencil at the horizon ridge after that, numbers its
    simplices in order of creation (``serial``), and links their neighbours:
    ``nbrs[j]`` is the other simplex on the ridge without ``verts[j]``.  A
    hull with a ``split_fn`` keeps ``key``, the bitmask of the tags of
    ``verts`` (bit t for tag t), and ``parity``, the sign of their sort.
    """

    __slots__ = ("verts", "opp", "inner_sign", "plane", "key", "parity", "serial", "nbrs")

    def __init__(self, verts, opp, inner_sign, key=None, parity=1):
        self.verts = verts
        self.opp = opp
        self.inner_sign = inner_sign
        self.key = key
        self.parity = parity


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

    Points live in ``ambient_dim`` coordinates; the hull tracks its intrinsic
    dimension, growing it as points outside the current affine hull arrive.
    ``orient_fn(hull, ids)`` may return the orientation sign of the points
    with the given ids (in order), or None to fall back to the built-in exact
    determinant; the callback lets structured hulls reuse cached minors.
    ``split_fn(hull, vid)`` may return the (visible, kept) split of the
    boundary by the new point ``vid``, every orientation of (verts..., vid)
    taken at once, or None to orient simplex by simplex.  Its hull keeps
    each boundary simplex's tags as a bitmask with their sort parity
    (``key``, ``parity``), so its tags must be distinct non-negative
    ``int``s, and ``insert`` raises ``ValueError`` on any other: a fresh
    simplex gets its parent's key with the witness's bit cleared and the
    new point's set; a dimension jump copies an old cell's key or makes it.

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
    fixed for that jump (this holds for the chart, and for an
    ``orient_fn`` that, like the oracle's, is a determinant of the lifted
    points).  Orientation signs and facet planes
    are taken over each point's homogeneous row (m.p, m), cleared of
    denominators once when the point is recorded, so hulls of rational
    points run on integers too.

    The visibility test follows from what the hull is.  Below full
    dimension it orients; at full dimension a hull with a ``split_fn`` (the
    oracle's) asks it; any other hull files its boundary simplices by facet
    plane on the insert that makes it full-dimensional and keeps its facet
    table (``facet_map``) current.  A filed insert takes one dot product per
    plane, touches only the simplices on the planes the point sees, and
    takes each fresh plane from the two planes at its horizon ridge
    (``_pencil_plane``), the second that of the simplex's neighbour across
    the ridge, so it computes no determinant; the boundary is assembled, in
    creation order, only when read.  Every hull derives a fresh simplex's
    sign from its parent's visibility test, which found the point beyond
    the parent's plane or oriented a permutation of its points
    (so, as at a jump, an ``orient_fn`` must be a determinant).

    ``boundary`` holds the boundary simplices of the current hull, and
    ``cells`` holds the placing triangulation: insertion-ordered, each cell a
    (dim+1)-tuple of point ids; cells partition the hull.  At full
    dimension cells are only appended, so ``hull_volume`` keeps a running
    sum over the cells it has seen.  ``points`` records every point that
    was a vertex when inserted (a later insertion may make an earlier point
    non-extreme without removing it from this list; that never happens when
    every inserted point is a vertex of the final hull).
    """

    def __init__(self, ambient_dim, orient_fn=None, split_fn=None):
        self.ambient = ambient_dim
        self.orient_fn = orient_fn
        self.split_fn = split_fn
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
        self._cell_keys = None  # key_cells: (key, parity) of each cell
        self._index = {}
        self._facets = None  # facet_map's table, once the boundary is filed
        # A filed hull: plane -> simplices on it, and a creation serial per
        # simplex that gives the boundary order.
        self._on_plane = None
        self._serials = 0
        # hull_volume's running sum of the cells[:_vol_cells] volumes, times dim!
        self._vol_cells = 0
        self._vol_sum = 0

    # -- the state a jump-only prefix builds on first read --------------------

    @property
    def boundary(self):
        if self._pending:
            self._build()
        if self._on_plane is not None:
            simplices = [bs for group in self._on_plane.values() for bs in group]
            return sorted(simplices, key=attrgetter("serial"))
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
            boundary.append(_BoundarySimplex(verts, cell[j], sign, *self._key(verts)))
        self._boundary = boundary

    def _key(self, ids):
        # (tag mask, parity) in a hull with a split_fn, else no key.
        if self.split_fn is None:
            return None, 1
        return mask_with_parity([self.tags[i] for i in ids])

    def key_cells(self):
        """Key each cell by its tag mask, which the next jump copies.

        Inserts keep the keys, also in an extended clone, up to that jump.
        """
        if self._pending:
            self._build()
        self._cell_keys = [self._key(cell) for cell in self.cells]

    # -- predicates ----------------------------------------------------------

    def _orient(self, ids):
        if self.orient_fn is not None:
            s = self.orient_fn(self, ids)
            if s is not None:
                return s
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
        """Insert a point; returns the list of facet planes it added.

        Duplicates and points inside the hull are no-ops.  A point outside
        the current affine hull raises the intrinsic dimension by coning the
        whole triangulation.  The planes are the ``facet_map`` keys that
        appeared: every facet on the insert that files the hull, [] while
        the hull has no facet table.
        """
        pt = tuple(point)
        if len(pt) != self.ambient:
            raise ValueError("point has wrong dimension")
        if pt in self._index:
            return []
        if self.split_fn and (type(tag) is not int or tag < 0 or tag in self.tags):
            raise ValueError("a hull with a split_fn takes distinct non-negative int tags")
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
            return self._standard_insert(pt, tag)
        # The hull has just reached this dimension, so every facet is new.
        if self.dim == self.ambient and self.split_fn is None:
            return self._file_by_plane()
        return []

    def _file_by_plane(self):
        # The facet table, and the index that inserts keep from here: every
        # boundary simplex is fresh to empty tables.
        boundary = self.boundary
        for serial, bs in enumerate(boundary):
            bs.plane = self._bs_plane(bs)
            bs.serial = serial
        self._facets, self._on_plane = {}, {}
        self._serials = len(boundary)
        self._boundary = None
        open_ridges = {}  # ridge -> the first simplex on it, and its place
        for bs in boundary:
            verts = bs.verts
            bs.nbrs = [None] * len(verts)
            for j in range(len(verts)):
                other, i = open_ridges.setdefault(verts[:j] + verts[j + 1:], (bs, j))
                if other is not bs:
                    other.nbrs[i], bs.nbrs[j] = bs, other
        return self._refile((), boundary)

    def _dim_jump(self, pt, tag):
        vid = self._record(pt, tag)
        self._chart = sorted(self._pivots) + [-1]
        self.dim += 1
        if self._pending or self.dim == 1:
            # Jumps alone so far: one cell, built on first read.
            self.cells = [self.cells[0] + (vid,)]
            self._cell_keys = None
            self._pending = True
            return
        # Old points keep their old coordinates and get 0 in the new one, so
        # orient(T + (vid,)) is sigma times T's old sign, with sigma fixed
        # for this jump: one call gives sigma and every new sign follows.
        sigma = self._nonzero_orient(self.cells[0] + (vid,)) * self._signs[0]
        signs = [sigma * s for s in self._signs]
        keys = self._cell_keys or [self._key(cell) for cell in self.cells]
        new_boundary = [
            _BoundarySimplex(cell, vid, s, *kp)
            for cell, s, kp in zip(self.cells, signs, keys)
        ]
        tag = self.tags[vid]
        for bs in self._boundary:
            # (verts, vid, opp) is one swap from (verts, opp) + (vid,)
            nb = _BoundarySimplex(bs.verts + (vid,), bs.opp, -sigma * bs.inner_sign)
            if bs.key is not None:  # the new point's tag goes in last
                nb.key, nb.parity = _with_tag(bs.key, bs.parity, tag)
            new_boundary.append(nb)
        self.cells = [cell + (vid,) for cell in self.cells]
        self._signs = signs
        self._boundary = new_boundary
        self._cell_keys = None

    def _nonzero_orient(self, ids):
        s = self._orient(ids)
        if s == 0:
            raise InvariantViolation("boundary simplex with a flat witness")
        return s

    def _standard_insert(self, pt, tag):
        if self._pending:
            self._build()
        vid = self._record(pt, tag)
        filed = self._on_plane is not None
        if filed:
            # One dot product per facet plane, over the point's cleared row
            # (m.p, m): a = m.g(p) > 0 exactly when the point sees the plane.
            k = self.ambient
            h = self._hom[vid]
            x, m = h[:k], h[k]
            a_of = {
                plane: sum(map(mul, plane.normal, x)) - m * plane.offset
                for plane in self._on_plane
            }
            seen = [plane for plane, a in a_of.items() if a > 0]
            visible = [bs for plane in seen for bs in self._on_plane[plane]]
            visible.sort(key=attrgetter("serial"))
        else:
            split = self.split_fn and self.split_fn(self, vid)
            if split is not None:
                visible, keep = split
            else:
                keep, visible = [], []
                for bs in self._boundary:
                    if self._orient(bs.verts + (vid,)) == -bs.inner_sign:
                        visible.append(bs)
                    else:
                        keep.append(bs)
        if not visible:
            self._unrecord(vid)
            return []
        for bs in visible:
            self.cells.append(bs.verts + (vid,))
            self._signs.append(-bs.inner_sign)
        cell_keys = self._cell_keys
        if cell_keys is not None:
            tag = self.tags[vid]
            cell_keys.extend(_with_tag(bs.key, bs.parity, tag) for bs in visible)
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
        tags = self.tags
        tv = tags[vid]
        pencil = {}
        open_ridges = {}
        for ridge, info in ridge_info.items():
            if info is None:
                continue
            bs, j = info
            opp = bs.verts[j]
            # orient(verts + (vid,)) is -inner_sign, and (ridge, vid, opp)
            # is len(ridge) - j + 1 swaps from it.
            sign = bs.inner_sign
            nb = _BoundarySimplex(
                ridge + (vid,), opp, -sign if (len(ridge) - j) & 1 else sign
            )
            key = bs.key
            if key is not None:
                # opp's tag leaves from place j of verts and from above the
                # q tags below it: j + q swaps; vid's goes in as in _with_tag.
                low = 1 << tags[opp]
                sub = key ^ low
                swaps = j + (key & (low - 1)).bit_count() + (sub >> tv).bit_count()
                nb.key = sub | 1 << tv
                nb.parity = -bs.parity if swaps & 1 else bs.parity
            if filed:
                # The ridge's other simplex is kept and gives g2; nb takes
                # bs's place next to it and pairs up with the fresh simplices
                # on its ridges through vid.
                other = bs.nbrs[j]
                nb.plane = self._pencil_plane(bs.plane, other.plane, a_of, pencil)
                nb.nbrs = [None] * len(ridge) + [other]
                other.nbrs[other.nbrs.index(bs)] = nb
                t = len(ridge)  # no ridge through vid in ambient dimension 1
                for sub in combinations(ridge, t - 1) if t else ():
                    t -= 1
                    mate, i = open_ridges.setdefault(sub, (nb, t))
                    if mate is not nb:
                        mate.nbrs[i], nb.nbrs[t] = nb, mate
                nb.serial = self._serials
                self._serials += 1
            fresh.append(nb)
        if not filed:
            self._boundary = keep + fresh
            return []
        return self._refile(seen, fresh)

    def _pencil_plane(self, g1, g2, a_of, memo):
        """Outward plane through a horizon ridge of plane ``g1`` and the point.

        ``g2`` is the plane of the ridge's other boundary simplex, which the
        point must not see.  With g(x) = normal.x - offset and a = m.g(p)
        for the point's cleared row, the plane a1.g2 - a2.g1 vanishes on the
        ridge and at the point, and is at most 0 on the hull since a1 > 0 >=
        a2: the dual of the edge combination in ``outer.clip_halfspace``.
        When a2 = 0 it is g2 itself.  ``memo`` holds the planes made in this
        insert, by (g1, g2).
        """
        if a_of[g2] > 0:
            raise InvariantViolation("horizon ridge between two planes the point sees")
        plane = memo.get((g1, g2))
        if plane is None:
            a1, a2 = a_of[g1], a_of[g2]
            if a2 == 0:
                plane = g2
            else:
                normal = [a1 * y - a2 * x for x, y in zip(g1.normal, g2.normal)]
                offset = a1 * g2.offset - a2 * g1.offset
                plane = Hyperplane(*canonical_hyperplane(normal, offset))
            memo[g1, g2] = plane
        return plane

    def _refile(self, seen, fresh):
        # A plane the point sees loses every simplex on it; any other plane
        # keeps all of its own and gains the fresh ones on it (the point
        # lies on that plane).
        facets = self._facets
        on_plane = self._on_plane
        for plane in seen:
            del on_plane[plane]
            del facets[plane]
        grown = {}
        for nb in fresh:
            grown.setdefault(nb.plane, []).append(nb)
        added = []
        for plane, group in grown.items():
            ids = {u for nb in group for u in nb.verts}
            old = facets.get(plane)
            if old is None:
                added.append(plane)
                facets[plane] = frozenset(ids)
                on_plane[plane] = group
            else:
                facets[plane] = old | ids
                on_plane[plane].extend(group)
        return added

    # -- facets ----------------------------------------------------------------

    def _bs_plane(self, bs):
        """Outward plane of ``bs``: its cofactor plane, away from its witness."""
        hom = self._hom
        return _cofactor_plane([hom[v] for v in bs.verts], hom[bs.opp])

    def facet_map(self):
        """The facet table of a filed hull: {Hyperplane: frozenset of ids}.

        Each canonical hyperplane maps to the ids of the vertices of the
        boundary simplices on it, which may include points inside the
        facet.  Inserts keep the table current; it is the hull's own, and
        callers must not change it.  A hull below full dimension, or with a
        ``split_fn``, has none and raises ``DegenerateInput``.
        """
        if self._facets is None:
            raise DegenerateInput(
                "facets require a full-dimensional hull without a split_fn "
                "(dim %d of %d)" % (self.dim, self.ambient)
            )
        return self._facets

    # -- cloning ----------------------------------------------------------------

    def extended_clone(self, orient_fn=None, split_fn=None):
        """Clone into one more ambient coordinate (appended, set to 0).

        The triangulation, boundary, chart and vertex order carry over
        unchanged, and the keys too when the clone has a ``split_fn``; the
        clone can then take points whose new coordinate is nonzero, which
        raises its intrinsic dimension.  A hull made by jumps alone is built
        first.
        """
        out = TriangulatedHull(self.ambient + 1, orient_fn=orient_fn, split_fn=split_fn)
        out.points = [pt + (0,) for pt in self.points]
        out._hom = [h[:-1] + (0, h[-1]) for h in self._hom]
        out.tags = list(self.tags)
        out.dim = self.dim
        out._echelon = [row + (0,) for row in self._echelon]
        out._pivots = list(self._pivots)
        out._chart = list(self._chart)
        out.cells = list(self.cells)
        keyed = split_fn is not None  # only a hull with a split_fn keeps keys
        out._boundary = [
            _BoundarySimplex(bs.verts, bs.opp, bs.inner_sign, *((bs.key, bs.parity) if keyed else ()))
            for bs in self.boundary
        ]
        out._signs = list(self._signs)  # built by the read of boundary
        if keyed and self._cell_keys is not None:
            out._cell_keys = list(self._cell_keys)
        out._index = {pt: i for i, pt in enumerate(out.points)}
        return out


def _with_tag(key, parity, tag):
    """(key, parity) with ``tag`` put in: one flip per tag above it."""
    if (key >> tag).bit_count() & 1:
        parity = -parity
    return key | 1 << tag, parity


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


# -- volume ---------------------------------------------------------------------


def _cell_volume(rows):
    """dim! times the volume of the simplex with these homogeneous rows."""
    d = abs(det_bareiss(rows))
    m = prod(row[-1] for row in rows)
    return d if m == 1 else Fraction(d, m)


def hull_volume(hull):
    """Lattice-normalized volume: sum over cells of |det(edges)| / dim!.

    Full-dimensional hulls take one integer determinant per cell over the
    cleared homogeneous rows: det(m_i.p_i, m_i) is prod(m_i) times the
    determinant of the cell's edges.  The sum is kept on the hull and a call
    adds only the cells appended since the last one.  A lower-dimensional
    hull takes the volume of its points' ``lattice_hull``, so integer
    polytopes get their lattice-normalized volume and volume *ratios* of
    hulls sharing one space are parameterization-independent.  A single
    point has volume 1 by convention.  Rational points below full dimension
    raise ``ValueError``: their affine hull need not carry a lattice to
    normalize by.
    """
    k = hull.dim
    if k <= 0:
        return Fraction(1)
    hom = hull._hom
    if k < hull.ambient:
        if any(h[-1] != 1 for h in hom):
            raise ValueError(
                "hull_volume below full dimension needs integer points: the "
                "volume is normalized to the lattice of the affine hull"
            )
        return hull_volume(lattice_hull(hull.points)[0])
    total = hull._vol_sum
    for cell in hull.cells[hull._vol_cells:]:
        total += _cell_volume([hom[v] for v in cell])
    hull._vol_cells = len(hull.cells)
    hull._vol_sum = total
    return Fraction(total) / factorial(k)


def lattice_hull(points):
    """The hull of integer points over their own lattice, and its chart.

    The chart is p0 = min(points) plus a saturated basis of the differences,
    taken in the order given, so every integer point of the affine hull has
    integer coordinates and lattice volumes are kept.  The points are
    inserted in the order given, each tagged by itself; the hull is
    full-dimensional in the chart.  Returns (hull, chart).
    """
    pts = list(points)
    p0 = min(pts)
    diffs = [vec_sub(p, p0) for p in pts if p != p0]
    basis = saturated_basis(diffs, ambient_dim=len(p0))
    chart = AffineChart(p0, basis)
    hull = TriangulatedHull(len(basis))
    for p in pts:
        xi = chart.coords(p)
        if xi is None:
            raise InvariantViolation("point off the lattice of its own affine hull")
        hull.insert(xi, tag=p)
    if hull.dim != len(basis):
        raise InvariantViolation("hull does not span its chart")
    return hull, chart


# -- f-vector ---------------------------------------------------------------------


def f_vector(hull):
    """Face counts (f_0, ..., f_{dim-1}) from vertex-facet incidence.

    Faces are obtained by closing the facet vertex sets under intersection
    and grading by affine dimension.  Requires a full-dimensional hull (a
    single point gives (1,)).
    """
    if hull.dim == 0:
        return (1,)
    facet_sets = set(hull.facet_map().values())
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
        d = affine_dim([hull.points[i] for i in f])
        counts[d] += 1
    return tuple(counts)
