"""The outer polytope of approx mode, as a double description.

``OuterPolytope`` keeps a full-dimensional polytope as its vertices, each a
primitive integer homogeneous row, together with the ids of the constraints
tight at each vertex (Fukuda & Prodon's double description method).
``clip_halfspace`` cuts it down by one halfspace: the cut points come from
one integer combination of an edge's two rows, and edges are recognized
from the tight sets alone.  The volume is taken on first read, by a pulling
triangulation built from the tight sets (``geometry._pulling_volume``, which
Q's volume does not use), and kept.  A clip of a polytope whose volume
has been read updates it from the smaller side of the cut; a clip of one
whose volume has not leaves its own unread too.

All arithmetic is exact and runs on integers: a vertex is a primitive
integer row (a, d), d > 0, and a cut a ``Hyperplane`` of ``int``s, each of
its length (``exactlin.int_vector``).
"""

from fractions import Fraction

from .errors import DegenerateInput, EmptyIntersection
from .exactlin import dot, int_vector, primitive
from .geometry import _pulling_volume, _simplex_planes

__all__ = ["OuterPolytope", "clip_halfspace"]


def _vertex_masks(tight):
    """Constraint id -> bit mask of the vertices tight at it."""
    masks = {}
    for i, ts in enumerate(tight):
        bit = 1 << i
        for c in ts:
            masks[c] = masks.get(c, 0) | bit
    return masks


def _constraint_row(plane, k):
    """Primitive integer row g with g.(d.x, d) of the sign of normal.x - offset.

    Raises ``ValueError`` unless the normal is k ``int``s and the offset one.
    """
    return primitive(int_vector((*plane.normal, -plane.offset), k + 1))


class OuterPolytope:
    """A full-dimensional polytope as a double description.

    ``rows`` are the vertices as primitive integer homogeneous rows (a, d)
    with d > 0, standing for a/d.  ``constraints`` holds every halfspace
    {x : normal.x <= offset} that shaped the polytope, as ``Hyperplane``s,
    indexed by id; the polytope is their intersection, and they include
    all its facets.  ``tight[i]`` is the frozenset of ids of the
    constraints whose hyperplane contains vertex i.  ``volume`` is exact,
    taken on first read unless given.
    """

    __slots__ = ("dim", "rows", "tight", "constraints", "_volume")

    def __init__(self, dim, rows, tight, constraints, volume=None):
        self.dim = dim
        self.rows = rows
        self.tight = tight
        self.constraints = constraints
        self._volume = volume

    @property
    def volume(self):
        if self._volume is None:
            sets = _vertex_masks(self.tight).values()
            self._volume = _pulling_volume(self.dim, self.rows, sets)
        return self._volume

    @classmethod
    def simplex(cls, rows):
        """The simplex on dim + 1 affinely independent vertices.

        ``rows`` are the vertices in the polytope's own format, primitive
        integer homogeneous rows (a, d), d > 0.  The facet opposite vertex
        i gets id i, so vertex i is tight at every constraint but its own.
        Raises ``ValueError`` unless there are k + 1 rows of k + 1 ``int``s,
        each with d > 0, and ``InvariantViolation`` when the vertices are
        affinely dependent.
        """
        rows = [int_vector(row, len(rows)) for row in rows]
        if not rows or min(row[-1] for row in rows) <= 0:
            raise ValueError("a simplex needs rows (a, d) with d > 0")
        k = len(rows) - 1
        if k == 0:
            return cls(0, rows, [frozenset()], [], Fraction(1))
        constraints = _simplex_planes(rows)
        everything = frozenset(range(k + 1))
        tight = [everything - {i} for i in range(k + 1)]
        return cls(k, rows, tight, constraints)


def clip_halfspace(outer, plane):
    """Intersect an ``OuterPolytope`` with {x : normal.x <= offset}.

    Returns the same object when nothing is strictly outside; raises
    ``EmptyIntersection`` when everything is strictly outside.  Otherwise
    returns a new polytope: the vertices not strictly outside, plus the
    point where the plane crosses each edge from a strictly inside vertex u
    to a strictly outside vertex v.  They span an edge exactly when no third
    vertex is tight at every constraint tight at both.  When ``outer``'s
    volume has been read, the result's is updated by triangulating the
    smaller side of the cut only; otherwise it is left to its first read.
    """
    g = _constraint_row(plane, outer.dim)
    rows, tight = outer.rows, outer.tight
    vals = [dot(g, h) for h in rows]
    inside = [i for i, v in enumerate(vals) if v < 0]
    outside = [i for i, v in enumerate(vals) if v > 0]
    if not outside:
        return outer
    if not inside:
        if len(outside) == len(rows):
            raise EmptyIntersection("polytope lies strictly outside the halfspace")
        raise DegenerateInput("halfspace leaves a lower-dimensional intersection")
    on_plane = [i for i, v in enumerate(vals) if v == 0]
    cid = len(outer.constraints)
    tight_at = _vertex_masks(tight)
    everyone = (1 << len(rows)) - 1
    need = outer.dim - 1
    cut_rows, cut_tight = [], []
    for u in inside:
        hu, gu, tu = rows[u], vals[u], tight[u]
        for v in outside:
            common = tu & tight[v]
            if len(common) < need:
                continue
            shared = everyone
            for c in common:
                shared &= tight_at[c]
            if shared != (1 << u) | (1 << v):
                continue
            gv = vals[v]
            cut_rows.append(primitive([gv * a - gu * b for a, b in zip(hu, rows[v])]))
            cut_tight.append(common | {cid})
    on_tight = [tight[i] | {cid} for i in on_plane]
    new_rows = [rows[i] for i in inside] + [rows[i] for i in on_plane] + cut_rows
    new_tight = [tight[i] for i in inside] + on_tight + cut_tight
    if outer._volume is None:
        volume = None
    elif len(outside) < len(inside):
        cap_rows = [rows[i] for i in outside] + new_rows[len(inside):]
        cap_tight = [tight[i] for i in outside] + new_tight[len(inside):]
        cap_sets = _vertex_masks(cap_tight).values()
        volume = outer.volume - _pulling_volume(outer.dim, cap_rows, cap_sets)
    else:
        new_sets = _vertex_masks(new_tight).values()
        volume = _pulling_volume(outer.dim, new_rows, new_sets)
    return OuterPolytope(
        outer.dim, new_rows, new_tight, outer.constraints + [plane], volume
    )
