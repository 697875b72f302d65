"""Shared helpers for the test suite."""

import math
from fractions import Fraction

from reference import ref_det
from resnewt.cayley import _apply_projection, build_cayley
from resnewt.geometry import TriangulatedHull


def family_from(n, supports, mode, pairs=()):
    """Build a SupportFamily from raw supports and a projection mode."""
    sup = [[tuple(p) for p in s] for s in supports]
    return _apply_projection(n, sup, mode, list(pairs))


def system_from(n, supports, mode, pairs=()):
    """Build a CayleySystem straight from raw supports (no preprocessing)."""
    return build_cayley(family_from(n, supports, mode, pairs))


def cells_volume(points):
    """The volume of the hull of full-dimensional points, summed over the
    cells of a placing triangulation, each |det(edges)| / d! by ``ref_det``.

    A reference that shares no code with the pulling triangulation behind
    ``hull_volume`` and ``OuterPolytope.volume``.  Rational points are
    triangulated scaled by their common denominator, which keeps the cells.
    """
    d = len(points[0])
    den = math.lcm(*(Fraction(x).denominator for p in points for x in p))
    plain = TriangulatedHull(d)
    for i, p in enumerate(points):
        plain.place(tuple(int(x * den) for x in p), tag=i)
    total = 0
    for mask, _ in plain.cells:
        cell = [p for i, p in enumerate(points) if mask >> i & 1]
        total += abs(ref_det([[a - b for a, b in zip(p, cell[0])] for p in cell[1:]]))
    return Fraction(total) / math.factorial(d)
