"""The vertex oracle: direction in, extreme exponent vector out.

Given a direction w in projection space, the oracle lifts the symbolic
Cayley columns by w, builds the placing triangulation refining the induced
upper regular subdivision, classifies mixed simplices, and sums their
volumes into the extreme exponent vector rho; the projection of rho is a
vertex of the projected polytope maximizing w.

One :class:`VertexOracle` per computation: it owns the minor cache, the
cached placing triangulation of the unlifted (non-symbolic) columns — built
once and cloned per call — the per-direction memo (the used-normal set W),
and the seeded insertion orders that stand in for generic perturbation.

Both hulls test a whole boundary against a new point in one minor-cache
batch over the simplices' column bitmasks, which the hulls keep; the upper
facets come from one more batch, whose minors are the volumes rho sums.
A simplex is handed on as its column mask, and blocks are classified by
popcounts against per-block masks.
"""

from random import Random

from .exactlin import MinorCache, canonical_direction, clear_denominators
from .geometry import TriangulatedHull

__all__ = [
    "VertexOracle",
    "canonical",
    "lift_direction",
    "mixed_cells",
    "rho_vector",
    "vtx",
]


def canonical(w):
    """Canonical integer form of a rational direction (orientation kept)."""
    return canonical_direction(clear_denominators(w))


def lift_direction(sys, w):
    """Lifting over all |A| columns: w_k at the k-th symbolic column, else 0."""
    if len(w) != sys.m:
        raise ValueError("direction must have length m = %d" % sys.m)
    lift = [0] * sys.num_columns
    for k, col in enumerate(sys.projection):
        lift[col] = w[k]
    return lift


def mixed_cells(simplices, sys):
    """Classify each simplex: (block, vertex column) if mixed, else None.

    A simplex is a column bitmask (bit c for column c).  It is i-mixed when
    it takes exactly one column from block i and exactly two from every
    other block; the single block-i column is the associated mixed-cell
    vertex.  Each count is one popcount against a block's mask.
    """
    masks = [sum(1 << c for c in ids) for ids in sys.blocks]
    out = []
    for simplex in simplices:
        counts = [(simplex & bm).bit_count() for bm in masks]
        if counts.count(1) == 1 and counts.count(2) == sys.n:
            block = counts.index(1)
            out.append((block, (simplex & masks[block]).bit_length() - 1))
        else:
            out.append(None)
    return out


def rho_vector(simplices, sys, cache, volumes=None):
    """Extreme exponent vector: rho(a) = sum of volumes of a-mixed simplices.

    ``simplices`` are column bitmasks.  ``volumes`` (aligned with them, as
    ``triangulation`` returns them) saves reading each volume from
    ``cache``.
    """
    rho = [0] * sys.num_columns
    for i, cls in enumerate(mixed_cells(simplices, sys)):
        if cls is not None and volumes is None:
            s = simplices[i]
            rho[cls[1]] += cache.volume_predicate([c for c in range(s.bit_length()) if s >> c & 1])
        elif cls is not None:
            rho[cls[1]] += volumes[i]
    return tuple(rho)


class VertexOracle:
    """Oracle context: minor cache, cached base triangulation, direction memo.

    ``memo`` maps each canonical direction ever queried to its (projected
    point, full rho) answer; its key set is the used-normal set W — opposite
    directions are distinct members.  The placing hull of the non-symbolic
    (never lifted) columns is built once, in input column order, and cloned
    into the lifted space for every query; the symbolic columns are then
    placed in an order drawn from a PRNG seeded by (seed, direction), so
    reruns are reproducible and distinct directions decouple.
    """

    def __init__(self, sys, seed=0, use_cache=True):
        self.sys = sys
        self.seed = seed
        self.cache = MinorCache(sys.columns, use_cache=use_cache)
        self.memo = {}
        self.pipeline_runs = 0
        self._t0 = None
        self._full = 2 * sys.n + 1  # columns in a full-dimensional Cayley simplex
        self._lift = None  # the lifting over all columns, while a hull is built
        self._lift_mask = 0  # the columns whose lift is nonzero, with it

    # -- predicate routing ----------------------------------------------------
    # At dimension 2n with the lift coordinate (index 2n) not a pivot, the
    # pivots are 0..2n-1 and the hull's chart is [0..2n-1, -1]: its
    # determinant is the homogeneous minor of the unlifted columns in the
    # given order, the same sign and not merely up to a factor.  At
    # dimension 2n+1 it is the lifted determinant.  Otherwise the hull takes
    # its own determinant.

    def _orient(self, hull, ids):
        # One orientation, such as a dimension jump's.
        if len(ids) == self._full + 1:
            cols = [hull.tags[i] for i in ids]
            return self.cache.orientation(cols, [self._lift[c] for c in cols])
        if len(ids) == self._full and self._full - 1 not in hull._pivots:
            return self.cache.hom_sign([hull.tags[i] for i in ids])
        return None

    def _split(self, hull, vid):
        # Every visibility test of a standard insert, as one batch.
        col = hull.tags[vid]
        if hull.dim == self._full:
            return self.cache.split_boundary(hull.boundary, col, self._lift, self._lift_mask)
        if hull.dim == self._full - 1 and self._full - 1 not in hull._pivots:
            return self.cache.split_boundary(hull.boundary, col)
        return None

    # -- triangulation pipeline -------------------------------------------------

    def _base_hull(self):
        if self._t0 is None:
            hull = TriangulatedHull(
                2 * self.sys.n, orient_fn=self._orient, split_fn=self._split
            )
            for col in range(self.sys.num_columns):
                if not self.sys.is_symbolic(col):
                    hull.insert(self.sys.columns[col], tag=col)
            # Keyed once for every clone's jump (and built while split_fn
            # is set).
            hull.key_cells()
            # The base hull is only cloned from now on; dropping its bound
            # methods keeps the oracle free of a reference cycle, so an
            # oracle is freed as soon as its last user lets go of it.
            hull.orient_fn = hull.split_fn = None
            self._t0 = hull
        return self._t0

    def triangulation(self, w):
        """Placing triangulation refining the upper subdivision lifted by w.

        Returns (simplices, volumes): the simplices as column bitmasks (bit
        c for column c), the upper facets when the lifted hull is
        full-dimensional, and then their normalized volumes too, aligned with
        them (else None).  ``w`` must already be canonical.
        """
        sys = self.sys
        self._lift = lift = lift_direction(sys, w)
        self._lift_mask = sum(1 << c for c, x in zip(sys.projection, w) if x)
        hull = self._base_hull().extended_clone(
            orient_fn=self._orient, split_fn=self._split
        )
        order = list(sys.projection)
        Random(f"{self.seed}|{tuple(w)}").shuffle(order)
        for col in order:
            hull.insert(sys.columns[col] + (lift[col],), tag=col)
        if hull.dim == self._full:
            # The upper facets, with the minors h(verts) that found them
            # (a read that may orient, so before the lift goes).
            out = self.cache.upper_facets(hull.boundary)
        else:
            tags = hull.tags
            out = [sum(1 << tags[i] for i in cell) for cell in hull.cells], None
        self._lift = None
        return out

    # -- oracle calls --------------------------------------------------------------

    def vtx(self, w):
        """Vertex of the projected polytope extreme in direction w.

        Returns (projected point, full rho vector); memoized per canonical
        direction (the memo key set is W).
        """
        key = canonical(w)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.pipeline_runs += 1
        simplices, volumes = self.triangulation(key)
        rho = rho_vector(simplices, self.sys, self.cache, volumes)
        point = tuple(rho[c] for c in self.sys.projection)
        answer = (point, rho)
        self.memo[key] = answer
        return answer


def vtx(sys, w, seed=0):
    """One-shot oracle call (fresh context); see VertexOracle.vtx."""
    return VertexOracle(sys, seed=seed).vtx(w)

