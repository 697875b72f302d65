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

Below full dimension the hulls test a whole boundary against a new point
in one minor-cache batch over the simplices' column bitmasks, which the
hulls keep.  Once the lifted hull has dimension 2n+1 it is kept as its
boundary's (mask, q) pairs alone, q the orientation of the mask's sorted
columns followed by the simplex's witness: a column goes in by one batch
and a cone over the horizon, and the upper facets come from one more
batch, whose minors are the volumes rho sums.  The hull starts there as a
simplex when no column is unlifted, and as a cone memoized per (column,
sign of its lift) when the unlifted columns span dimension 2n.  A simplex
is handed on as its column mask, and blocks are classified by popcounts
against per-block masks.
"""

from random import Random

from .exactlin import MinorCache, canonical_direction, clear_denominators
from .geometry import TriangulatedHull
from .kernels import mask_with_parity

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
        self._cones = {}  # (column, its lift > 0) -> pairs of its cone over the base

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
        # Every visibility test of a standard insert at dimension 2n, as one
        # batch.  A hull is handed on as pairs once it is full-dimensional.
        if hull.dim == self._full - 1 and self._full - 1 not in hull._pivots:
            return self.cache.split_boundary(hull.boundary, hull.tags[vid])
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

    def _grow(self, order):
        # The lifted clone of the base hull, given the columns of order one
        # by one until it is full-dimensional: (hull, columns given).
        hull = self._base_hull().extended_clone(
            orient_fn=self._orient, split_fn=self._split
        )
        given = 0
        for col in order:
            hull.insert(self.sys.columns[col] + (self._lift[col],), tag=col)
            given += 1
            if hull.dim == self._full:
                break
        return hull, given

    def _simplex(self, head):
        # With no base: the facets of the lifted simplex on the 2n+2 columns
        # of head, or None when they do not span.  Facet x (the mask less x)
        # has x for its witness: moving x from its sorted place to the end
        # passes the columns above it.
        lift = self._lift
        if len(head) <= self._full or not any(lift[c] for c in head):
            return None
        s = self.cache.orientation(head, [lift[c] for c in head])
        if not s:
            return None
        cols, parity = mask_with_parity(head)
        s *= parity  # the orientation of the sorted columns
        pairs = []
        for x in head:
            facet = cols ^ 1 << x
            pairs.append((facet, -s if (facet >> x).bit_count() & 1 else s))
        return pairs

    def _cone(self, col):
        # With a base of dimension 2n and a lifted first column: the cone
        # from it over the base.  Every base point has lift 0, so the cone
        # depends on the column and the sign of its lift alone.
        key = (col, self._lift[col] > 0)
        pairs = self._cones.get(key)
        if pairs is None:
            hull, _ = self._grow([col])
            pairs = self._cones[key] = _pairs(hull.boundary)
        return pairs

    def triangulation(self, w):
        """Placing triangulation refining the upper subdivision lifted by w.

        Returns (simplices, volumes): the simplices as column bitmasks (bit
        c for column c), the upper facets when the lifted hull is
        full-dimensional, and then their normalized volumes too, aligned with
        them (else None).  ``w`` must already be canonical.

        Once full-dimensional, the hull is kept as its boundary's (mask, q)
        pairs, and each later column goes in by one ``split_lifted`` batch
        and a cone over the horizon.  It gets there in one step from the
        simplex on the first 2n+2 columns when there is no base, or from a
        memoized cone when the base has dimension 2n; otherwise the clone of
        the base hull grows until it does.
        """
        sys = self.sys
        self._lift = lift = lift_direction(sys, w)
        order = list(sys.projection)
        Random(f"{self.seed}|{tuple(w)}").shuffle(order)
        base = self._base_hull()
        pairs = None
        if base.dim == -1:
            placed = self._full + 1
            pairs = self._simplex(order[:placed])
        elif base.dim == self._full - 1 and lift[order[0]]:
            placed = 1
            pairs = self._cone(order[0])
        if pairs is None:
            hull, placed = self._grow(order)
            if hull.dim < self._full:
                # Every column is in; the hull's cells are the answer.
                self._lift = None
                tags = hull.tags
                return [sum(1 << tags[i] for i in cell) for cell in hull.cells], None
            pairs = _pairs(hull.boundary)  # a read that may orient
        cache = self.cache
        lift_mask = sum(1 << c for c in order if lift[c])
        for col in order[placed:]:
            visible, keep = cache.split_lifted(pairs, col, lift, lift_mask)
            if visible:
                pairs = keep + _horizon_cone(visible, col)
        self._lift = None
        # The upper facets, with the minors h(mask) that found them.
        return cache.upper_facets(pairs)

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


def _pairs(boundary):
    """(mask, q) of each simplex of a full-dimensional lifted boundary.

    q, the orientation of the mask's sorted columns followed by the
    witness, is the simplex's inner sign times its sort parity.
    """
    return [(bs.key, bs.inner_sign * bs.parity) for bs in boundary]


def _horizon_cone(visible, col):
    """The (mask, q) pairs of the new facets through column ``col``.

    Each ridge R = mask - {x} of exactly one visible pair is on the horizon
    and gives the facet R | col with witness x.  From q = -orient(mask
    sorted, col): swapping col and x, then moving each into sorted place,
    gives q times (-1)^(#R above x + #R above col).
    """
    ridges = {}
    for mask, q in visible:
        m = mask
        while m:
            low = m & -m
            m ^= low
            ridge = mask ^ low
            # A ridge of two visible facets is inside the new hull.
            ridges[ridge] = None if ridge in ridges else (low.bit_length() - 1, q)
    bit = 1 << col
    fresh = []
    for ridge, info in ridges.items():
        if info is not None:
            x, q = info
            if ((ridge >> x).bit_count() + (ridge >> col).bit_count()) & 1:
                q = -q
            fresh.append((ridge | bit, q))
    return fresh


def vtx(sys, w, seed=0):
    """One-shot oracle call (fresh context); see VertexOracle.vtx."""
    return VertexOracle(sys, seed=seed).vtx(w)

