"""The vertex oracle: direction in, extreme exponent vector out.

Given a direction w in projection space, the oracle lifts the symbolic
Cayley columns by w, builds the placing triangulation refining the induced
upper regular subdivision, classifies mixed simplices, and sums their
volumes into the extreme exponent vector rho; the projection of rho is a
vertex of the projected polytope maximizing w.

One :class:`VertexOracle` per computation: it owns the minor cache, the
placement of the unlifted (non-symbolic) columns — the base, built once —
the per-direction memo (the used-normal set W), and the seeded insertion
orders that stand in for generic perturbation: one ``Random``, reseeded by
(seed, direction) on each query, so an order never depends on the queries
before it.  It also keeps a memo of mixed-cell classes (upper-facet mask
to mixed vertex column, or -1) that ``rho_vector`` reads and extends; a
class depends on the mask alone, and masks recur across queries.

One routine places columns, for the base (every lift 0) and for each query
after it.  Its hull is a ``TriangulatedHull`` in R^(2n+1) that orients over
its own integer chart and tags each point by its column, until it has
dimension 2n with the lift not a pivot of that chart (so that its chart's
determinants are the homogeneous minors h), or 2n+1.  From there on the
oracle goes on with the hull's own simplices, in geometry's format: the
boundary as (mask, q) pairs, q the orientation of the mask's sorted columns
followed by a point of the hull off its hyperplane, and at 2n the cells as
(mask, sign of h(mask)).  A column on the 2n-flat goes in by one
minor-cache batch and geometry's ``_place``; the first column off it cones
over the flat (``_cone``), each sign from the side of the flat the column
is on: the sign of its lift while the flat's lift is 0, else -s times the
lifted orientation of a cell (mask, s) of the flat followed by the column
(``MinorCache.lifted_sign``).  At 2n+1 a column goes in by one batch over
the lifted determinant and a cone over the horizon.  One more batch keeps
the upper facets, or every cell of a flat, each with the sign of its h,
and its minors are the volumes rho sums (``MinorCache.upper_facets``).

A query starts from a base's cells and pairs at 2n as they are.  With no
base (a full projection) it starts at 2n as the simplex on the first 2n+1
columns placed, when one ``MinorCache.hom_minor`` on their mask finds they
span.  Else a copy of the base is the query's rank pass: its ``insert``
records in order each column that raises the lifted rank, up to the
handoff, and refuses the others, which go in after them.  That order keeps
the triangulation (see the README), and reduces each column once.  A pass
that runs out below the handoff leaves no 2n+1 columns with h != 0, so the
query answers no simplex and places none of the refused columns.  The
predicates and volumes are read on masks the oracle built, so they skip
the public entries' checks.  A simplex is handed on as its column mask,
and blocks are classified by popcounts against per-block masks.
"""

from random import Random

from .exactlin import canonical_direction, int_vector
from .geometry import TriangulatedHull, _cone, _horizon_cone, _place, _simplex_facets
from .kernels import MinorCache

__all__ = [
    "VertexOracle",
    "lift_direction",
    "rho_vector",
]


def lift_direction(sys, w):
    """Lifting over all |A| columns: w_k at the k-th symbolic column, else 0."""
    w = int_vector(w, sys.m)
    lift = [0] * sys.num_columns
    for k, col in enumerate(sys.projection):
        lift[col] = w[k]
    return lift


def rho_vector(simplices, sys, volumes, classes):
    """Extreme exponent vector: rho(a) = sum of volumes of a-mixed simplices.

    ``simplices`` are column bitmasks and ``volumes`` their normalized
    volumes |h(mask)|, aligned with them, as ``triangulation`` returns
    them.  A simplex is i-mixed when it takes exactly one column from block
    i and exactly two from every other block; that single column is its
    mixed vertex, and each count is one popcount against a block's mask.
    ``classes`` memoizes the classes across calls on the same system: it
    maps a simplex to its mixed vertex column, or -1 when it is not mixed,
    and this call adds the simplices it lacks.
    """
    masks, n = sys.block_masks, sys.n
    rho = [0] * sys.num_columns
    for s, volume in zip(simplices, volumes):
        col = classes.get(s)
        if col is None:
            counts = [(s & bm).bit_count() for bm in masks]
            col = -1
            if counts.count(1) == 1 and counts.count(2) == n:
                col = (s & masks[counts.index(1)]).bit_length() - 1
            classes[s] = col
        if col >= 0:
            rho[col] += volume
    return tuple(rho)


class VertexOracle:
    """Oracle context: minor cache, base placement, direction memo.

    ``memo`` maps each canonical direction ever queried to its (projected
    point, full rho) answer; its key set is the used-normal set W — opposite
    directions are distinct members.  The non-symbolic (never lifted)
    columns are placed once, in input column order, into the base that
    every query starts from.  The symbolic columns are then placed in an
    order drawn from a PRNG seeded by (seed, direction), so reruns are
    reproducible and distinct directions decouple.
    """

    def __init__(self, sys, seed=0, use_cache=True):
        self.sys = sys
        self.seed = seed
        self.cache = MinorCache(sys.columns, use_cache=use_cache)
        self.memo = {}
        self.pipeline_runs = 0
        self._full = 2 * sys.n + 1  # columns in a full-dimensional Cayley simplex
        self._base = None  # the placed non-symbolic columns, on first use
        self._rng = Random()  # reseeded by (seed, direction) per query
        self._classes = {}  # simplex mask -> mixed vertex column, or -1

    # -- triangulation pipeline -------------------------------------------------

    def _advance(self, state, cols, lift):
        """The placement state once ``cols``, lifted by ``lift``, go in in order.

        A state is a ``TriangulatedHull``, which takes the columns in place,
        (cells, pairs) at dimension 2n, or pairs at 2n+1: the three stages
        of the module docstring.
        """
        sys, cache, full = self.sys, self.cache, self._full
        cols = iter(cols)
        if isinstance(state, TriangulatedHull):
            while not self._handoff(state):
                col = next(cols, None)
                if col is None:
                    return state
                state.place(sys.columns[col] + (lift[col],), tag=col)
            state = state.boundary if state.dim == full else (state.cells, state.boundary)
        lift_mask = sum(1 << c for c, x in enumerate(lift) if x)
        if type(state) is tuple:
            cells, pairs = state
            # The side of the flat a column is on: its lift while the flat's
            # is 0, else -s times the lifted orientation of the flat's first
            # cell (mask, s) followed by the column, since the lift row less
            # the flat's lift is nonzero at that column alone.  That cell
            # spans the flat, which is tilted when a column of it is.
            mask, s = cells[0]
            tilted = mask & lift_mask
            for col in cols:
                up = -s * cache.lifted_sign(mask, col, lift) if tilted else lift[col]
                if up:
                    # Putting col last multiplies h by -sign(up).
                    state = _cone(cells, pairs, col, -1 if up > 0 else 1)
                    break
                visible, keep = cache.split_boundary(pairs, col)
                if visible:
                    cells, pairs = _place(cells, visible, keep, col)
            else:
                return cells, pairs
        for col in cols:
            visible, keep = cache.split_lifted(state, col, lift, lift_mask)
            if visible:
                state = keep + _horizon_cone(visible, col)
        return state

    def _handoff(self, hull):
        """Whether ``hull`` is at the handoff: 2n+1, or 2n with the lift no pivot."""
        full = self._full
        return hull.dim == full or hull.dim == full - 1 and full - 1 not in hull._pivots

    def triangulation(self, w):
        """Placing triangulation refining the upper subdivision lifted by w.

        Returns (simplices, volumes): the upper simplices as column bitmasks
        (bit c for column c) and their normalized volumes |h(mask)|, aligned
        with them.  They are the upper facets when the lifted hull is
        full-dimensional, the cells when it is a 2n-flat, and none when the
        columns do not span 2n.  ``w`` must already be canonical.

        The symbolic columns go in after the base, as the module docstring
        says; no query changes the base.
        """
        sys, full = self.sys, self._full
        lift = lift_direction(sys, w)
        order = list(sys.projection)
        self._rng.seed(f"{self.seed}|{tuple(w)}")
        self._rng.shuffle(order)
        if self._base is None:
            empty = TriangulatedHull(full)
            self._base = self._advance(empty, sys.specialized, [0] * sys.num_columns)
        state = self._base
        if isinstance(state, TriangulatedHull):
            # With no base, start at 2n from a spanning head.
            head = sorted(order[:full]) if state.dim == -1 else ()
            mask = sum(1 << c for c in head)
            h = len(head) == full and self.cache.hom_minor(mask)
            if h:
                s = 1 if h > 0 else -1
                state, order = ([(mask, s)], _simplex_facets(head, s)), order[full:]
            else:
                # The rank pass: the copy records the rank-raising columns.
                state, rest, refused = state.copy(), iter(order), []
                for col in rest:
                    if not state.insert(sys.columns[col] + (lift[col],), tag=col):
                        refused.append(col)
                    elif self._handoff(state):
                        break
                else:
                    return [], []  # short of 2n: no simplex adds to rho
                order = refused + list(rest)
        state = self._advance(state, order, lift)
        # The pairs at 2n+1, else the cells of the flat, each (mask, sign h).
        return self.cache.upper_facets(state if type(state) is list else state[0])

    # -- oracle calls --------------------------------------------------------------

    def vtx(self, w):
        """Vertex of the projected polytope extreme in the integer direction w.

        Returns (projected point, full rho vector); memoized per canonical
        direction (the memo key set is W).  Raises ``InvalidDirection`` on
        the zero vector and ``ValueError`` on an entry that is not an
        ``int`` (``canonical_direction``).
        """
        key = canonical_direction(w)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.pipeline_runs += 1
        simplices, volumes = self.triangulation(key)
        rho = rho_vector(simplices, self.sys, volumes, self._classes)
        point = tuple(rho[c] for c in self.sys.projection)
        answer = (point, rho)
        self.memo[key] = answer
        return answer

