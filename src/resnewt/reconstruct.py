"""Incremental reconstruction of the projected polytope from vertex queries.

The polytope is recovered output-sensitively: an initialization phase finds
its affine hull (recording every certified equation), then a Beneath-and-
Beyond loop grows an inner approximation Q inside that affine hull.  Each
facet of Q is either *legal* — certified to support the target polytope — or
awaiting a test query in its outward normal direction.  A query either
certifies the facet or supplies a new vertex strictly beyond it.  When the
queue empties, Q equals the target.  Every query also yields an outer
halfspace, so a sandwich Q <= target <= Q_o is available at all times; the
approximation mode stops as soon as vol(Q)/vol(Q_o) reaches a threshold.
"""

from collections import deque
from fractions import Fraction
from random import Random
from typing import NamedTuple

from .errors import InvariantViolation
from .exactlin import (
    canonical_direction,
    canonical_hyperplane,
    dot,
    echelon_extend,
    echelon_reduce,
    integer_kernel,
    primitive,
    rank_int,
    vec_sub,
)
from .geometry import hull_volume, lattice_hull
from .oracle import VertexOracle
from .outer import OuterPolytope, clip_halfspace

__all__ = [
    "BuildState",
    "SandwichReport",
    "initialize",
    "compute_pi",
    "compute_pi_approx",
    "compute_pi_random",
    "stats",
]


class BuildState:
    """Everything the reconstruction loop maintains.

    ``hull`` is Q, kept in exact integer intrinsic coordinates: a point x of
    the target satisfies x = p0 + B.xi over the lattice ``chart`` p0 + Z.B,
    with B a saturated basis, so xi runs over a full-dimensional lattice
    polytope.  ``illegal`` holds hyperplanes (in xi-space) still awaiting
    their test query, each once; a certified facet's certificate is the
    oracle's memo answer for its pullback direction.  ``charted`` keeps each
    point's intrinsic coordinates once found, from Q's seed points on, and
    ``pulled`` each plane normal's pullback.
    """

    def __init__(self, oracle, chart, equations, hull, init_calls=0):
        self.oracle = oracle
        self.chart = chart
        self.equations = equations
        self.hull = hull
        self.illegal = deque()
        self.init_calls = init_calls
        self.charted = {}
        self.pulled = {}

    @property
    def dim(self):
        return self.hull.dim

    @property
    def m(self):
        return self.oracle.sys.m

    def vertices(self):
        """Vertices found so far, in original coordinates, lexicographic."""
        return sorted(self.hull.tags)

    def xi_of(self, x):
        """Intrinsic coordinates of a point of the target's affine hull.

        Raises ``InvariantViolation`` when x is off the certified affine
        hull or off its lattice; only points that have coordinates are kept.
        """
        xi = self.charted.get(x)
        if xi is None:
            xi = self.chart.coords(x)
            if xi is None:
                raise InvariantViolation("point off the certified affine hull or its lattice")
            self.charted[x] = xi
        return xi

    def pullback(self, normal):
        """Direction in original coordinates acting on xi as ``normal``.

        The solution w = B.(B^T B)^{-1}.normal of B^T w = normal within the
        column space of B is a positive multiple of B.adj(B^T B).normal
        (det(B^T B) > 0), so the canonical integer form of the latter is
        taken; it acts on xi as a positive multiple of ``normal``, so facet
        comparisons transfer exactly.
        """
        w = self.pulled.get(normal)
        if w is None:
            pull = self.chart.pull
            w = self.pulled[normal] = canonical_direction([dot(row, normal) for row in pull])
        return w

    def facets_x(self):
        """Current facets as (normal, offset) in original coordinates."""
        out = []
        for plane, mask in self.hull.facet_map().items():
            w = self.pullback(plane.normal)
            out.append((w, dot(w, self.hull.tags[(mask & -mask).bit_length() - 1])))
        return sorted(out)


class SandwichReport(NamedTuple):
    """Certified volume sandwich vol(Q) <= vol(target) <= vol(Q_o).

    ``outer`` is Q_o in xi-space: its vertices and the certified
    constraints it is the intersection of.
    """

    inner_volume: Fraction
    outer_volume: Fraction
    ratio: Fraction
    threshold: Fraction
    reached: bool
    outer: OuterPolytope


def _equation_rank(sys):
    """How many independent equations M.rho = M.rho0 gives the projection."""
    specialized = [[row[c] for c in sys.specialized] for row in sys.M]
    return rank_int(sys.M) - rank_int(specialized)


def initialize(sys, seed=0, use_cache=True, *, query_equations=False):
    """Find the affine hull of the target and a full-dimensional seed Q.

    Queries the 2m coordinate directions, then repeatedly picks an integer
    direction w orthogonal to the points found so far and independent of the
    equations already certified: a vector of the points' integer kernel,
    taken once per point set, whose size is m minus their rank.  A round
    asks w, then -w.  If the two answers differ, the points' rank grew;
    otherwise w is an equation through the points found, recorded with its
    first nonzero entry positive.  So in at most m rounds the kernel holds
    as many vectors as there are equations.  The points found are the
    oracle memo's distinct answers, and Q is seeded with all of them.

    The target has at most m - ``_equation_rank`` dimensions.  Once the
    points found span that many, every round is an equation, so its two
    queries are skipped; that rank certificate changes nothing else.
    ``compute_pi_approx`` sets ``query_equations``: its Q and outer bound
    start from those answers.
    """
    ctx = VertexOracle(sys, seed=seed, use_cache=use_cache)
    m = sys.m
    for i in range(m):
        e = tuple(1 if j == i else 0 for j in range(m))
        ctx.vtx(e)
        ctx.vtx(tuple(-x for x in e))

    eq_rows, eq_pivots = [], []  # an echelon of the certified normals
    equations = []
    # Taken at the first round, which many instances never reach; -1, a size
    # no kernel has, when the equations are queried.
    eq_rank = None
    known = 0  # the number of points the kernel was taken over
    while True:
        pts = _answers(ctx)
        if len(pts) != known:
            known = len(pts)
            kernel = integer_kernel([vec_sub(p, pts[0]) for p in pts[1:]], m)
        if len(kernel) == len(eq_rows):
            break
        w = next(cand for cand in kernel if any(echelon_reduce(cand, eq_rows, eq_pivots)))
        w = canonical_direction(w)
        if eq_rank is None:
            eq_rank = -1 if query_equations else _equation_rank(sys)
        if len(kernel) != eq_rank and (
            dot(w, ctx.vtx(w)[0]) != dot(w, ctx.vtx(tuple(-x for x in w))[0])
        ):
            continue  # the two answers differ: the points' rank grew
        if next(x for x in w if x) < 0:
            w = tuple(-x for x in w)  # only the leading sign is left to fix
        echelon_extend(list(w), eq_rows, eq_pivots)
        equations.append((w, dot(w, pts[0])))

    state = _seeded_state(ctx, equations)
    _enqueue(state, state.hull.facet_map())
    return state


def _answers(ctx):
    """The oracle's distinct answer points, in the order first given."""
    return list(dict.fromkeys(p for p, _ in ctx.memo.values()))


def _seeded_state(ctx, equations):
    """The ``BuildState`` whose Q is the ``lattice_hull`` of every answer so far.

    The coordinates ``lattice_hull`` found for Q's points are kept.
    """
    hull, chart = lattice_hull(_answers(ctx))
    state = BuildState(ctx, chart, equations, hull, init_calls=ctx.pipeline_runs)
    state.charted.update(zip(hull.tags, hull.points))
    return state


def _enqueue(state, added):
    # An insert reports only planes absent from Q's facet table, and a plane
    # the new point sees never supports Q again: no plane comes twice, and
    # none is legal before its pop.
    state.illegal.extend(sorted(added))


def _process(state, on_call=None):
    """Drain the illegal queue; returns True iff it emptied (Q = target).

    Every live facet popped is queried in its pullback direction.  A
    direction asked before (a parallel facet's) is answered by the oracle's
    memo, running no pipeline: that answer lies on this facet's hyperplane
    and is already in Q, so the facet is certified and Q does not change.
    ``on_call(w, v)`` is invoked after each answer once Q has been updated;
    returning True stops the loop early (approximation mode).
    """
    vtx = state.oracle.vtx
    while state.illegal:
        key = state.illegal.popleft()
        if key not in state.hull.facet_map():
            continue  # facet destroyed while it waited
        w = state.pullback(key.normal)
        v, _ = vtx(w)
        xi_v = state.xi_of(v)
        val = dot(key.normal, xi_v)
        if val < key.offset:
            raise InvariantViolation("oracle answer fell below a facet of Q")
        _enqueue(state, state.hull.insert(xi_v, tag=v))
        if on_call is not None and on_call(w, v):
            return False
    return True


def compute_pi(sys, seed=0, use_cache=True):
    """Exact reconstruction: returns the final state with Q = target."""
    state = initialize(sys, seed=seed, use_cache=use_cache)
    _process(state)
    return state


def _outer_constraint(state, w, point):
    """The halfspace (in xi) certified by the oracle answer for w.

    Returns None when the direction is constant on the target's affine hull
    (an equation direction): its constraint is trivially true in xi-space.
    """
    chart = state.chart
    normal = tuple(dot(b, w) for b in chart.basis)
    if all(a == 0 for a in normal):
        return None
    return canonical_hyperplane(normal, dot(w, vec_sub(point, chart.p0)))


def compute_pi_approx(sys, threshold, seed=0, use_cache=True):
    """Stop once vol(Q)/vol(Q_o) reaches ``threshold``.

    Q_o is the intersection of every halfspace the oracle has certified so
    far with a provably large bounding simplex, all in xi-space.  Returns
    (state, SandwichReport); on queue exhaustion both hulls equal the target
    and the ratio is 1.
    """
    if isinstance(threshold, float):
        threshold = Fraction(str(threshold))
    else:
        threshold = Fraction(threshold)
    state = initialize(sys, seed=seed, use_cache=use_cache, query_equations=True)
    k = state.hull.dim

    # Bounding simplex: |xi_i| is bounded via xi = S (x - p0) with
    # S = (B^T B)^{-1} B^T = pull^T / gram_det and the coordinate-wise
    # diameter of the target, which the +-e_j queries already pinned down
    # exactly.  Its vertices, with radius r / g = bound / g + 1, are the
    # homogeneous rows (-r, ..., -r, g) and, for each t, the row with
    # (2k - 1).r at t.  A point target (k = 0) gets the point simplex.
    chart = state.chart
    xs = list(state.hull.tags)
    diam = [max(x[j] for x in xs) - min(x[j] for x in xs) for j in range(state.m)]
    bound = max(
        (sum(abs(row[i]) * dj for row, dj in zip(chart.pull, diam)) for i in range(k)),
        default=0,
    )
    g = chart.gram_det
    r = bound + g
    rows = [(*[-r] * k, g)] + [
        (*[(2 * k - 1) * r if i == t else -r for i in range(k)], g) for t in range(k)
    ]
    outer = OuterPolytope.simplex([primitive(row) for row in rows])

    def clip(w, point):
        nonlocal outer
        plane = _outer_constraint(state, w, point)
        if plane is not None:
            outer = clip_halfspace(outer, plane)

    memo = state.oracle.memo
    for w in sorted(memo):
        clip(w, memo[w][0])

    def sandwich():
        vol_q = hull_volume(state.hull)
        vol_qo = outer.volume
        ratio = vol_q / vol_qo
        return SandwichReport(vol_q, vol_qo, ratio, threshold, ratio >= threshold, outer)

    report = sandwich()
    if report.reached:
        return state, report

    def on_call(w, v):
        clip(w, v)
        return sandwich().reached

    _process(state, on_call=on_call)
    return state, sandwich()


def compute_pi_random(sys, k, seed=0, use_cache=True):
    """Q seeded with the vtx answers over k seeded random integer directions.

    Directions are drawn as rounded scaled Gaussian vectors, so for a fixed
    seed the first k1 < k2 directions of a k2-run are exactly the k1-run's.
    Requires k >= m + 1.  Returns a ``BuildState`` whose Q is the
    ``lattice_hull`` of the answers, in the order found; its facets are
    neither certified nor awaiting a query, and Q may still undershoot the
    target (its dimension is reported, not asserted).
    """
    m = sys.m
    if k < m + 1:
        raise ValueError("random mode needs at least m + 1 directions")
    ctx = VertexOracle(sys, seed=seed, use_cache=use_cache)
    rng = Random(f"{seed}|sphere")
    dirs = []
    while len(dirs) < k:
        g = [rng.gauss(0.0, 1.0) for _ in range(m)]
        ints = [round(x * (1 << 20)) for x in g]
        if all(v == 0 for v in ints):
            continue
        dirs.append(canonical_direction(ints))
    for w in dirs:
        ctx.vtx(w)
    return _seeded_state(ctx, [])


def stats(state):
    """The counts ``--stats`` prints; checks the output-sensitive call bound."""
    hull = state.hull
    nv = len(hull.points)
    nf = len(hull.facet_map())
    total = state.oracle.pipeline_runs
    main = total - state.init_calls
    if main > nv + nf:
        raise InvariantViolation(
            "oracle call bound violated: %d main calls for %d vertices and %d facets"
            % (main, nv, nf)
        )
    return {
        "oracle_calls": total,
        "init_calls": state.init_calls,
        "main_calls": main,
        "vertices": nv,
        "facets": nf,
    }
