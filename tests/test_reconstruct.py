"""Tests for the incremental reconstruction, approximation, and random modes."""

import io
import json
import math
import random
from collections import deque
from fractions import Fraction

import pytest
import sympy

from conftest import cells_volume, family_from, system_from
from golden import BICUBIC, CIRCLE_LINE, MONOMIAL_SURFACE, SYLVESTER
from reference import (
    brute_force_facets,
    count_lattice_points,
    outer_points,
    point_in_hull,
    ref_rank,
    ref_solve_unique,
)

from resnewt import cli, reconstruct
from resnewt import outer as outer_module
from resnewt.cayley import build_cayley, preprocess
from resnewt.cli import gen_random
from resnewt.errors import InvariantViolation
from resnewt.exactlin import AffineChart, saturated_basis
from resnewt.geometry import hull_volume
from resnewt.oracle import VertexOracle
from resnewt.reconstruct import (
    BuildState,
    compute_pi,
    compute_pi_approx,
    compute_pi_random,
    initialize,
    stats,
)


def _sys(golden, mode):
    return system_from(golden["n"], golden["supports"], mode)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


GOLDEN_CASES = [
    ("sylvester-full", _sys(SYLVESTER, "full"), SYLVESTER["vertices"]),
    (
        "surface-full",
        _sys(MONOMIAL_SURFACE, "full"),
        MONOMIAL_SURFACE["mode_full_vertices"],
    ),
    (
        "surface-implicit",
        _sys(MONOMIAL_SURFACE, "implicitization"),
        MONOMIAL_SURFACE["mode_implicit_vertices"],
    ),
    ("circle-line-u", _sys(CIRCLE_LINE, "u-resultant"), CIRCLE_LINE["vertices"]),
]


# -- initialization ------------------------------------------------------------


def test_initialize_dimensions_and_equations():
    state = initialize(_sys(SYLVESTER, "full"))
    assert state.m == 5
    assert state.dim == 2
    assert len(state.equations) == 3  # rank + |E| = m
    state = initialize(_sys(MONOMIAL_SURFACE, "implicitization"))
    assert state.m == 3
    assert state.dim == 1
    assert len(state.equations) == 2


def test_initialize_equations_hold_on_golden_vertices():
    for name, sysd, vertices in GOLDEN_CASES:
        state = initialize(sysd)
        for normal, offset in state.equations:
            for v in vertices:
                assert _dot(normal, v) == offset, name


def test_initialize_seeds_queue():
    state = initialize(_sys(CIRCLE_LINE, "u-resultant"))
    assert state.illegal or state.dim == 0
    assert state.init_calls == state.oracle.pipeline_runs


def _init_system(name):
    kind, _, seed = name.rpartition("-")
    golden = {
        "sylvester-full": (SYLVESTER, "full"),
        "surface-full": (MONOMIAL_SURFACE, "full"),
        "surface-implicit": (MONOMIAL_SURFACE, "implicitization"),
        "circle-line-u": (CIRCLE_LINE, "u-resultant"),
        "bicubic-implicit": (BICUBIC, "implicitization"),
    }.get(name)
    if golden is not None:
        return _sys(*golden)
    seed = int(seed)
    if kind == "custom":
        # One whole block, so that the projection keeps an equation, and a
        # few points of the other blocks.
        fam = gen_random(2, 3, "dense", [4, 4, 4], seed, mode="full")
        rng = random.Random(seed)
        b = rng.randrange(3)
        rest = [
            (i, j) for i, s in enumerate(fam.supports) if i != b for j in range(len(s))
        ]
        pairs = [(b, j) for j in range(len(fam.supports[b]))] + rng.sample(rest, seed + 1)
        return system_from(2, fam.supports, "custom", sorted(pairs))
    delta, sizes = {
        "full": (2, [3, 3, 3]),
        "implicitization": (3, [4, 4, 4]),
        "u-resultant": (3, [3, 4, 4]),
    }[kind]
    return build_cayley(gen_random(2, delta, "dense", sizes, seed, mode=kind))


# Oracle calls initialize made before the Cayley rank came to certify its
# equation rounds.  Approximation mode still makes every one of them.
APPROX_INIT_CALLS = {
    "sylvester-full": 16,
    "surface-full": 22,
    "surface-implicit": 10,
    "circle-line-u": 8,
    "bicubic-implicit": 6,
    "full-1": 28,
    "full-2": 28,
    "implicitization-1": 6,
    "u-resultant-1": 8,
    "u-resultant-2": 8,
    "custom-1": 14,
    "custom-2": 16,
    "custom-3": 18,
}


@pytest.mark.parametrize("name", sorted(APPROX_INIT_CALLS))
def test_exact_initialization_skips_only_certified_rounds(name, monkeypatch):
    # Exact initialization must certify the same equations as approx mode's,
    # in the same order, from a prefix of approx's oracle calls: the prefix
    # must already span the target's affine hull, of dimension m - eq_rank
    # with eq_rank = rank(M) - rank(M on the specialized columns), and
    # every call approx adds must belong to an equation round.
    sysd = _init_system(name)
    asked = []
    triangulation = VertexOracle.triangulation

    def spy(oracle, w):
        asked.append(w)
        return triangulation(oracle, w)

    monkeypatch.setattr(VertexOracle, "triangulation", spy)
    exact = initialize(sysd)
    exact_asked = asked[:]
    del asked[:]
    approx, _ = compute_pi_approx(sysd, 0)  # threshold 0: stops after initialize
    assert exact.equations == approx.equations
    assert approx.init_calls == len(asked) == APPROX_INIT_CALLS[name]
    assert exact.init_calls == len(exact_asked)
    assert asked[: len(exact_asked)] == exact_asked

    spec = [c for c in range(sysd.num_columns) if c not in sysd.projection]
    eq_rank = ref_rank(sysd.M) - ref_rank(
        [[row[c] for c in spec] for row in sysd.M] if spec else []
    )
    assert exact.dim == approx.dim == sysd.m - eq_rank == sysd.m - len(exact.equations)
    assert ref_rank([_sub(p, exact.chart.p0) for p in exact.hull.tags]) == exact.dim
    for w in asked[len(exact_asked):]:
        point = approx.oracle.memo[w][0]
        assert any(
            nrm in (w, tuple(-x for x in w)) and _dot(nrm, point) == off
            for nrm, off in exact.equations
        )
    # Past the 2m coordinate queries, exact stops within the round in which
    # approx's answers first reach that rank.
    answers = [approx.oracle.memo[w][0] for w in asked]
    full_rank = next(
        i for i in range(1, len(answers) + 1)
        if ref_rank([_sub(p, answers[0]) for p in answers[:i]]) == exact.dim
    )
    assert len(exact_asked) <= max(2 * sysd.m, full_rank + 1)
    if name == "sylvester-full":
        assert exact.init_calls < approx.init_calls


# -- exact reconstruction ------------------------------------------------------------


@pytest.mark.parametrize("name,sysd,vertices", GOLDEN_CASES, ids=lambda c: "")
def test_compute_pi_golden(name, sysd, vertices):
    state = compute_pi(sysd)
    assert set(state.vertices()) == set(vertices)
    # vertices() is sorted and duplicate-free.
    assert list(state.vertices()) == sorted(set(state.vertices()))


def test_compute_pi_bicubic():
    state = compute_pi(_sys(BICUBIC, "implicitization"))
    assert set(state.vertices()) == BICUBIC["vertices"]


# Minor-cache counters after compute_pi (all but predicate_time), frozen
# before the predicates' glue was last rewritten.  A rewrite that skips a
# sub-minor whose lifting is 0, or miscounts a hit, moves them.  They were
# re-pinned when the lifted hull's dimension jump came to ask for one
# orientation and derive the other signs: only predicate calls and
# hom-minor hits moved, so no minor the oracle needs was skipped.  They were
# re-pinned again when the lifted hull came to ask the cache for its
# dimension-2n orientations (lift coordinate not a pivot) instead of taking
# its own determinant: sylvester-full gained 78 predicate calls and 78
# hom-minor hits, every routed minor already cached, and nothing else moved.
# They were re-pinned a third time when the lifted hull came to test a whole
# boundary in one batch: the batch reads no sub-minor whose lift is 0 (that
# alone moves every miss, entry and pure hit of bicubic-implicit), a fresh
# simplex takes its sign from its parent's test instead of an orientation,
# and rho sums the volumes the upper-facet filter read instead of asking for
# them again.  Each drops predicate calls or hom-minor hits, none adds any.
# They were re-pinned a fourth time when exact initialization stopped
# querying the equation rounds that the Cayley rank certifies (sylvester-full
# makes 6 fewer oracle calls: 63 predicate calls and 63 hom-minor hits fewer)
# and a hull built by jumps alone came to orient its one cell once instead of
# once per jump (7 fewer of each); no miss or entry moved.
# They were re-pinned a fifth time when a full-dimensional lifted hull came
# to start, with no unlifted base, from the simplex on the first 2n+2
# columns placed: sylvester-full has one direction whose first four columns
# do not span, so the oracle orients them (1 predicate call, 4 cached
# hom-minor hits) before it grows the hull point by point; no miss or entry
# moved.
# They were re-pinned a sixth time when the oracle's TriangulatedHull came
# to serve only below dimension 2n, with the hull kept as (mask, q) pairs
# from 2n on.  The jumps into 2n orient over the hull's own chart and the
# jumps off it take no predicate: sylvester-full loses 5 hom_sign calls and
# 5 orientations (10 predicate calls and 25 hom-minor hits fewer), and
# bicubic-implicit the hom_sign of its base hull's jump and the
# orientations of its 9 memoized cones, which read every sub-minor, also
# those a lift of 0 multiplies; upper_facets first reads 4 of the minors
# those primed (10 predicate calls, 3 misses and 3 entries fewer).  No
# counter rose.
# They were re-pinned a seventh time when a full projection's lifted hull
# came to start at dimension 2n from the simplex on its first 2n+1 columns
# placed, and the side of a tilted 2n-flat came to be read off a cell's
# lifted orientation.  Sylvester-full asks one hom_sign per oracle call (13
# predicate calls, 10 of them cached hits) and 8 orientations for the side
# of the flat (32 hits), in place of the 9 orientations of the first four
# columns (31 hits); 2 minors upper_facets found missing are now computed
# by those predicates first.  So 12 more predicate calls and 9 more
# hom-minor hits; no miss or entry moved, and bicubic-implicit, whose base
# is a flat at lift 0, moved not at all.
# They were re-pinned an eighth time when a query whose head does not span
# came to place the columns that raise the rank first and try that head:
# sylvester-full has one such direction, whose new head does not span
# either, so it asks one more cached hom_minor (1 predicate call, 1 hit)
# before its copy of the empty base jumps to 2n+1.
# They were re-pinned a ninth time when the query's copy of the base became
# its rank pass and the second head test went: that direction asks no
# second hom_minor (1 predicate call, 1 hit fewer).
CACHE_STATS = {
    "sylvester-full": {
        "pure_misses_by_size": {2: 10},
        "pure_hits_by_size": {2: 20},
        "pure_misses": 10,
        "pure_hits": 20,
        "hom_misses": 10,
        "hom_hits": 172,
        "entries": 20,
        "clears": 0,
        "predicate_calls": 146,
    },
    "bicubic-implicit": {
        "pure_misses_by_size": {2: 326, 3: 1217, 4: 2073},
        "pure_hits_by_size": {2: 515, 3: 2819, 4: 3457},
        "pure_misses": 3616,
        "pure_hits": 6791,
        "hom_misses": 1106,
        "hom_hits": 3448,
        "entries": 4722,
        "clears": 0,
        "predicate_calls": 4019,
    },
}


@pytest.mark.parametrize("name", sorted(CACHE_STATS))
def test_minor_cache_stats_frozen(name):
    golden, mode = {
        "sylvester-full": (SYLVESTER, "full"),
        "bicubic-implicit": (BICUBIC, "implicitization"),
    }[name]
    got = compute_pi(_sys(golden, mode)).oracle.cache.stats()
    del got["predicate_time"]
    assert got == CACHE_STATS[name]


def test_compute_pi_deterministic_per_seed():
    sysd = _sys(MONOMIAL_SURFACE, "full")
    a = compute_pi(sysd, seed=3)
    b = compute_pi(system_from(2, MONOMIAL_SURFACE["supports"], "full"), seed=3)
    assert a.vertices() == b.vertices()
    assert a.equations == b.equations
    assert a.facets_x() == b.facets_x()
    assert a.oracle.pipeline_runs == b.oracle.pipeline_runs


def test_compute_pi_seed_independent_answer():
    sysd_fn = lambda: _sys(CIRCLE_LINE, "u-resultant")
    reference = set(compute_pi(sysd_fn()).vertices())
    for seed in (1, 2, 5):
        assert set(compute_pi(sysd_fn(), seed=seed).vertices()) == reference


def test_facets_support_the_vertex_set():
    for name, sysd, vertices in GOLDEN_CASES:
        state = compute_pi(sysd)
        if state.dim == 0:
            continue
        facets = state.facets_x()
        if state.dim < state.m:
            # Lower-dimensional polytopes: facets live in x-space only
            # through pullbacks; validate supporting behavior directly.
            pass
        for w, offset in facets:
            values = [_dot(w, v) for v in state.vertices()]
            assert max(values) == offset, name
            assert sum(1 for x in values if x == offset) >= state.dim, name


def _sylvester_terms(a_exps, b_exps):
    # {exponent vector over (a..., b...): coefficient} of
    # Res_x(sum a_i x^A_i, sum b_j x^B_j), the Sylvester determinant.
    x = sympy.Symbol("x")
    a = sympy.symbols(f"a0:{len(a_exps)}")
    b = sympy.symbols(f"b0:{len(b_exps)}")
    f = sum(c * x**e for c, e in zip(a, a_exps))
    g = sum(c * x**e for c, e in zip(b, b_exps))
    return dict(sympy.Poly(sympy.resultant(f, g, x), *a, *b).terms())


def test_n1_facets_match_the_expanded_sylvester_resultant():
    # For n = 1 the resultant is the Sylvester determinant, and with 0 in
    # both supports and gcd 1 it is the sparse resultant itself, not a
    # power of it.  Its Newton polytope, from sympy's expansion and the
    # brute-force facet search, must be compute_pi's polytope: every
    # monomial on the inner side of every facet, the same monomials on each
    # facet, and every vertex a monomial.
    rng = random.Random(17)
    seen = set()
    while len(seen) < 24:
        size_a, size_b = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
        a_exps = [0] + rng.sample(range(1, 5), size_a - 1)
        b_exps = [0] + rng.sample(range(1, 5), size_b - 1)
        key = (frozenset(a_exps), frozenset(b_exps))
        if math.gcd(*a_exps, *b_exps) != 1 or key in seen:
            continue
        seen.add(key)
        monos = list(_sylvester_terms(a_exps, b_exps))
        state = compute_pi(
            system_from(1, [[(e,) for e in a_exps], [(e,) for e in b_exps]], "full")
        )
        assert set(state.vertices()) <= set(monos), key
        got = set()
        for w, offset in state.facets_x():
            values = [_dot(w, q) for q in monos]
            assert max(values) == offset, key
            got.add(frozenset(i for i, v in enumerate(values) if v == offset))
        assert got == brute_force_facets(monos), key


def test_n1_custom_projection_facets_match_the_projected_resultant():
    # The Newton polytope of any projection of the resultant is the hull of
    # its monomials' exponent vectors projected onto the symbolic
    # coordinates.  With 0 in both supports and gcd 1 the Sylvester
    # determinant is the sparse resultant, so brute_force_facets of the
    # projected monomials must be compute_pi's facets, for seeded custom
    # choices of the symbolic coefficients.
    rng = random.Random(29)
    seen = set()
    dims = set()
    while len(seen) < 16:
        size_a, size_b = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
        a_exps = [0] + rng.sample(range(1, 5), size_a - 1)
        b_exps = [0] + rng.sample(range(1, 5), size_b - 1)
        points = [(0, i) for i in range(size_a)] + [(1, j) for j in range(size_b)]
        pairs = sorted(rng.sample(points, rng.randint(2, len(points) - 1)))
        key = (tuple(a_exps), tuple(b_exps), tuple(pairs))
        if math.gcd(*a_exps, *b_exps) != 1 or key in seen:
            continue
        seen.add(key)
        sysd = system_from(
            1, [[(e,) for e in a_exps], [(e,) for e in b_exps]], "custom", pairs
        )
        monos = [
            tuple(q[c] for c in sysd.projection)
            for q in _sylvester_terms(a_exps, b_exps)
        ]
        state = compute_pi(sysd)
        dims.add(state.dim)
        assert set(state.vertices()) <= set(monos), key
        if state.dim == 0:
            assert len(set(monos)) == 1, key
            continue
        got = set()
        for w, offset in state.facets_x():
            values = [_dot(w, q) for q in monos]
            assert max(values) == offset, key
            got.add(frozenset(i for i, v in enumerate(values) if v == offset))
        assert got == brute_force_facets(monos), key
    assert len(dims) > 1  # projections of several dimensions


def _n1_supports(rng, sizes, projection):
    # Sorted supports in [0, 6] with these sizes, as the projection needs:
    # 0 in each for implicit, support 0 the unit simplex {0, 1} for u-res.
    if projection == "implicit":
        return [[0] + sorted(rng.sample(range(1, 7), size - 1)) for size in sizes]
    supports = [sorted(rng.sample(range(7), size)) for size in sizes]
    if projection == "u-res":
        supports[0] = [0, 1]
    return supports


def test_n1_cli_output_is_the_sylvester_newton_polytope():
    # Through the CLI (parse, preprocess, JSON output), on supports of up to
    # 4 points in [0, 6] that need not contain 0 unless the projection asks
    # for it.  The projection of the resultant's Newton polytope is the hull
    # of the exponents of the Sylvester determinant of the supports shifted
    # to start at 0, projected onto the symbolic coefficients.  Every
    # printed vertex is a projected exponent, of coefficient +-1 for the
    # full projection (Gelfand, Kapranov & Zelevinsky, 1994), and every
    # projected exponent satisfies every printed facet and equation.
    # Together the two prove equality.  The projections after the full one
    # take one round of sizes each, which keeps the four under 2 s.
    for projection in ("full", "implicit", "u-res", "custom"):
        _check_n1_cli_projection(projection)


def _check_n1_cli_projection(projection):
    rng = random.Random(23)
    rounds = 2 if projection == "full" else 1
    for sizes in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 3), (4, 4)] * rounds:
        while True:
            supports = _n1_supports(rng, sizes, projection)
            if math.gcd(*(p - s[0] for s in supports for p in s)) == 1:
                break
        points = [(i, j) for i, s in enumerate(supports) for j in range(len(s))]
        words = projection
        if projection == "full":
            symbolic = points
        elif projection == "implicit":
            symbolic = [(i, 0) for i in range(2)]
        elif projection == "u-res":
            symbolic = [(0, 0), (0, 1)]
        else:
            symbolic = sorted(rng.sample(points, rng.randint(1, len(points) - 1)))
            words += "".join(", %d %d" % pair for pair in symbolic)
        terms = _sylvester_terms(*([p - s[0] for p in s] for s in supports))
        at = [points.index(pair) for pair in symbolic]
        projected = {tuple(e[k] for k in at) for e in terms}
        text = "\n".join(["1", *(" ; ".join(map(str, s)) for s in supports), "projection: " + words, ""])
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(cli.RunConfig(fmt="json"), stdin=text, stdout=out, stderr=err) == 0
        doc = json.loads(out.getvalue())
        for v in doc["vertices"]:
            assert tuple(v) in projected, (projection, supports, symbolic, v)
            if projection == "full":
                assert abs(terms[tuple(v)]) == 1, (supports, v)
        facets, equations = doc.get("facets", []), doc.get("equations", [])
        assert doc["dim"] == 0 or len(facets) > doc["dim"], (projection, supports)
        assert len(equations) == doc["ambient"] - doc["dim"], (projection, supports)
        for e in projected:
            where = (projection, supports, symbolic, e)
            assert all(_dot(f["normal"], e) <= f["offset"] for f in facets), where
            assert all(_dot(q["normal"], e) == q["offset"] for q in equations), where


def test_stats_call_bound_and_shape():
    for name, sysd, vertices in GOLDEN_CASES:
        state = compute_pi(sysd)
        s = stats(state)
        assert s["vertices"] == len(vertices)
        assert s["oracle_calls"] == s["init_calls"] + s["main_calls"]
        assert s["main_calls"] <= s["vertices"] + s["facets"], name
        assert s["dim"] + s["equations"] == state.m
        assert "cache" in s


def test_stats_rejects_violated_call_bound():
    state = compute_pi(_sys(SYLVESTER, "full"))
    s = stats(state)
    state.oracle.pipeline_runs += s["vertices"] + s["facets"] - s["main_calls"] + 1
    with pytest.raises(InvariantViolation):
        stats(state)


def test_xi_of_rejects_points_off_the_affine_hull():
    # A line through the origin in the plane, spanned by a non-saturated
    # basis vector so that a point of the line can still miss its lattice.
    state = BuildState(None, AffineChart((0, 0), [(2, 2)]), [], None)
    assert state.xi_of((4, 4)) == (2,)
    with pytest.raises(InvariantViolation):
        state.xi_of((1, 0))  # off the line
    with pytest.raises(InvariantViolation):
        state.xi_of((1, 1))  # on the line, but xi = 1/2


def test_xi_of_rejects_points_off_a_zero_dimensional_target():
    # With no basis the certified affine hull is the single point p0.
    state = BuildState(None, AffineChart((0, 0), []), [], None)
    assert state.xi_of((0, 0)) == ()
    with pytest.raises(InvariantViolation):
        state.xi_of((5, 7))


def test_xi_of_and_pullback_match_rational_solves():
    # Both use integer operators built once per state; check them against
    # sympy's exact solves on random saturated bases.
    rng = random.Random(8)
    for trial in range(25):
        m = rng.randint(2, 6)
        vecs = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(1, m))]
        basis = saturated_basis(vecs, ambient_dim=m)
        k = len(basis)
        if k == 0:
            continue
        p0 = tuple(rng.randint(-5, 5) for _ in range(m))
        state = BuildState(None, AffineChart(p0, basis), [], None)
        cols = [[b[j] for b in basis] for j in range(m)]  # B, m x k
        xi = tuple(rng.randint(-6, 6) for _ in range(k))
        x = tuple(p0[j] + _dot(cols[j], xi) for j in range(m))
        assert state.xi_of(x) == xi
        off = tuple(rng.randint(-3, 3) for _ in range(m))
        if ref_rank(list(basis) + [off]) > k:
            with pytest.raises(InvariantViolation):
                state.xi_of(tuple(a + b for a, b in zip(x, off)))
        normal = tuple(rng.randint(-5, 5) for _ in range(k))
        if not any(normal):
            continue
        w = state.pullback(normal)
        # w is the primitive integer vector of the column space of B whose
        # action B^T w on xi is a positive multiple of the normal.
        assert ref_solve_unique(cols, w) is not None
        acts = [_dot(b, w) for b in basis]
        scale = next(Fraction(a, n) for a, n in zip(acts, normal) if n)
        assert scale > 0
        assert all(a == scale * n for a, n in zip(acts, normal))
        assert math.gcd(*w) == 1


def test_xi_of_raises_on_every_call_for_an_off_hull_point():
    # Only points with coordinates are kept, so a rejection never turns
    # into a hit: the same off-hull or off-lattice point raises each time.
    state = BuildState(None, AffineChart((0, 0), [(2, 2)]), [], None)
    for _ in range(3):
        for x in ((1, 0), (1, 1)):
            with pytest.raises(InvariantViolation):
                state.xi_of(x)
        assert state.xi_of((4, 4)) == (2,)
    state = compute_pi(_sys(MONOMIAL_SURFACE, "full"))
    off = tuple(a + 1 for a in state.vertices()[0])
    for _ in range(3):
        with pytest.raises(InvariantViolation):
            state.xi_of(off)


def _uncached_pullback(chart, normal):
    w = [_dot(row, normal) for row in chart.pull]
    g = math.gcd(*w)
    return tuple(a // g for a in w)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memos_match_uncached_solves(seed):
    # Q's seed points come charted from lattice_hull, and every memo entry
    # is what a fresh solve gives; facets_x, whose pullbacks all come from
    # the memo once the queue is drained, equals one from fresh pullbacks.
    sysd = build_cayley(gen_random(2, 3, "dense", [3, 3, 3], seed, mode="full"))
    state = initialize(sysd)
    assert set(state.charted) == set(state.hull.tags)
    reconstruct._process(state)
    chart = state.chart
    for x, xi in state.charted.items():
        assert chart.coords(x) == xi
    for normal, w in state.pulled.items():
        assert w == _uncached_pullback(chart, normal)
    facets = state.hull.facet_map()
    assert all(plane.normal in state.pulled for plane in facets)
    expected = []
    for plane, mask in facets.items():
        w = _uncached_pullback(chart, plane.normal)
        expected.append((w, _dot(w, state.hull.tags[(mask & -mask).bit_length() - 1])))
    assert state.facets_x() == sorted(expected)


def test_sylvester_lattice_point_count():
    state = compute_pi(_sys(SYLVESTER, "full"))
    assert count_lattice_points(state.vertices()) == SYLVESTER["lattice_points"]


def test_legal_directions_certified():
    # After completion every queued direction was certified legal (supporting)
    # or became stale; the legal map stores the supporting answers.
    state = compute_pi(_sys(MONOMIAL_SURFACE, "full"))
    assert not state.illegal
    for key, answer in state.legal.items():
        assert answer in state.vertices()


@pytest.mark.parametrize("name,sysd,vertices", GOLDEN_CASES, ids=lambda c: "")
def test_each_plane_enqueued_once(name, sysd, vertices, monkeypatch):
    # An insert reports only planes new to Q's facet table, and a plane the
    # new point sees never supports Q again: no plane reaches the queue twice.
    planes = []
    enqueue = reconstruct._enqueue

    def spy(state, added):
        planes.extend(added)
        enqueue(state, added)

    monkeypatch.setattr(reconstruct, "_enqueue", spy)
    for run in (compute_pi, lambda s: compute_pi_approx(s, threshold=1)):
        del planes[:]
        run(_sys_copy(sysd))
        assert planes, name
        assert len(planes) == len(set(planes)), name


# Oracle pipeline runs of I2 (``generate 2 4 --sizes 6,6,6 --projection
# implicit --seed 1``) in exact and approx 9/10 mode.  Its main loop pops
# three live facets whose direction was asked before, in both modes.
I2_PIPELINE_RUNS = {"exact": 19, "approx": 11}


@pytest.mark.parametrize("mode", sorted(I2_PIPELINE_RUNS))
def test_repeated_directions_are_answered_by_vtx(mode, monkeypatch):
    # Every live facet popped makes exactly one vtx call.  A direction asked
    # before is answered by vtx's memo, running no pipeline: the facet ends
    # legal with the memo answer, and in approx mode Q_o stays the same
    # object.
    events = []
    real_vtx, real_clip, real_process = (
        VertexOracle.vtx, reconstruct.clip_halfspace, reconstruct._process
    )

    class Pops(deque):
        def popleft(self):
            key = super().popleft()
            events.append(("pop", key, key in self.hull.facet_map()))
            return key

    def vtx(self, w):
        before = self.memo.get(w)
        answer = real_vtx(self, w)
        events.append(("vtx", before, answer[0]))
        return answer

    def clip(outer, plane):
        result = real_clip(outer, plane)
        events.append(("clip", result is outer))
        return result

    def process(state, on_call=None):
        events.clear()  # the main loop only
        state.illegal = Pops(state.illegal)
        state.illegal.hull = state.hull
        return real_process(state, on_call)

    monkeypatch.setattr(VertexOracle, "vtx", vtx)
    monkeypatch.setattr(reconstruct, "clip_halfspace", clip)
    monkeypatch.setattr(reconstruct, "_process", process)
    fam = gen_random(2, 4, "dense", [6, 6, 6], 1, mode="implicitization")
    sysd = build_cayley(preprocess(fam))
    if mode == "exact":
        state = compute_pi(sysd)
    else:
        state = compute_pi_approx(sysd, Fraction(9, 10))[0]
    assert state.oracle.pipeline_runs == I2_PIPELINE_RUNS[mode]
    pops = [i for i, e in enumerate(events) if e[0] == "pop"] + [len(events)]
    repeats = 0
    for i, end in zip(pops, pops[1:]):
        _, key, live = events[i]
        block = events[i + 1:end]
        if not live:
            assert block == []
            continue
        assert [e[0] for e in block] == (["vtx"] if mode == "exact" else ["vtx", "clip"])
        _, before, point = block[0]
        if before is None:
            continue
        repeats += 1
        assert point == before[0]
        assert state.legal[key] == point
        if mode == "approx":
            assert block[1] == ("clip", True)
    assert repeats == 3


# -- approximation -----------------------------------------------------------------


@pytest.mark.parametrize("name,sysd,vertices", GOLDEN_CASES, ids=lambda c: "")
def test_approx_threshold_sandwich(name, sysd, vertices):
    exact_state = compute_pi(_sys_copy(sysd))
    exact_volume = hull_volume(exact_state.hull)
    state, report = compute_pi_approx(sysd, threshold=Fraction(9, 10))
    assert report.reached
    assert report.ratio >= Fraction(9, 10)
    # Certified ratio is honest against the exact volume:
    assert report.inner_volume <= exact_volume <= report.outer_volume
    assert report.inner_volume >= Fraction(9, 10) * exact_volume
    # Inner vertices are genuine vertices of the target:
    inner = set(state.vertices())
    assert inner <= set(exact_state.vertices())
    # The target's vertices respect every certified outer constraint
    # (xi-space); the constraints include every facet of Q_o:
    outer = report.outer
    assert len(outer.constraints) > outer.dim
    for plane in outer.constraints:
        for v in exact_state.vertices():
            xi = exact_state.xi_of(v)
            assert _dot(plane.normal, xi) <= plane.offset
    # Q_o's running volume is that of the hull of its vertices:
    assert report.outer_volume == outer.volume == cells_volume(outer_points(outer))


def test_approx_reads_q_o_volume_only_at_sandwiches(monkeypatch):
    # Events in order: "clip" per clip_halfspace, "read" per sandwich (its
    # vol(Q) comes first), "pull" per pulling triangulation of Q_o.  The
    # initial loop over the memo clips with no pull, the first sandwich
    # takes exactly one, and from then on a clip takes at most one, to
    # update the volume it carries forward.
    events = []

    def spy(module, name, event):
        real = getattr(module, name)

        def wrapped(*args):
            events.append(event)
            return real(*args)

        monkeypatch.setattr(module, name, wrapped)

    spy(reconstruct, "clip_halfspace", "clip")
    spy(reconstruct, "hull_volume", "read")
    spy(outer_module, "_pulling_volume", "pull")
    fam = gen_random(1, 4, "dense", [4, 4], seed=1)
    _, report = compute_pi_approx(build_cayley(preprocess(fam)), Fraction(9, 10))
    assert report.reached
    first = events.index("read")
    assert events[:first] == ["clip"] * first and first > 0
    assert events[first + 1] == "pull"
    groups = " ".join(events[first + 2:]).split("read")
    assert {g.strip() for g in groups} <= {"", "clip", "clip pull"}
    assert any(g.strip() == "clip pull" for g in groups)


def _sys_copy(sysd):
    return system_from(sysd.n, sysd.family.supports, sysd.family.mode)


def test_approx_tight_threshold_recovers_exact():
    sysd = _sys(MONOMIAL_SURFACE, "full")
    state, report = compute_pi_approx(sysd, threshold=Fraction(999, 1000))
    exact = compute_pi(_sys(MONOMIAL_SURFACE, "full"))
    assert report.reached
    assert set(state.vertices()) == set(exact.vertices())


def test_approx_accepts_float_threshold():
    sysd = _sys(CIRCLE_LINE, "u-resultant")
    state, report = compute_pi_approx(sysd, threshold=0.9)
    assert report.threshold == Fraction(9, 10)
    assert report.reached


def test_approx_zero_dim_immediate():
    # Resultant of a constant polynomial and a linear one is that constant:
    # the projected polytope is the single point (1,), certified at once.
    sysd = system_from(1, [[(0,)], [(0,), (1,)]], "custom", pairs=[(0, 0)])
    state, report = compute_pi_approx(sysd, threshold=Fraction(1, 2))
    assert state.dim == 0
    assert state.vertices() == [(1,)]
    assert report.inner_volume == report.outer_volume == report.ratio == 1
    assert report.threshold == Fraction(1, 2)
    assert report.reached
    # The bounding simplex of a point target is the point itself.
    outer = report.outer
    assert (outer.dim, outer.rows, outer.constraints) == (0, [(1,)], [])


# -- random directions ---------------------------------------------------------


def test_random_mode_requires_enough_directions():
    sysd = _sys(CIRCLE_LINE, "u-resultant")
    with pytest.raises(ValueError):
        compute_pi_random(sysd, 2)


def test_random_mode_recovers_small_polytopes():
    for name, sysd, vertices in GOLDEN_CASES:
        state = compute_pi_random(sysd, 600, seed=1)
        assert set(state.vertices()) == set(vertices), name
        pts = state.vertices()
        assert state.dim == ref_rank([[a - b for a, b in zip(p, pts[0])] for p in pts])


def test_random_mode_nested_prefix():
    sysd = _sys(CIRCLE_LINE, "u-resultant")
    small = compute_pi_random(sysd, 40, seed=9)
    big = compute_pi_random(_sys(CIRCLE_LINE, "u-resultant"), 120, seed=9)
    assert len(small.oracle.memo) == 40 and len(big.oracle.memo) == 120
    # Same seed yields the same direction stream; the memo preserves order.
    small_dirs = list(small.oracle.memo)
    big_dirs = list(big.oracle.memo)
    assert big_dirs[: len(small_dirs)] == small_dirs
    assert set(small.vertices()) <= set(big.vertices())


def test_random_mode_points_inside_exact_hull():
    sysd = _sys(MONOMIAL_SURFACE, "full")
    exact = set(compute_pi(_sys(MONOMIAL_SURFACE, "full")).vertices())
    state = compute_pi_random(sysd, 10, seed=123)
    for p in state.vertices():
        assert p in exact or point_in_hull(p, sorted(exact))
