"""Tests for input parsing, essentiality, preprocessing, and the block embedding."""

import json
import random
from itertools import combinations

import pytest

from conftest import family_from, system_from
from golden import BICUBIC, MONOMIAL_SURFACE, SYLVESTER
from reference import extreme_points, ref_affine_dim, ref_rank

from resnewt import cayley, geometry
from resnewt.cayley import (
    build_cayley,
    check_essential,
    essential_violation,
    family_to_json,
    family_to_text,
    parse_input,
    parse_json,
    parse_text,
    preprocess,
    unproject,
)
from resnewt.cli import gen_random
from resnewt.errors import NotEssential, ParseError, ResnewtError
from resnewt.reconstruct import compute_pi


SYLVESTER_TEXT = """\
1
2; 1; 0
2; 0
projection: full
"""


def test_parse_text_roundtrip():
    fam = parse_text(SYLVESTER_TEXT)
    assert fam.n == 1
    assert fam.supports == [[(2,), (1,), (0,)], [(2,), (0,)]]
    assert fam.mode == "full"
    assert all(all(flags) for flags in fam.symbolic)
    again = parse_text(family_to_text(fam))
    assert again == fam


def test_parse_json_roundtrip():
    fam = family_from(
        MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "implicitization"
    )
    text = family_to_json(fam)
    doc = json.loads(text)
    assert doc["n"] == 2
    again = parse_json(text)
    assert again == fam
    # parse_input dispatches on the leading brace:
    assert parse_input(text) == fam
    assert parse_input(SYLVESTER_TEXT) == parse_text(SYLVESTER_TEXT)


def test_parse_text_custom_pairs():
    text = """\
1
2; 1; 0
1; 0
projection: custom 0 0 1 1
"""
    fam = parse_text(text)
    assert fam.mode == "custom"
    assert fam.symbolic[0] == [True, False, False]
    assert fam.symbolic[1] == [False, True]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_text("")  # no content
    with pytest.raises(ParseError):
        parse_text("1\n2; 1\nprojection: full\n")  # missing a support
    with pytest.raises(ParseError):
        parse_text("1\n2; 2; 0\n1; 0\nprojection: full\n")  # duplicate point
    with pytest.raises(ParseError):
        parse_text("1\n2 3; 1; 0\n1; 0\nprojection: full\n")  # wrong arity
    with pytest.raises(ParseError):
        parse_text("1\n2; 1; 0\n1; 0\nprojection: banana\n")  # unknown mode
    with pytest.raises(ParseError):
        parse_text("1\n2; 1; 0\n1; 0\nprojection: custom 0 9\n")  # pair range
    with pytest.raises(ParseError):
        parse_json("{\"n\": 1}")  # incomplete document


@pytest.mark.parametrize(
    "line", ["2;;1", "2; ;1", "2; 1;", "; 2; 1", ";"]
)
def test_parse_text_rejects_an_empty_point(line):
    # An empty point is a typo, not a point to skip: "2;;1" must not be
    # read as "2; 1".
    with pytest.raises(ParseError, match="support line 1 has an empty point"):
        parse_text("1\n%s\n2; 0\nprojection: full\n" % line)


def test_u_resultant_needs_unit_simplex():
    supports = [[(1, 0), (0, 1), (1, 1)], [(0, 0), (1, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(ParseError):
        family_from(2, supports, "u-resultant")
    ok = [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 0), (0, 1)]]
    fam = family_from(2, ok, "u-resultant")
    assert fam.symbolic[0] == [True, True, True]
    assert fam.symbolic[1] == [False, False]


def test_implicitization_needs_origin():
    supports = [[(1, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(ParseError):
        family_from(2, supports, "implicitization")
    ok = [[(0, 0), (1, 1)], [(0, 0), (1, 2)], [(0, 0), (2, 0)]]
    fam = family_from(2, ok, "implicitization")
    for flags, sup in zip(fam.symbolic, ok):
        assert [f for f, p in zip(flags, sup) if p == (0, 0)] == [True]
        assert sum(flags) == 1


# -- essentiality ------------------------------------------------------------------


def test_essential_violation_cases():
    # Sylvester-style inputs are essential.
    fam = parse_text(SYLVESTER_TEXT)
    assert essential_violation(fam) is None
    check_essential(fam)  # does not raise

    # A single-point support spans 0 dimensions < cardinality 1: the
    # smallest violating subset is reported.
    degenerate = family_from(1, [[(0,)], [(1,)]], "full")
    assert essential_violation(degenerate) == (0,)


def test_essential_violation_subset_reported():
    # n=2: blocks 0 and 1 are both {0, e1}-segments (parallel), so the pair
    # {0, 1} spans a line: violation of the essentiality inequality.
    supports = [
        [(0, 0), (0, 1)],
        [(0, 0), (0, 2)],
        [(0, 0), (1, 0), (0, 1)],
    ]
    fam = family_from(2, supports, "full")
    viol = essential_violation(fam)
    assert viol == (0, 1)
    with pytest.raises(NotEssential) as exc:
        check_essential(fam)
    assert exc.value.blocks == (0, 1)


def test_essential_violation_whole_family():
    # All three supports concentrated on one segment: total span 1 < n = 2,
    # the whole family is the violating (improper) subset.
    supports = [
        [(0, 0), (1, 0)],
        [(0, 0), (2, 0)],
        [(1, 0), (3, 0)],
    ]
    fam = family_from(2, supports, "full")
    viol = essential_violation(fam)
    assert viol is not None
    assert len(viol) <= 3


def _full_rank_violation(family):
    """``essential_violation`` by full ranks from the reference, with no
    early stop: the union's affine dimension, then each subfamily's pooled
    edge rank, by size and then lexicographically."""
    n = family.n
    if ref_affine_dim([p for s in family.supports for p in s]) < n:
        return ()
    for size in range(1, n + 1):
        for subset in combinations(range(n + 1), size):
            pooled = [
                [a - b for a, b in zip(p, family.supports[i][0])]
                for i in subset
                for p in family.supports[i][1:]
            ]
            if ref_rank(pooled) < size:
                return subset
    return None


def _flat_family(rng, n, flat_blocks, flat_dim, one_flat=False):
    """n + 1 random blocks in Z^n; ``flat_blocks`` of them lie in translates
    of one random ``flat_dim``-dimensional lattice subspace, or in the
    subspace itself with ``one_flat``."""
    gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(flat_dim)]

    def in_flat():
        coef = [rng.randint(-2, 2) for _ in gens]
        return [sum(c * g[k] for c, g in zip(coef, gens)) for k in range(n)]

    supports = []
    for i in range(n + 1):
        flat = i in flat_blocks
        base = in_flat() if flat and one_flat else [rng.randint(-3, 3) for _ in range(n)]
        block = {tuple(base)}
        for _ in range(rng.randint(1, 4)):
            step = in_flat() if flat else [rng.randint(-3, 3) for _ in range(n)]
            block.add(tuple(b + d for b, d in zip(base, step)))
        supports.append(sorted(block))
    return family_from(n, supports, "full")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_essential_violation_matches_full_ranks(n):
    # Seeded families, essential or with a flat subfamily of each size
    # 1..n, or with every block in one (n-1)-flat so that the union fails
    # to span: the verdicts of the capped eliminations are those of full
    # ranks, and the reference verdicts cover the essential case, the union
    # case and every subset size.
    rng = random.Random(2200 + n)
    seen = set()
    for _ in range(60):
        size = rng.randint(0, n + 1)
        if size > n:
            fam = _flat_family(rng, n, range(n + 1), n - 1, one_flat=True)
        else:
            fam = _flat_family(rng, n, rng.sample(range(n + 1), size), max(size - 1, 0))
        expect = _full_rank_violation(fam)
        assert essential_violation(fam) == expect, fam.supports
        seen.add(None if expect is None else len(expect))
    assert seen == {None, *range(n + 1)}


# -- preprocessing ------------------------------------------------------------------


def test_preprocess_drops_interior_nonsymbolic():
    # (1, 1) is inside conv{(0,0), (2,0), (0,2)} and not symbolic in
    # u-resultant blocks > 0: it must be removed.
    supports = [
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (2, 0), (0, 2), (1, 1)],
        [(0, 0), (1, 0), (0, 1)],
    ]
    fam = family_from(2, supports, "u-resultant")
    slim = preprocess(fam)
    assert slim.supports[1] == [(0, 0), (2, 0), (0, 2)]
    assert slim.supports[0] == supports[0]
    assert slim.supports[2] == supports[2]


def test_preprocess_keeps_symbolic_points():
    # In full mode every point is symbolic; nothing may be dropped even when
    # geometrically redundant.
    supports = [
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (2, 0), (0, 2), (1, 1)],
        [(0, 0), (1, 0), (0, 1)],
    ]
    fam = family_from(2, supports, "full")
    slim = preprocess(fam)
    assert slim.supports == fam.supports


def test_preprocess_bicubic_column_count():
    fam = family_from(BICUBIC["n"], BICUBIC["supports"], "implicitization")
    assert sum(len(s) for s in fam.supports) == 27
    slim = preprocess(fam)
    assert sum(len(s) for s in slim.supports) == 18
    # Preprocessing must not change the computed polytope.
    full = compute_pi(build_cayley(fam))
    trimmed = compute_pi(build_cayley(slim))
    assert set(full.vertices()) == set(trimmed.vertices())


def _preprocess_families():
    rng = random.Random(29)
    for seed in range(3):
        for n, delta, sizes in ((1, 6, [5, 6]), (2, 4, [7, 8, 6])):
            for mode in ("implicitization", "u-resultant", "custom"):
                fam = gen_random(
                    n, delta, "dense",
                    [n + 1] + sizes[1:] if mode == "u-resultant" else sizes, seed,
                    mode="full" if mode == "custom" else mode,
                )
                if mode == "custom":
                    pairs = [
                        (i, j) for i, s in enumerate(fam.supports) for j in range(len(s))
                    ]
                    fam = family_from(n, fam.supports, "custom", rng.sample(pairs, 3))
                yield fam
    # A flat block: the points between the ends of a segment go.
    yield family_from(
        2,
        [[(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 2), (1, 1), (3, 3)], [(0, 0), (1, 0), (0, 1)]],
        "u-resultant",
    )
    # n = 3, with collinear extra points: each block with specialized
    # points, scaled by 6, gains the points 1/2 and 1/3 of the way between
    # two of them.
    for seed, mode in enumerate(("implicitization", "u-resultant")):
        fam = gen_random(3, 3, "dense", [4, 6, 5, 6], seed, mode=mode)
        supports = []
        for pts, flags in zip(fam.supports, fam.symbolic):
            if not all(flags):
                pts = [tuple(6 * x for x in p) for p in pts]
            spec = [p for p, f in zip(pts, flags) if not f]
            if len(spec) >= 2:
                a, b = spec[-2:]
                for t in (2, 3):
                    q = tuple(x + (y - x) // t for x, y in zip(a, b))
                    if q not in pts:
                        pts.append(q)
            supports.append(pts)
        yield family_from(3, supports, mode)
    # A whole block on a line in R^3, its points out of order.
    yield family_from(
        3,
        [
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(2, 1, 0), (0, 0, 0), (6, 3, 0), (4, 2, 0)],
            [(0, 0, 0), (1, 1, 0), (0, 1, 1), (2, 0, 1)],
            [(0, 0, 0), (1, 0, 0), (0, 0, 2), (1, 1, 1), (0, 1, 1)],
        ],
        "u-resultant",
    )


def test_preprocess_keeps_exactly_the_extreme_specialized_points():
    # Every symbolic point stays, and of the specialized points of a block
    # exactly the vertices of their hull, all in input order.
    dropped = 0
    for fam in _preprocess_families():
        slim = preprocess(fam)
        for pts, flags, kept, kept_flags in zip(
            fam.supports, fam.symbolic, slim.supports, slim.symbolic
        ):
            spec = [p for p, f in zip(pts, flags) if not f]
            extreme = {spec[i] for i in extreme_points(spec)}
            expect = [p for p, f in zip(pts, flags) if f or p in extreme]
            assert kept == expect
            assert kept_flags == [flags[pts.index(p)] for p in kept]
            dropped += len(pts) - len(kept)
    assert dropped > 0


def test_preprocess_builds_one_hull_per_block(monkeypatch):
    # One facet hull per block with specialized points: of the points
    # themselves when they are full-dimensional, else their lattice_hull, of
    # their own dimension.
    builds = []

    class CountedHull(cayley.FacetHull):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            builds.append(self.dim)

    monkeypatch.setattr(cayley, "FacetHull", CountedHull)
    monkeypatch.setattr(geometry, "FacetHull", CountedHull)
    for fam in _preprocess_families():
        del builds[:]
        preprocess(fam)
        expect = []
        for pts, flags in zip(fam.supports, fam.symbolic):
            spec = [p for p, f in zip(pts, flags) if not f]
            if spec:
                expect.append(ref_affine_dim(spec))
        assert builds == expect


def test_preprocess_is_idempotent():
    fam = family_from(BICUBIC["n"], BICUBIC["supports"], "implicitization")
    once = preprocess(fam)
    twice = preprocess(once)
    assert once == twice


# -- the block embedding ----------------------------------------------------------


def test_build_cayley_monomial_surface():
    sysd = system_from(MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "full")
    assert sysd.n == 2
    assert sysd.m == 6
    assert sysd.columns == [
        (0, 0, 0, 0),
        (1, 1, 0, 0),
        (0, 0, 1, 0),
        (1, 2, 1, 0),
        (0, 0, 0, 1),
        (2, 0, 0, 1),
    ]
    assert sysd.block_masks == [0b000011, 0b001100, 0b110000]
    block_of = [
        next(i for i, mask in enumerate(sysd.block_masks) if mask >> c & 1)
        for c in range(sysd.num_columns)
    ]
    assert block_of == [0, 0, 1, 1, 2, 2]
    # Row structure of the homogenized block matrix: n coordinate rows
    # (the original exponents), then one indicator row per block.
    assert len(sysd.M) == 2 * sysd.n + 1
    for r in range(sysd.n):
        assert sysd.M[r] == tuple(c[r] for c in sysd.columns)
    for i in range(sysd.n + 1):
        assert sysd.M[sysd.n + i] == tuple(
            1 if b == i else 0 for b in block_of
        )
    assert sysd.projection == list(range(6))
    assert sysd.specialized == []


def test_build_cayley_implicit_projection():
    sysd = system_from(
        MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "implicitization"
    )
    assert len(sysd.columns) == 6
    assert sysd.m == 3  # one projection coordinate per block
    assert sysd.projection == [0, 2, 4]  # the origin column of each block
    assert sysd.specialized == [1, 3, 5]  # every other column


def test_unproject_full_mode_identity():
    sysd = system_from(SYLVESTER["n"], SYLVESTER["supports"], "full")
    verts = sorted(SYLVESTER["vertices"])
    assert unproject(sysd, verts, verts[0]) == verts


def test_unproject_implicit_recovers_full_vertices():
    sysd = system_from(
        MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "implicitization"
    )
    state = compute_pi(sysd)
    projected = state.vertices()
    assert set(projected) == MONOMIAL_SURFACE["mode_implicit_vertices"]
    # A reference rho from any oracle evaluation fixes the affine offsets.
    wkey = min(state.oracle.memo)
    rho_ref = state.oracle.memo[wkey][1]
    lifted = unproject(sysd, projected, rho_ref)
    assert set(lifted) == MONOMIAL_SURFACE["mode_full_vertices"]


def test_unproject_validates_lengths():
    sysd = system_from(
        MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "implicitization"
    )
    with pytest.raises(ValueError):
        unproject(sysd, [(1, 2)], [0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        unproject(sysd, [(4, 0, 0)], [0, 0])


def test_unproject_rejects_non_integral_solution():
    # Points 0 of both blocks stay symbolic, so 1 and 3 of the first block
    # and 2 of the second are specialized.  For the projected point (1, 0)
    # their coordinates solve to -1/2, 1/2 and 1, which no vertex can have.
    supports = [[(0,), (1,), (3,)], [(0,), (2,)]]
    sysd = system_from(1, supports, "custom", pairs=[(0, 0), (1, 0)])
    with pytest.raises(ResnewtError):
        unproject(sysd, [(1, 0)], [0, 1, 0, 0, 1])
