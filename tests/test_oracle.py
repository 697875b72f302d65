"""Tests for the vertex oracle: lifted triangulations, mixed cells, rho."""

import gc
import random
import weakref
from fractions import Fraction
from random import Random

import pytest

from conftest import system_from
from golden import (
    BICUBIC,
    CIRCLE_LINE,
    MONOMIAL_SURFACE,
    MONOMIAL_SURFACE_CELLS_MINUS,
    MONOMIAL_SURFACE_CELLS_PLUS,
    MONOMIAL_SURFACE_RHO_MINUS,
    MONOMIAL_SURFACE_RHO_PLUS,
    SYLVESTER,
)

from resnewt import oracle as oracle_module
from resnewt.cayley import build_cayley
from resnewt.cli import gen_random
from resnewt.errors import InvalidDirection
from resnewt.exactlin import canonical_direction
from resnewt.geometry import TriangulatedHull
from resnewt.kernels import MinorCache, det_bareiss
from resnewt.oracle import (
    VertexOracle,
    lift_direction,
    rho_vector,
)


def _sys(golden, mode):
    return system_from(golden["n"], golden["supports"], mode)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _mask(cols):
    return sum(2 ** c for c in cols)


def _cols(mask):
    # The columns of a simplex the oracle hands on as a bitmask, increasing.
    return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)


def _block(sysd, col):
    # The block of a column, read off the block masks.
    return next(i for i, mask in enumerate(sysd.block_masks) if mask >> col & 1)


# -- direction helpers ----------------------------------------------------------


def test_canonical_direction_normalization():
    assert canonical_direction([2, -4, 6]) == (1, -2, 3)
    assert canonical_direction([3, 2]) == (3, 2)  # (1/2, 1/3) over its denominator 6
    assert canonical_direction([0, -5]) == (0, -1)
    with pytest.raises(InvalidDirection):
        canonical_direction([0, 0])


def test_lift_direction_places_symbolic_heights():
    sysd = _sys(MONOMIAL_SURFACE, "implicitization")
    lifted = lift_direction(sysd, (3, -1, 7))
    assert lifted == [3, 0, -1, 0, 7, 0]
    with pytest.raises(ValueError):
        lift_direction(sysd, (1, 2))  # wrong length


def _classes(simplices, sysd):
    # The class memo rho_vector fills: simplex -> mixed vertex column, or -1.
    classes = {}
    rho_vector(simplices, sysd, [0] * len(simplices), classes)
    return classes


def test_mixed_cells_classification():
    sysd = _sys(MONOMIAL_SURFACE, "full")
    cells = MONOMIAL_SURFACE_CELLS_PLUS
    classes = _classes([_mask(cell) for cell in cells], sysd)
    # Every golden cell takes one column from one block and two from each of
    # the others: i-mixed with the single column recorded.
    assert len(classes) == len(cells)
    for cell in cells:
        single_col = classes[_mask(cell)]
        assert single_col in cell
        block = _block(sysd, single_col)
        assert sum(1 for c in cell if _block(sysd, c) == block) == 1
    # A simplex missing a block entirely is not mixed.
    syl = _sys(SYLVESTER, "full")
    assert _classes([_mask((0, 1, 2))], syl) == {_mask((0, 1, 2)): -1}  # all from block 0
    assert _classes([_mask((0,))], syl) == {_mask((0,)): -1}  # none from block 1
    assert _classes([_mask((0, 1, 3))], syl) == {_mask((0, 1, 3)): 3}
    assert _block(syl, 3) == 1


# -- frozen pipeline evaluations ----------------------------------------------------


def test_triangulation_matches_frozen_cells():
    sysd = _sys(MONOMIAL_SURFACE, "full")
    oracle = VertexOracle(sysd, seed=0)
    plus, plus_volumes = oracle.triangulation(canonical_direction([1, 0, 0, 0, 0, 0]))
    minus, minus_volumes = oracle.triangulation(canonical_direction([-1, 0, 0, 0, 0, 0]))
    # Cells come back as column masks in no promised order.
    assert sorted(_cols(c) for c in plus) == sorted(MONOMIAL_SURFACE_CELLS_PLUS)
    assert sorted(_cols(c) for c in minus) == sorted(MONOMIAL_SURFACE_CELLS_MINUS)
    # The volumes the triangulation hands on are the cache's, and rho sums
    # them into the golden vector.
    for cells, volumes, rho in (
        (plus, plus_volumes, MONOMIAL_SURFACE_RHO_PLUS),
        (minus, minus_volumes, MONOMIAL_SURFACE_RHO_MINUS),
    ):
        assert volumes == [oracle.cache.volume_predicate(_cols(c)) for c in cells]
        assert rho_vector(cells, sysd, volumes, {}) == rho


def _placing_order(sysd, w, seed):
    # The order in which the oracle places the symbolic columns.
    order = list(sysd.projection)
    Random(f"{seed}|{tuple(w)}").shuffle(order)
    return order


def _plain_upper_simplices(sysd, w, seed):
    # The oracle's triangulation rebuilt without it: one hull over the
    # lifted points, in the oracle's insertion order, filtered by explicit
    # determinants.  A boundary simplex (mask, q) is an upper facet when a
    # point far up the lift axis lies beyond it, that is when det(sorted
    # columns; e_lift) is -q.  Below dimension 2n+1 the cells with h != 0
    # are the answer: all of them on a 2n-flat over the unlifted span, none
    # when the columns do not span 2n.
    lift = lift_direction(sysd, w)
    n2 = 2 * sysd.n
    hull = TriangulatedHull(n2 + 1)
    for col in sysd.specialized + _placing_order(sysd, w, seed):
        hull.place(sysd.columns[col] + (lift[col],), tag=col)
    if hull.dim < n2 + 1:
        return {_cols(mask) for mask, _ in hull.cells if _explicit_det(sysd, _cols(mask))[0]}
    up = [0] * n2 + [1, 0]
    out = set()
    for mask, q in hull.boundary:
        d = det_bareiss([sysd.columns[c] + (lift[c], 1) for c in _cols(mask)] + [up])
        if (d > 0) - (d < 0) == -q:
            out.add(_cols(mask))
    return out


def _generated_systems(mode):
    return [
        build_cayley(gen_random(n, delta, "dense", sizes, seed, mode=mode))
        for n, delta, sizes, seed in (
            (1, 4, [3, 3], 3),
            (2, 2, [3, 3, 3], 5),
            (2, 3, [3, 3, 4], 8),
        )
    ]


def _directions_with_zeros(rng, m, count):
    # Canonical directions with up to all but one entry zero.
    for t in range(count):
        w = [rng.randint(-4, 4) for _ in range(m)]
        for i in rng.sample(range(m), t % m):
            w[i] = 0
        if not any(w):
            w[0] = 1
        yield canonical_direction(w)


@pytest.mark.parametrize("mode", ["full", "implicitization", "u-resultant"])
def test_lifted_triangulation_matches_a_plain_hull(mode, monkeypatch):
    # Directions with zero entries leave symbolic columns unlifted, so the
    # lifted hull spends inserts at dimension 2n.  The oracle's
    # TriangulatedHull, in R^(2n+1), serves only below that: once the base
    # or a query's copy of it reaches 2n with the lift not a pivot the
    # oracle goes on with its cells and pairs, and it takes no insert
    # there.  A full projection has no base, so the hull starts at 2n as
    # the simplex on the first 2n+1 columns when they span;
    # implicitization's base has dimension 2n and is handed on once, so
    # every call starts from its pairs; u-resultant's base is lower, so its
    # copies grow to 2n and are handed on there, or at 2n+1.  A query that
    # copies the base records in it only the columns that raise the rank,
    # so its copy grows by dimension jumps alone, and each copy is handed
    # on once, at 2n or 2n+1, a full projection's too when its drawn head
    # does not span.
    systems = _generated_systems(mode)
    late_inserts = [0]  # standard inserts of a hull that should be pairs
    copy_inserts = [0]  # standard inserts of a query's copy of the base
    in_oracle = [False]  # the plain hull below is not the oracle's
    starts = dict.fromkeys(
        ("2n simplex", "base pairs", "handoff at 2n", "handoff at 2n+1", "calls"), 0
    )
    standard = TriangulatedHull._standard_insert
    facets, triangulation = oracle_module._simplex_facets, VertexOracle.triangulation
    copy, advance = TriangulatedHull.copy, VertexOracle._advance
    copies = {}  # id -> each copy the oracle made, kept so that ids stay distinct

    def spy_standard(hull, pt, tag):
        n2 = hull.ambient - 1
        if in_oracle[0] and hull.dim == n2:
            late_inserts[0] += n2 not in hull._pivots
        copy_inserts[0] += in_oracle[0] and id(hull) in copies
        return standard(hull, pt, tag)

    def spy_start(head, s):
        # The oracle builds a simplex's pairs only to start from its head.
        starts["2n simplex"] += 1
        return facets(head, s)

    def spy_copy(hull):
        out = copy(hull)
        copies[id(out)] = out
        return out

    def spy_advance(oracle, state, cols, lift):
        # Counted on a query's copy of the base, not on the base itself: the
        # rank pass hands it on at the handoff, at 2n or 2n+1.
        if in_oracle[0] and id(state) in copies:
            assert oracle._handoff(state)
            starts["handoff at 2n+1" if state.dim == state.ambient else "handoff at 2n"] += 1
        return advance(oracle, state, cols, lift)

    def spy_triangulation(oracle, w):
        in_oracle[0] = True
        try:
            out = triangulation(oracle, w)
        finally:
            in_oracle[0] = False
        starts["calls"] += 1
        starts["base pairs"] += type(oracle._base) is tuple
        return out

    monkeypatch.setattr(TriangulatedHull, "_standard_insert", spy_standard)
    monkeypatch.setattr(oracle_module, "_simplex_facets", spy_start)
    monkeypatch.setattr(VertexOracle, "triangulation", spy_triangulation)
    monkeypatch.setattr(TriangulatedHull, "copy", spy_copy)
    monkeypatch.setattr(VertexOracle, "_advance", spy_advance)
    rng = random.Random(31)
    for sysd in systems:
        oracle = VertexOracle(sysd, seed=2)
        for w in _directions_with_zeros(rng, sysd.m, 12):
            got, _ = oracle.triangulation(w)
            assert len(set(got)) == len(got)
            assert {_cols(s) for s in got} == _plain_upper_simplices(
                sysd, w, 2
            )
    assert late_inserts[0] == 0 and copy_inserts[0] == 0
    # Each start ran where its input allows it, and only there.
    assert (starts["2n simplex"] > 0) == (mode == "full")
    implicit = mode == "implicitization"
    assert starts["base pairs"] == (starts["calls"] if implicit else 0)
    assert (starts["handoff at 2n"] > 0) == (mode != "implicitization"), starts
    assert starts["handoff at 2n"] + starts["handoff at 2n+1"] == len(copies), starts
    assert (len(copies) > 0) == (mode != "implicitization"), starts


# The columns of this family lie on the x-axis and do not span 2n, so no
# 2n+1 of them have h != 0 and every query's rank pass runs out below the
# handoff; compute_pi on it finds the origin alone.
NON_SPANNING = [[(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0)], [(0, 0), (3, 0)]]


@pytest.mark.parametrize("seed", [0, 3])
def test_rank_first_order_keeps_each_querys_triangulation(seed, monkeypatch):
    # A query whose head does not span places the columns that raise the
    # lifted rank first: its copy of the base records them and refuses the
    # rest, which go in after them, each column once.  Each query's upper
    # simplices (its cells with h != 0, when the lifted hull stays below
    # 2n+1), their volumes and rho must be those of one fresh hull that
    # places the base and then the query's columns in their drawn order.
    systems = _generated_systems("full") + [
        build_cayley(gen_random(3, 2, "dense", [3, 3, 3, 3], 7))
    ]
    systems += _generated_systems("u-resultant") + _generated_systems("implicitization")
    systems.append(system_from(2, NON_SPANNING, "full"))
    insert, copy, advance = TriangulatedHull.insert, TriangulatedHull.copy, VertexOracle._advance
    refused = {}  # id of each query's copy -> whether it has refused a column
    copies = []  # kept, so that ids stay distinct
    moved = [0]  # columns the rank pass recorded after refusing one

    def spy_copy(hull):
        out = copy(hull)
        copies.append(out)
        refused[id(out)] = False
        return out

    def spy_insert(hull, point, tag):
        out = insert(hull, point, tag)
        if id(hull) in refused:
            moved[0] += out and refused[id(hull)]
            refused[id(hull)] |= not out
        return out

    def spy_advance(oracle, state, cols, lift):
        if id(state) in refused:
            cols = list(cols)
            recorded = list(state._hom)[len(oracle._base._hom):]
            assert sorted(recorded + cols) == sorted(oracle.sys.projection)
        return advance(oracle, state, cols, lift)

    monkeypatch.setattr(TriangulatedHull, "copy", spy_copy)
    monkeypatch.setattr(TriangulatedHull, "insert", spy_insert)
    monkeypatch.setattr(VertexOracle, "_advance", spy_advance)
    rng = random.Random(79)
    for sysd in systems:
        oracle = VertexOracle(sysd, seed=seed)
        for w in _directions_with_zeros(rng, sysd.m, 12):
            got, volumes = oracle.triangulation(w)
            want = _plain_upper_simplices(sysd, w, seed)
            assert {_cols(s) for s in got} == want
            assert volumes == [_explicit_det(sysd, _cols(s))[1] for s in got]
            want_volumes = [_explicit_det(sysd, cols)[1] for cols in want]
            rho = rho_vector([_mask(cols) for cols in want], sysd, want_volumes, {})
            assert rho_vector(got, sysd, volumes, {}) == rho
    assert moved[0] > 0


@pytest.mark.parametrize("mode", ["full", "implicitization"])
def test_columns_short_of_2n_answer_no_simplex(mode, monkeypatch):
    # Columns that do not span 2n have no simplex that adds to rho, so each
    # query answers the zero vector from no simplex at all: its rank pass
    # runs out below the handoff, and the columns it refused are never
    # placed.  Only the base, built once, makes standard inserts.
    sysd = system_from(2, NON_SPANNING, mode)
    oracle = VertexOracle(sysd, seed=1)
    standard = TriangulatedHull._standard_insert
    late = [0]  # standard inserts once the base is built

    def spy_standard(hull, pt, tag):
        late[0] += oracle._base is not None
        return standard(hull, pt, tag)

    monkeypatch.setattr(TriangulatedHull, "_standard_insert", spy_standard)
    for w in _directions_with_zeros(random.Random(83), sysd.m, 6):
        assert oracle.vtx(w) == ((0,) * sysd.m, (0,) * sysd.num_columns)
        assert oracle.triangulation(w) == ([], [])
    assert oracle.pipeline_runs > 1 and late[0] == 0


def _spy_starts(monkeypatch):
    # What one triangulation does from dimension 2n on: the heads it starts
    # from, the copies of the base it makes, the lifted orientation each
    # column is found at off a tilted flat (0 on it), the columns placed on
    # the flat and the column that cones off it.
    seen = {"heads": [], "copies": 0, "sides": [], "on flat": [], "cones": []}
    facets, cone = oracle_module._simplex_facets, oracle_module._cone
    lifted_sign, split_boundary = MinorCache.lifted_sign, MinorCache.split_boundary
    copy = TriangulatedHull.copy

    def spy_facets(head, s):
        seen["heads"].append(tuple(head))
        return facets(head, s)

    def spy_copy(hull):
        seen["copies"] += 1
        return copy(hull)

    def spy_lifted_sign(cache, mask, col, lift):
        seen["sides"].append((col, lifted_sign(cache, mask, col, lift)))
        return seen["sides"][-1][1]

    def spy_split_boundary(cache, pairs, col):
        seen["on flat"].append(col)
        return split_boundary(cache, pairs, col)

    def spy_cone(cells, pairs, col, t):
        seen["cones"].append(col)
        return cone(cells, pairs, col, t)

    monkeypatch.setattr(oracle_module, "_simplex_facets", spy_facets)
    monkeypatch.setattr(MinorCache, "lifted_sign", spy_lifted_sign)
    monkeypatch.setattr(MinorCache, "split_boundary", spy_split_boundary)
    monkeypatch.setattr(oracle_module, "_cone", spy_cone)
    monkeypatch.setattr(TriangulatedHull, "copy", spy_copy)
    return seen


def _row_space_lift(sysd, rng):
    # lift(c) = r . column c for a random r: every lifted column lies on one
    # hyperplane through the origin, tilted wherever r is not 0.
    r = [rng.choice((-2, -1, 1, 2)) for _ in range(2 * sysd.n)]
    return [_dot(r, sysd.columns[c]) for c in sysd.projection]


def _spanning_head(sysd, w, seed):
    # The sorted first 2n+1 columns the oracle places, when they span.
    head = sorted(_placing_order(sysd, w, seed)[: 2 * sysd.n + 1])
    return head if _explicit_det(sysd, head)[0] else None


@pytest.mark.parametrize("index", range(3))
def test_row_space_direction_keeps_every_column_on_a_tilted_flat(index, monkeypatch):
    # w in the row space of M lifts every column onto one tilted flat, so
    # the lifted hull has dimension 2n and its cells are the answer.  With
    # a spanning head the oracle starts from its 2n-simplex, finds each
    # later column on the flat from a cell's lifted orientation, and places
    # it there.
    sysd = _generated_systems("full")[index]
    w = canonical_direction(_row_space_lift(sysd, random.Random(67 + index)))
    seed = next(seed for seed in range(100) if _spanning_head(sysd, w, seed))
    head = _spanning_head(sysd, w, seed)
    lift = lift_direction(sysd, w)
    assert any(lift[c] for c in head)  # the flat is tilted
    seen = _spy_starts(monkeypatch)
    got, volumes = VertexOracle(sysd, seed=seed).triangulation(w)
    later = _placing_order(sysd, w, seed)[len(head):]
    assert seen["heads"] == [tuple(head)] and seen["copies"] == 0
    assert seen["sides"] == [(c, 0) for c in later] and seen["on flat"] == later
    assert not seen["cones"]
    assert volumes == [_explicit_det(sysd, _cols(s))[1] for s in got]
    assert len(set(got)) == len(got)
    assert {_cols(s) for s in got} == _plain_upper_simplices(sysd, w, seed)


@pytest.mark.parametrize("index", range(3))
def test_tilted_flat_takes_a_column_on_it_then_cones_off_it(index, monkeypatch):
    # A spanning head on a tilted flat, then a column on the flat, then one
    # above or below it: the first goes in at dimension 2n, the second
    # cones the hull to 2n+1, and the rest go in as lifted pairs.
    sysd = _generated_systems("full")[index]
    full = 2 * sysd.n + 1
    lift = _row_space_lift(sysd, random.Random(71 + index))
    j = sysd.projection.index(0)
    lift[j] += 1  # column 0 off the flat
    w = canonical_direction(lift)

    def wanted(seed):
        order = _placing_order(sysd, w, seed)
        return order[full + 1] == 0 and _spanning_head(sysd, w, seed)

    seed = next(seed for seed in range(1000) if wanted(seed))
    order = _placing_order(sysd, w, seed)
    seen = _spy_starts(monkeypatch)
    got, volumes = VertexOracle(sysd, seed=seed).triangulation(w)
    assert seen["heads"] == [tuple(sorted(order[:full]))] and seen["copies"] == 0
    assert [c for c, _ in seen["sides"]] == order[full:full + 2]
    assert seen["sides"][0][1] == 0 and seen["sides"][1][1] != 0
    assert seen["on flat"] == [order[full]] and seen["cones"] == [0]
    assert volumes == [_explicit_det(sysd, _cols(s))[1] for s in got]
    assert len(set(got)) == len(got)
    assert {_cols(s) for s in got} == _plain_upper_simplices(sysd, w, seed)


@pytest.mark.parametrize("index", range(3))
def test_head_missing_a_block_falls_back_to_the_clone(index, monkeypatch):
    # 2n+1 columns that miss a block lie on a face of the Cayley polytope,
    # so their h is 0.  The oracle then takes no 2n start: it grows a copy
    # of the empty base, which records the columns that raise the rank
    # first.
    sysd = _generated_systems("full")[index]
    full = 2 * sysd.n + 1
    rng = random.Random(73 + index)
    w = canonical_direction([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(sysd.m)])

    def misses_a_block(seed):
        head = _placing_order(sysd, w, seed)[:full]
        return len({_block(sysd, c) for c in head}) <= sysd.n

    seed = next(seed for seed in range(100) if misses_a_block(seed))
    assert not _spanning_head(sysd, w, seed)
    seen = _spy_starts(monkeypatch)
    got, _ = VertexOracle(sysd, seed=seed).triangulation(w)
    assert seen["heads"] == [] and seen["copies"] == 1
    assert len(set(got)) == len(got)
    assert {_cols(s) for s in got} == _plain_upper_simplices(sysd, w, seed)


@pytest.mark.parametrize("use_cache", [True, False])
@pytest.mark.parametrize("mode", ["full", "implicitization"])
def test_fused_split_matches_per_simplex_orientations(mode, use_cache, monkeypatch):
    # Each batch the oracle runs on an insert must split as one orientation
    # per simplex through the any-order public entries would: a (mask, q)
    # pair is visible when (sorted mask..., new column) has the sign -q, a
    # homogeneous minor at dimension 2n and a lifted determinant once the
    # hull is full-dimensional.  The lifted batch skips the columns whose
    # lift is 0, which directions with zero entries exercise.
    split, split_lifted = MinorCache.split_boundary, MinorCache.split_lifted
    batches = {"lifted": 0, "homogeneous": 0}

    def checked_split(cache, pairs, col):
        pairs = list(pairs)
        out = split(cache, pairs, col)
        batches["homogeneous"] += 1
        visible = [reference.hom_sign(_cols(mask) + (col,)) == -q for mask, q in pairs]
        assert out[0] == [p for p, v in zip(pairs, visible) if v]
        assert out[1] == [p for p, v in zip(pairs, visible) if not v]
        return out

    def checked_split_lifted(cache, pairs, col, lift, lift_mask):
        pairs = list(pairs)
        out = split_lifted(cache, pairs, col, lift, lift_mask)
        batches["lifted"] += 1
        assert lift_mask == _mask(c for c, x in enumerate(lift) if x)
        visible = []
        for mask, q in pairs:
            cols = _cols(mask) + (col,)
            visible.append(reference.orientation(cols, [lift[c] for c in cols]) == -q)
        assert out[0] == [p for p, v in zip(pairs, visible) if v]
        assert out[1] == [p for p, v in zip(pairs, visible) if not v]
        return out

    monkeypatch.setattr(MinorCache, "split_boundary", checked_split)
    monkeypatch.setattr(MinorCache, "split_lifted", checked_split_lifted)
    rng = random.Random(47)
    for sysd in _generated_systems(mode):
        reference = MinorCache(sysd.columns)
        oracle = VertexOracle(sysd, seed=3, use_cache=use_cache)
        for w in _directions_with_zeros(rng, sysd.m, 10):
            oracle.vtx(w)
    assert batches["lifted"] > 0 and batches["homogeneous"] > 0


@pytest.mark.parametrize("mode", ["full", "implicitization", "u-resultant"])
def test_mask_pairs_face_a_point_inside_the_hull(mode, monkeypatch):
    # Whatever start made them and after every placement, each pair's q
    # must be the orientation of its sorted columns followed by any point
    # strictly inside the hull, here the mean of every column on its
    # boundary, as Bareiss takes it over the explicit rows: the lifted rows
    # once the hull is full-dimensional, the unlifted rows at dimension 2n,
    # where the hull's flat projects onto them one to one.  There each
    # cell's sign must be that of h of its sorted columns.  The pairs are
    # read as each split and the upper-facet filter get them, and the cells
    # and pairs at dimension 2n as the cone off the flat gets them; some of
    # those flats hold lifted columns (tilted), so a jump's side is not
    # always the sign of its column's lift.
    triangulation = VertexOracle.triangulation
    split_lifted, upper_facets = MinorCache.split_lifted, MinorCache.upper_facets
    split_boundary, cone = MinorCache.split_boundary, oracle_module._cone
    lifts = []  # the lift of the triangulation under way
    checked = {"lifted": 0, "flat": 0, "cells": 0, "tilted": 0}

    def check(pairs, lifted=True):
        sysd, lift = lifts[-1]
        inside = 0
        for mask, _ in pairs:
            inside |= mask
        cols = _cols(inside)
        mean = [sum(sysd.columns[c][r] for c in cols) for r in range(2 * sysd.n)]
        mean += [sum(lift[c] for c in cols)] * lifted + [len(cols)]
        for mask, q in pairs:
            rows = [sysd.columns[c] + (lift[c],) * lifted + (1,) for c in _cols(mask)]
            d = det_bareiss(rows + [mean])
            assert (d > 0) - (d < 0) == q
        checked["lifted" if lifted else "flat"] += 1

    def check_cells(cells):
        sysd = lifts[-1][0]
        for mask, s in cells:
            d = det_bareiss([sysd.columns[c] + (1,) for c in _cols(mask)])
            assert (d > 0) - (d < 0) == s
        checked["cells"] += 1

    def spy_triangulation(oracle, w):
        lifts.append((oracle.sys, lift_direction(oracle.sys, w)))
        try:
            return triangulation(oracle, w)
        finally:
            lifts.pop()

    def spy_split_lifted(cache, pairs, *args):
        check(pairs)
        return split_lifted(cache, pairs, *args)

    def spy_upper_facets(cache, pairs):
        check(pairs)
        return upper_facets(cache, pairs)

    def spy_split_boundary(cache, pairs, col):
        check(pairs, lifted=False)
        return split_boundary(cache, pairs, col)

    def spy_cone(cells, pairs, col, t):
        lift = lifts[-1][1]
        checked["tilted"] += any(lift[c] for c in _cols(cells[0][0]))
        check_cells(cells)
        check(pairs, lifted=False)
        return cone(cells, pairs, col, t)

    monkeypatch.setattr(VertexOracle, "triangulation", spy_triangulation)
    monkeypatch.setattr(MinorCache, "split_lifted", spy_split_lifted)
    monkeypatch.setattr(MinorCache, "upper_facets", spy_upper_facets)
    monkeypatch.setattr(MinorCache, "split_boundary", spy_split_boundary)
    monkeypatch.setattr(oracle_module, "_cone", spy_cone)
    goldens = {
        "full": [SYLVESTER, MONOMIAL_SURFACE],
        "implicitization": [MONOMIAL_SURFACE, BICUBIC],
        "u-resultant": [CIRCLE_LINE],
    }[mode]
    rng = random.Random(59)
    for sysd in _generated_systems(mode) + [_sys(g, mode) for g in goldens]:
        oracle = VertexOracle(sysd, seed=5)
        # Coordinate directions lift one column, so a full projection's
        # hull often reaches dimension 2n before it.
        axes = [
            canonical_direction([sign * (i == k) for i in range(sysd.m)])
            for k in range(sysd.m)
            for sign in (1, -1)
        ]
        for w in list(_directions_with_zeros(rng, sysd.m, 10)) + axes:
            oracle.vtx(w)
    assert checked["lifted"] > 20 and checked["cells"] > 10, checked
    assert checked["flat"] > checked["cells"] and checked["tilted"] > 0, checked


def _explicit_det(sysd, cols, lift=None):
    # Coordinate rows, then the lift row if any, then the ones row, over the
    # columns in the given order.
    rows = [[sysd.columns[c][r] for c in cols] for r in range(2 * sysd.n)]
    if lift is not None:
        rows.append([lift[c] for c in cols])
    rows.append([1] * len(cols))
    d = det_bareiss(rows)
    return (d > 0) - (d < 0), abs(d)


@pytest.mark.parametrize("use_cache", [True, False])
@pytest.mark.parametrize("mode", ["full", "implicitization"])
def test_mask_batches_match_explicit_determinants(mode, use_cache):
    # Random simplices of random Cayley systems, as (mask, q) pairs, q a
    # random sign for the sorted columns: 2n columns for split_boundary,
    # 2n+1 for split_lifted, lifted by directions with zero entries, and
    # for upper_facets.  Each must answer as Bareiss on the explicit matrix
    # of the sorted columns, the new one last, and orientation too.
    rng = random.Random(61)
    seen = {"visible": 0, "kept": 0, "lifted visible": 0, "lifted kept": 0, "up": 0}
    for sysd in _generated_systems(mode):
        cache = MinorCache(sysd.columns, use_cache=use_cache)
        ncols, k = sysd.num_columns, 2 * sysd.n
        for w in _directions_with_zeros(rng, sysd.m, 8):
            lift = lift_direction(sysd, w)
            lift_mask = _mask(c for c in range(ncols) if lift[c])
            col = rng.randrange(ncols)
            others = [c for c in range(ncols) if c != col]
            pairs = [(_mask(rng.sample(others, k)), rng.choice((-1, 1))) for _ in range(20)]
            visible, kept = cache.split_boundary(pairs, col)
            expect = [
                _explicit_det(sysd, list(_cols(mask)) + [col])[0] == -q for mask, q in pairs
            ]
            assert visible == [p for p, v in zip(pairs, expect) if v]
            assert kept == [p for p, v in zip(pairs, expect) if not v]
            seen["visible"] += len(visible)
            seen["kept"] += len(kept)
            pairs = [
                (_mask(rng.sample(others, k + 1)), rng.choice((-1, 1))) for _ in range(20)
            ]
            visible, kept = cache.split_lifted(pairs, col, lift, lift_mask)
            expect = []
            for mask, q in pairs:
                cols = list(_cols(mask)) + [col]
                sign = _explicit_det(sysd, cols, lift)[0]
                expect.append(sign == -q)
                assert cache.orientation(cols, [lift[c] for c in cols]) == sign
            assert visible == [p for p, v in zip(pairs, expect) if v]
            assert kept == [p for p, v in zip(pairs, expect) if not v]
            seen["lifted visible"] += len(visible)
            seen["lifted kept"] += len(kept)
            pairs = [
                (_mask(rng.sample(range(ncols), k + 1)), rng.choice((-1, 1))) for _ in range(20)
            ]
            expect = []
            for mask, q in pairs:
                sign, volume = _explicit_det(sysd, _cols(mask))
                if sign == q:
                    expect.append((mask, volume))
            masks, volumes = cache.upper_facets(pairs)
            assert list(zip(masks, volumes)) == expect
            seen["up"] += len(expect)
    assert all(n > 20 for n in seen.values()), seen


def test_vtx_frozen_values_full_mode():
    sysd = _sys(MONOMIAL_SURFACE, "full")
    oracle = VertexOracle(sysd, seed=0)
    v_plus, rho_plus = oracle.vtx(canonical_direction([1, 0, 0, 0, 0, 0]))
    v_minus, rho_minus = oracle.vtx(canonical_direction([-1, 0, 0, 0, 0, 0]))
    assert rho_plus == MONOMIAL_SURFACE_RHO_PLUS
    assert rho_minus == MONOMIAL_SURFACE_RHO_MINUS
    # Full mode projects onto all coordinates.
    assert v_plus == MONOMIAL_SURFACE_RHO_PLUS
    assert v_minus == MONOMIAL_SURFACE_RHO_MINUS


def test_vtx_frozen_values_implicit_mode():
    sysd = _sys(MONOMIAL_SURFACE, "implicitization")
    oracle = VertexOracle(sysd, seed=0)
    v, _ = oracle.vtx(canonical_direction([1, 0, 0]))
    assert v == (4, 0, 0)
    v, _ = oracle.vtx(canonical_direction([-1, 0, 0]))
    assert v == (0, 2, 1)


def test_vtx_frozen_value_sylvester():
    sysd = _sys(SYLVESTER, "full")
    v, _ = VertexOracle(sysd).vtx((1, 0, 0, 0, 0))
    assert v == (2, 0, 0, 0, 2)


# -- oracle invariants ---------------------------------------------------------


def test_vtx_memoizes_by_direction():
    sysd = _sys(MONOMIAL_SURFACE, "full")
    oracle = VertexOracle(sysd, seed=0)
    w = canonical_direction([1, -2, 0, 0, 1, 0])
    first = oracle.vtx(w)
    runs = oracle.pipeline_runs
    again = oracle.vtx(w)
    assert again == first
    assert oracle.pipeline_runs == runs
    assert w in oracle.memo
    # Scalar multiples share the canonical key; opposites do not.
    assert canonical_direction([2, -4, 0, 0, 2, 0]) == w
    opposite = canonical_direction([-1, 2, 0, 0, -1, 0])
    assert opposite != w


def _base_state(base):
    # Everything a query could change in the oracle's base: a hull's points,
    # chart, cells and boundary, or the cells and pairs at dimension 2n.
    if not isinstance(base, TriangulatedHull):
        return base
    return (
        base.dim, list(base._hom.items()), base._origin, list(base._echelon),
        list(base._pivots), list(base._chart), list(base.cells), list(base.boundary),
    )


@pytest.mark.parametrize(
    "golden, mode",
    [(CIRCLE_LINE, "full"), (BICUBIC, "implicitization"), (CIRCLE_LINE, "u-resultant")],
    ids=["full", "implicit", "u-res"],
)
def test_answers_depend_only_on_seed_and_direction(golden, mode):
    # The oracle keeps one RNG, one mixed-class memo and one placement of
    # the non-symbolic columns (the base) across queries.  Two fresh
    # oracles with one seed, queried in opposite orders, must agree on
    # every answer and every triangulation; the coordinate directions +-e_i
    # lift few columns, so their placing order shows in the answer.  Rho
    # read through the oracle's memo equals the sum without one.  No query
    # changes the base: u-resultant's is a hull below dimension 2n, which
    # each query copies and grows, and implicitization's is the cells and
    # pairs at 2n that each query starts from.
    sysd = _sys(golden, mode)
    m = sysd.m
    rng = random.Random(89)
    dirs = [tuple(s if j == i else 0 for j in range(m)) for i in range(m) for s in (1, -1)]
    dirs += [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(16)]
    dirs = list(dict.fromkeys(canonical_direction(w) for w in dirs if any(w)))
    seen = []
    for order in (dirs, dirs[::-1]):
        oracle = VertexOracle(sysd, seed=3)
        answers, cells = {}, {}
        for w in order:
            answers[w] = oracle.vtx(w)
            if len(answers) == 1:
                base = _base_state(oracle._base)
            simplices, volumes = oracle.triangulation(w)
            cells[w] = set(simplices)
            assert rho_vector(simplices, sysd, volumes, {}) == answers[w][1]
        assert _base_state(oracle._base) == base
        seen.append((answers, cells))
    assert seen[0] == seen[1]
    if mode == "u-resultant":
        assert isinstance(oracle._base, TriangulatedHull) and 0 < oracle._base.dim < 2 * sysd.n


def test_vtx_rejects_non_int_directions():
    # A direction is canonicalized in integers: any other entry raises
    # ValueError, as the rest of the exact layer does, before any query.
    oracle = VertexOracle(_sys(SYLVESTER, "full"))
    for w in ([Fraction(1, 2), 1, 0, 0, 0], [1, 0, 0, 0, 2.0], [Fraction(1), 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="must be ints"):
            oracle.vtx(w)
    assert oracle.pipeline_runs == 0 and not oracle.memo


def test_oracle_is_freed_without_the_cycle_collector():
    # An oracle that has answered queries holds no reference cycle, so it is
    # freed as soon as it is dropped; otherwise every run's oracle, cache and
    # base hull would wait for the cycle collector and raise peak memory.
    oracle = VertexOracle(_sys(MONOMIAL_SURFACE, "full"), seed=0)
    oracle.vtx(canonical_direction([1, -2, 0, 0, 1, 0]))
    freed = weakref.ref(oracle)
    gc.disable()
    try:
        del oracle
        assert freed() is None
    finally:
        gc.enable()


def test_vtx_answers_are_golden_vertices():
    cases = [
        (_sys(SYLVESTER, "full"), SYLVESTER["vertices"]),
        (_sys(MONOMIAL_SURFACE, "full"), MONOMIAL_SURFACE["mode_full_vertices"]),
        (
            _sys(MONOMIAL_SURFACE, "implicitization"),
            MONOMIAL_SURFACE["mode_implicit_vertices"],
        ),
        (_sys(CIRCLE_LINE, "u-resultant"), CIRCLE_LINE["vertices"]),
    ]
    rng = random.Random(424242)
    for sysd, vertices in cases:
        oracle = VertexOracle(sysd, seed=0)
        hits = set()
        for _ in range(60):
            w = [rng.randint(-9, 9) for _ in range(sysd.m)]
            if all(x == 0 for x in w):
                continue
            w = canonical_direction(w)
            v, rho = oracle.vtx(w)
            assert v in vertices  # extreme answers only
            assert all(isinstance(x, int) for x in v)
            # Extremality: the answer maximizes w over everything seen.
            for u in vertices:
                assert _dot(w, v) >= _dot(w, u)
            hits.add(v)
        # Generic sampling should discover every vertex of these tiny cases.
        assert hits == set(vertices)


def test_rho_satisfies_block_invariant():
    # M.rho is the same vector at every vertex (row sums against rho).
    sysd = _sys(MONOMIAL_SURFACE, "full")
    oracle = VertexOracle(sysd, seed=0)
    rng = random.Random(7)
    expected = None
    for _ in range(25):
        w = [rng.randint(-6, 6) for _ in range(6)]
        if all(x == 0 for x in w):
            continue
        _, rho = oracle.vtx(canonical_direction(w))
        image = tuple(_dot(row, rho) for row in sysd.M)
        if expected is None:
            expected = image
        assert image == expected
    assert expected == (4, 4, 4, 2, 1)


def test_vtx_seed_stability_on_generic_directions():
    # On generic directions the triangulation tie-breaks never fire, so the
    # answer is seed-independent.
    sysd = _sys(MONOMIAL_SURFACE, "full")
    rng = random.Random(99)
    for _ in range(10):
        w = canonical_direction([rng.randint(-50, 50) * 2 + 1 for _ in range(6)])
        answers = {VertexOracle(sysd, seed=s).vtx(w)[0] for s in range(4)}
        assert len(answers) == 1


def test_bicubic_oracle_stays_extreme():
    sysd = _sys(BICUBIC, "implicitization")
    oracle = VertexOracle(sysd, seed=0)
    rng = random.Random(5)
    for _ in range(8):
        w = canonical_direction([rng.randint(-7, 7) or 1 for _ in range(3)])
        v, _ = oracle.vtx(w)
        assert v in BICUBIC["vertices"]
