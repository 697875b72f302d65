"""Unit tests for the determinant kernels and exact linear algebra.

Expected values come from sympy (tests/reference.py) or from the independent
Bareiss route; the two determinant routes are never collapsed into one.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from reference import (
    ref_adjugate,
    ref_affine_dim,
    ref_det,
    ref_integer_kernel,
    ref_rank,
    ref_solve_unique,
    ref_sort_parity,
)

from resnewt.errors import DegenerateInput, InvalidDirection
from resnewt.exactlin import (
    AffineChart,
    adjugate,
    canonical_direction,
    canonical_hyperplane,
    integer_kernel,
    primitive,
    rank_int,
    saturated_basis,
    vec_sub,
)
from resnewt.kernels import MinorCache, det_bareiss


# -- det_bareiss ------------------------------------------------------------------


def test_det_bareiss_small_cases():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_det_bareiss_matches_reference():
    rng = random.Random(1001)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(rows) == ref_det(rows)


def test_det_bareiss_needs_pivot_search():
    rows = [[0, 0, 2], [3, 0, 1], [0, 5, 4]]
    assert det_bareiss(rows) == ref_det(rows)


# -- MinorCache values ------------------------------------------------------------


def _sign(x):
    return int(bool(x > 0)) - int(bool(x < 0))


def _random_base(rng, nrows, ncols):
    return [tuple(rng.randint(-5, 5) for _ in range(nrows)) for _ in range(ncols)]


def _minor_matrix(columns, cols):
    k = len(cols)
    return [[columns[c][r] for c in cols] for r in range(k)]


def _hom_matrix(columns, cols):
    k = len(cols)
    rows = [[columns[c][r] for c in cols] for r in range(k - 1)]
    rows.append([1] * k)
    return rows


def _orientation_matrix(columns, cols, lifting):
    k = len(cols)
    rows = [[columns[c][r] for c in cols] for r in range(k - 2)]
    rows.append(list(lifting))
    rows.append([1] * k)
    return rows


def _mask(cols):
    return sum(1 << c for c in cols)


def test_minor_and_hom_values():
    # The recursions behind every entry, on column masks: a pure minor of
    # k >= 2 columns (one column is an entry of the base) and a homogeneous
    # minor of k >= 1.
    rng = random.Random(77)
    for _ in range(25):
        ncols = rng.randint(4, 8)
        nrows = rng.randint(2, 5)
        base = _random_base(rng, nrows, ncols)
        cache = MinorCache(base)
        for _ in range(20):
            k = rng.randint(2, min(nrows, ncols))
            cols = tuple(sorted(rng.sample(range(ncols), k)))
            assert cache._minor(_mask(cols), k) == ref_det(_minor_matrix(base, cols))
            kk = rng.randint(1, min(nrows + 1, ncols))
            cols = tuple(sorted(rng.sample(range(ncols), kk)))
            assert cache._hom(_mask(cols)) == ref_det(_hom_matrix(base, cols))


def test_minor_against_bareiss_route():
    # Dual-route check at unit scale: the cached Laplace recursions and the
    # independent fraction-free elimination must agree exactly.
    rng = random.Random(31)
    for _ in range(50):
        ncols = rng.randint(3, 7)
        nrows = rng.randint(2, 5)
        base = _random_base(rng, nrows, ncols)
        cache = MinorCache(base)
        k = rng.randint(2, min(nrows, ncols))
        cols = tuple(sorted(rng.sample(range(ncols), k)))
        assert cache._minor(_mask(cols), k) == det_bareiss(_minor_matrix(base, cols))
        k = rng.randint(1, min(nrows + 1, ncols))
        cols = tuple(sorted(rng.sample(range(ncols), k)))
        assert cache._hom(_mask(cols)) == det_bareiss(_hom_matrix(base, cols))


def test_hom_sign_and_volume():
    rng = random.Random(13)
    for _ in range(40):
        ncols = rng.randint(4, 8)
        nrows = rng.randint(2, 4)
        base = _random_base(rng, nrows, ncols)
        cache = MinorCache(base)
        k = rng.randint(2, min(nrows + 1, ncols))
        cols = rng.sample(range(ncols), k)  # arbitrary order
        d = ref_det(_hom_matrix(base, cols))
        sign = _sign(d)
        assert cache.hom_sign(cols) == sign
        assert cache.volume_predicate(cols) == abs(d)
    cache = MinorCache([(0, 0), (1, 0), (0, 1)])
    assert cache.hom_sign((1, 1)) == 0
    assert cache.volume_predicate((2, 2)) == 0


def test_orientation_value_and_antisymmetry():
    rng = random.Random(99)
    for _ in range(40):
        ncols = rng.randint(4, 8)
        nrows = rng.randint(2, 4)
        base = _random_base(rng, nrows, ncols)
        cache = MinorCache(base)
        k = rng.randint(2, min(nrows + 2, ncols))
        cols = rng.sample(range(ncols), k)
        lifting = [rng.randint(-6, 6) for _ in range(k)]
        d = ref_det(_orientation_matrix(base, cols, lifting))
        sign = _sign(d)
        assert cache.orientation(cols, lifting) == sign
        if k >= 2:
            swapped = list(cols)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            lswap = list(lifting)
            lswap[0], lswap[1] = lswap[1], lswap[0]
            assert cache.orientation(swapped, lswap) == -sign if sign else sign == 0


def test_orientation_shift_invariance():
    # Adding a constant to every lifting value must not change the sign:
    # the lifting row minus that multiple of the ones row is a row operation.
    rng = random.Random(4)
    base = _random_base(rng, 4, 9)
    cache = MinorCache(base)
    for _ in range(30):
        k = rng.randint(2, 6)
        cols = rng.sample(range(9), k)
        lifting = [rng.randint(-5, 5) for _ in range(k)]
        c = rng.randint(-7, 7)
        shifted = [x + c for x in lifting]
        assert cache.orientation(cols, lifting) == cache.orientation(cols, shifted)


def test_orientation_fraction_lifting():
    # The lifting 1/2, -1/3, 5/6 scaled by its common denominator 6, which
    # keeps the sign.
    base = [(0, 0), (1, 0), (0, 1), (2, 3)]
    cache = MinorCache(base)
    cols = (0, 1, 3)
    lifting = [3, -2, 5]
    d = ref_det(_orientation_matrix(base, cols, lifting))
    assert cache.orientation(cols, lifting) == _sign(d)


def test_orientation_zero_lifting_is_degenerate():
    base = [(0, 0), (1, 0), (0, 1)]
    cache = MinorCache(base)
    assert cache.orientation((0, 1, 2), [0, 0, 0]) == 0


def test_predicates_over_every_column_order():
    # Each order of each column set (and, for orientation, of its aligned
    # lifting) against the sign of the explicitly built matrix.  One cache
    # per base, so later orders are answered from cached minors.
    rng = random.Random(21)
    for nrows, k_hom, k_orient in ((2, 3, 4), (3, 4, 5), (4, 5, 6)):
        ncols = k_orient + 3
        base = _random_base(rng, nrows, ncols)
        cache = MinorCache(base)
        cols = rng.sample(range(ncols), k_hom)
        for order in permutations(cols):
            d = ref_det(_hom_matrix(base, order))
            assert cache.hom_sign(order) == _sign(d), order
        cols = rng.sample(range(ncols), k_orient)
        # The values 0, 1, -2, 3 and 1/2 scaled by 2.
        lifting = [rng.choice((0, 0, 2, -4, 6, 1)) for _ in cols]
        for perm in permutations(range(k_orient)):
            order = [cols[i] for i in perm]
            lift = [lifting[i] for i in perm]
            d = ref_det(_orientation_matrix(base, order, lift))
            assert cache.orientation(order, lift) == _sign(d), order
        # Repeated columns give 0 whatever their lifting.
        assert cache.hom_sign([cols[0]] + cols[:k_hom - 1]) == 0
        assert cache.orientation(cols[:-1] + [cols[0]], [1] * k_orient) == 0
        # Out of range at either end and too many columns raise.
        for bad in (ncols, -1):
            with pytest.raises(ValueError, match="in range"):
                cache.hom_sign(cols[1:k_hom] + [bad])
            with pytest.raises(ValueError, match="in range"):
                cache.orientation([bad] + cols[1:], [1] * k_orient)
        too_many = rng.sample(range(ncols), k_orient + 1)
        with pytest.raises(ValueError):
            cache.hom_sign(too_many[:k_hom + 1])
        with pytest.raises(ValueError):
            cache.orientation(too_many, [1] * (k_orient + 1))


def test_mask_parity_matches_inversion_count():
    # Every order of random column sets, through hom_sign, which folds the
    # columns into a mask one at a time: it answers as the matrix built in
    # that order, and as the sorted columns' sign times the sign of the
    # permutation that sorts the order, counted by inversions.
    rng = random.Random(23)
    base = [tuple(rng.randint(-50, 50) for _ in range(5)) for _ in range(70)]
    cache = MinorCache(base)
    for size in range(1, 7):
        for _ in range(4):
            cols = rng.sample(range(70), size)
            sorted_sign = cache.hom_sign(sorted(cols))
            assert sorted_sign != 0  # so that a wrong parity shows
            for order in permutations(cols):
                sign = _sign(ref_det(_hom_matrix(base, order)))
                assert cache.hom_sign(order) == ref_sort_parity(order) * sorted_sign == sign, order
    with pytest.raises(ValueError):
        cache.hom_sign(())


@pytest.mark.parametrize("use_cache", [True, False])
def test_sorted_entries_over_every_order_and_insertion_point(use_cache):
    # Every order of a column set reaches every insertion point at every
    # step of the any-order entries' masks; they must answer as the matrix
    # built in that order, by Bareiss, and as the sign of the sorted
    # columns' matrix times the parity of the sort.
    rng = random.Random(22)
    for nrows, k_hom, k_orient in ((2, 3, 4), (3, 4, 5), (4, 5, 6)):
        ncols = k_orient + 3
        base = _random_base(rng, nrows, ncols)
        lift = [rng.choice((0, 0, 1, -2, 3)) for _ in range(ncols)]
        cache = MinorCache(base, use_cache=use_cache)
        for order in permutations(rng.sample(range(ncols), k_hom)):
            srt, parity = sorted(order), ref_sort_parity(order)
            sign = _sign(det_bareiss(_hom_matrix(base, order)))
            assert parity * _sign(det_bareiss(_hom_matrix(base, srt))) == sign, order
            assert cache.hom_sign(order) == sign, order
        for order in permutations(rng.sample(range(ncols), k_orient)):
            srt, parity = sorted(order), ref_sort_parity(order)
            lifting = [lift[c] for c in order]
            sign = _sign(det_bareiss(_orientation_matrix(base, order, lifting)))
            sorted_lifting = [lift[c] for c in srt]
            sorted_sign = _sign(det_bareiss(_orientation_matrix(base, srt, sorted_lifting)))
            assert parity * sorted_sign == sign, order
            assert cache.orientation(order, lifting) == sign, order
        # A repeated column, next to its copy, gives 0.
        cols = tuple(sorted(rng.sample(range(ncols), k_orient - 1)))
        assert cache.orientation(cols[:1] + cols, [lift[c] for c in cols[:1] + cols]) == 0
        assert cache.hom_sign(cols[:1] + cols[:k_hom - 1]) == 0
        # Out of range at either end, too many columns and none raise.
        for bad in ((-1,) + cols, cols + (ncols,), tuple(range(nrows + 3)), ()):
            with pytest.raises(ValueError):
                cache.orientation(bad, [1] * len(bad))
        hom_cols = cols[:k_hom - 1]
        for bad in ((-1,) + hom_cols, hom_cols + (ncols,), tuple(range(nrows + 2))):
            with pytest.raises(ValueError):
                cache.hom_sign(bad)


def test_sorted_orientation_counts_match_criterion_5():
    # orientation requests every sub-minor, whatever the column order: 15
    # four-column minors first, 10 new on a column swap, none on a new lift
    # or a new order.
    from golden import MINOR_COUNT_COLUMNS

    cache = MinorCache(MINOR_COUNT_COLUMNS)
    cache.orientation((0, 1, 2, 3, 4, 5), [3, 1, 4, 0, 0, 0])
    first = cache.stats()["pure_misses_by_size"][4]
    cache.orientation((0, 1, 2, 3, 4, 6), [3, 1, 4, 0, 0, 0])
    swap = cache.stats()["pure_misses_by_size"][4] - first
    before = cache.stats()
    cache.orientation((1, 0, 2, 3, 4, 5), [-2, 7, 9, 0, 0, 0])
    after = cache.stats()
    assert (first, swap) == (15, 10)
    assert after["pure_misses"] == before["pure_misses"]
    assert after["hom_misses"] == before["hom_misses"]


# -- MinorCache bookkeeping -----------------------------------------------------


def test_cache_counts_and_reuse():
    # First expansion on six columns of a (2n x |A|) base with a lifting
    # supported on three of them: 15 four-column minors; swapping one column
    # adds 10 new; changing the lifting values adds none.
    cols9 = [
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 0, 0),
        (1, 2, 1, 0),
        (2, 0, 0, 1),
        (0, 1, 0, 0),
        (0, 2, 1, 0),
        (0, 1, 0, 1),
    ]
    cache = MinorCache(cols9)
    cache.orientation((0, 1, 2, 3, 4, 5), (3, 1, 4, 0, 0, 0))
    s1 = cache.stats()
    assert s1["pure_misses_by_size"][4] == 15
    cache.orientation((0, 1, 2, 3, 4, 6), (3, 1, 4, 0, 0, 0))
    s2 = cache.stats()
    assert s2["pure_misses_by_size"][4] - s1["pure_misses_by_size"][4] == 10
    cache.orientation((0, 1, 2, 3, 4, 5), (7, -2, 9, 0, 0, 0))
    s3 = cache.stats()
    assert s3["pure_misses"] == s2["pure_misses"]
    assert s3["hom_misses"] == s2["hom_misses"]


def test_cache_disabled_same_values():
    rng = random.Random(17)
    base = _random_base(rng, 4, 8)
    on = MinorCache(base, use_cache=True)
    off = MinorCache(base, use_cache=False)
    for _ in range(20):
        k = rng.randint(2, 5)
        cols = rng.sample(range(8), k)
        lifting = [rng.randint(-4, 4) for _ in range(k)]
        assert on.orientation(cols, lifting) == off.orientation(cols, lifting)
        assert on.volume_predicate(cols) == off.volume_predicate(cols)
    assert off.entries == 0
    assert on.entries > 0
    # Disabled cache still counts misses (every recursion recomputes).
    assert off.stats()["pure_misses"] >= on.stats()["pure_misses"]
    assert off.stats()["pure_hits"] == 0


def test_cache_clear_keeps_stats():
    base = [(1, 0), (0, 1), (2, 3), (4, 5)]
    cache = MinorCache(base)
    value = cache.volume_predicate((0, 1, 2))
    before = cache.stats()["pure_misses"]
    assert before > 0
    cache.clear()
    assert cache.entries == 0
    assert cache.stats()["pure_misses"] == before  # stats survive clears
    assert cache.stats()["clears"] == 1
    assert cache.volume_predicate((0, 1, 2)) == value  # recomputed after the clear
    assert cache.stats()["pure_misses"] > before


def test_cache_threshold_maintenance():
    # Every public entry clears the tables once they exceed the threshold,
    # and answers as a cache that stores nothing.
    rng = random.Random(3)
    base = _random_base(rng, 4, 9)
    cache = MinorCache(base, threshold=5)
    plain = MinorCache(base, use_cache=False)
    for _ in range(10):
        calls = [
            ("hom_sign", (rng.sample(range(9), 5),)),
            ("volume_predicate", (rng.sample(range(9), 4),)),
            ("orientation", (rng.sample(range(9), 6), [rng.randint(-3, 3) for _ in range(6)])),
        ]
        for name, args in calls:
            assert getattr(cache, name)(*args) == getattr(plain, name)(*args), name
            assert cache.entries <= 5, name
    assert cache.stats()["clears"] >= 1
    assert plain.entries == 0


def test_cache_validates_columns():
    # Range and count are checked before repeated columns answer 0, and
    # each raise counts nothing.
    cache = MinorCache([(1, 0), (0, 1), (1, 1)])
    bad = [
        lambda: cache.hom_sign((0, 5)),  # out of range
        lambda: cache.hom_sign((5, 5)),  # repeated, out of range
        lambda: cache.hom_sign((-1, 0)),
        lambda: cache.hom_sign((0, 1, 2, 0)),  # more columns than rows + 1
        lambda: cache.volume_predicate((3, 3)),
        lambda: cache.volume_predicate((0, 0, 0, 0)),
        lambda: cache.orientation((4, 4), [1, 1]),
        lambda: cache.orientation((0, 0, 0, 0, 0), [1] * 5),
        lambda: cache.orientation((0, 1), [1]),  # misaligned lifting
        # Non-int lifting values and column indices, even ones equal to an
        # int: the determinant is exact only over ints.
        lambda: cache.orientation((0, 1, 2), (1, 2, 0.5)),
        lambda: cache.orientation((0, 1, 2), (1, 2, Fraction(1, 2))),
        lambda: cache.orientation((0, 1, 2), (1, 2, 3.0)),
        lambda: cache.orientation((0, 1.0, 2), (1, 2, 3)),
        lambda: cache.hom_sign((0, 1.0, 2)),
        lambda: cache.hom_sign((0, Fraction(2))),
        lambda: cache.volume_predicate((0, 1.0)),
        lambda: cache.volume_predicate((1.0, 1.0)),  # repeated, not an int
        lambda: MinorCache([(1, 0), (0,)]),  # ragged columns
    ]
    for entry in bad:
        with pytest.raises(ValueError):
            entry()
    assert cache.stats()["predicate_calls"] == 0 and cache.entries == 0
    # A repeated in-range tuple is 0 and counts one call.
    assert cache.hom_sign((1, 1)) == 0
    assert cache.volume_predicate((0, 2, 0)) == 0
    assert cache.orientation((2, 2), [1, 3]) == 0
    assert cache.stats()["predicate_calls"] == 3 and cache.entries == 0


def test_no_columns_raise_and_count_nothing():
    # Every tuple entry rejects an empty column set with one ValueError,
    # before it counts a call or computes a minor.
    cache = MinorCache([(1, 2), (3, 4)])
    entries = [
        lambda: cache.hom_sign(()),
        lambda: cache.volume_predicate(()),
        lambda: cache.orientation((), ()),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="at least one column"):
            entry()
    # Nor does a repeated column skip the other checks.
    with pytest.raises(ValueError, match="in range"):
        cache.hom_sign((2, 2))
    with pytest.raises(ValueError, match="too many columns"):
        cache.volume_predicate((0, 0, 0, 0))
    with pytest.raises(ValueError, match="too many columns"):
        cache.orientation((1,) * 5, (0,) * 5)
    stats = cache.stats()
    assert stats["predicate_calls"] == 0 and stats["pure_misses"] == 0
    assert stats["hom_misses"] == stats["hom_hits"] == 0
    assert cache.entries == 0


# -- adjugate ---------------------------------------------------------------------


def _needs_swap(rows):
    # Whether a leading principal minor of order below n vanishes, so that
    # elimination in row order meets a zero pivot.
    return any(ref_det([r[:k] for r in rows[:k]]) == 0 for k in range(1, len(rows)))


def test_adjugate_matches_reference():
    # det M and adj M from one fraction-free Gauss-Jordan elimination, on
    # seeded matrices of size 0-6: dense ones, ones with a zero leading
    # pivot and anti-triangular ones, whose leading minors all vanish.
    rng = random.Random(1968)
    swapped = 0
    for n in range(7):
        for trial in range(15):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 3 == 1:
                rows[0][0] = 0
            elif n > 1 and trial % 3 == 2:
                rows = [
                    [rng.choice([-3, -2, -1, 1, 2, 3]) if i + j == n - 1 else
                     rng.randint(-5, 5) if i + j > n - 1 else 0 for j in range(n)]
                    for i in range(n)
                ]
            det, adj = ref_adjugate(rows)
            if det == 0:
                with pytest.raises(DegenerateInput):
                    adjugate(rows)
                continue
            swapped += _needs_swap(rows)
            assert adjugate(rows) == (det, adj)
    assert adjugate([]) == (1, [])
    assert swapped >= 20


def test_adjugate_of_a_singular_matrix_raises():
    rng = random.Random(22)
    singular = [[[0]], [[0, 0], [0, 0]], [[1, 2], [2, 4]], [[0, 1, 2], [0, 3, 4], [0, 5, 6]]]
    for n in range(2, 7):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        mix = [rng.randint(-2, 2) for _ in range(n - 1)]
        rows.insert(rng.randrange(n), [sum(c * r[j] for c, r in zip(mix, rows)) for j in range(n)])
        singular.append(rows)
    for rows in singular:
        assert ref_det(rows) == 0
        with pytest.raises(DegenerateInput):
            adjugate(rows)


# -- vector helpers -----------------------------------------------------------------


def test_primitive_and_canonical_direction():
    assert primitive([4, -6, 2]) == (2, -3, 1)
    assert primitive([0, 0]) == (0, 0)
    assert canonical_direction([4, -6, 2]) == (2, -3, 1)
    assert canonical_direction([-4, 0]) == (-1, 0)
    with pytest.raises(InvalidDirection):
        canonical_direction([0, 0, 0])


def test_canonical_hyperplane():
    assert canonical_hyperplane([2, 4], 6) == ((1, 2), 3)
    assert canonical_hyperplane([-3, 0], 9) == ((-1, 0), 3)
    assert canonical_hyperplane([0, 0, 5], 0) == ((0, 0, 1), 0)


@pytest.mark.parametrize(
    "entry",
    [
        primitive,
        canonical_direction,
        lambda vec: canonical_hyperplane(vec[:-1], vec[-1]),
    ],
    ids=["primitive", "canonical_direction", "canonical_hyperplane"],
)
@pytest.mark.parametrize(
    "x", [Fraction(1, 2), 0.5, Fraction(1), 1.0], ids=["fraction", "float", "fraction-1", "float-1"]
)
def test_normal_forms_reject_non_int_entries(entry, x):
    # math.gcd raises TypeError on these, even on one equal to an int; the
    # exact layer raises ValueError, as its other entries do.
    for vec in ([x, 1], (2, 4, x), [x, x]):
        with pytest.raises(ValueError, match="must be ints"):
            entry(vec)


# -- charts / rank / kernels --------------------------------------------------------


def test_affine_chart_outcomes():
    # Unique: the columns (2, 0) and (0, 3) at p0 = (1, 1).
    chart = AffineChart((1, 1), [(2, 0), (0, 3)])
    assert chart.coords((5, 7)) == (2, 2)
    assert chart.coords((2, 1)) is None  # xi = (1/2, 0): off the lattice
    assert chart.det in (6, -6)
    # A line in the plane: off its affine hull, and on it but off the lattice
    # of a basis vector with det +-2.
    line = AffineChart((0, 0), [(2, 2)])
    assert line.coords((4, 4)) == (2,)
    assert line.coords((1, 0)) is None
    assert line.coords((1, 1)) is None
    assert abs(line.det) == 2
    # Dependent basis vectors:
    with pytest.raises(DegenerateInput):
        AffineChart((0, 0), [(1, 1), (2, 2)])
    with pytest.raises(DegenerateInput):
        AffineChart((0, 0, 0), [(1, 0, 2), (0, 0, 0)])
    # Overdetermined but consistent: three equations, two unknowns.
    over = AffineChart((0, 0, 0), [(1, 0, 1), (0, 1, 1)])
    assert over.coords((2, 3, 5)) == (2, 3)
    assert over.coords((2, 3, 6)) is None
    # (B^T B)^{-1} B^T = pull^T / gram_det, with gram_det = det(B^T B).
    assert over.gram_det == 3
    pinv = [[Fraction(row[i], over.gram_det) for row in over.pull] for i in range(2)]
    assert pinv == [[Fraction(2, 3), Fraction(-1, 3), Fraction(1, 3)],
                    [Fraction(-1, 3), Fraction(2, 3), Fraction(1, 3)]]


def test_affine_chart_random_vs_reference():
    rng = random.Random(2024)
    for _ in range(80):
        k = rng.randint(1, 4)
        m = rng.randint(k, k + 2)
        cols = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        rows = [[c[j] for c in cols] for j in range(m)]
        p0 = [rng.randint(-3, 3) for _ in range(m)]
        if ref_rank(cols) < k:
            with pytest.raises(DegenerateInput):
                AffineChart(p0, cols)
            continue
        chart = AffineChart(p0, cols)
        xi = tuple(rng.randint(-5, 5) for _ in range(k))
        on = [p + sum(r * t for r, t in zip(row, xi)) for p, row in zip(p0, rows)]
        assert chart.coords(on) == xi
        x = [rng.randint(-6, 6) for _ in range(m)]
        ref = ref_solve_unique(rows, [a - b for a, b in zip(x, p0)])
        if ref is None or any(t.denominator != 1 for t in ref):
            assert chart.coords(x) is None
        else:
            assert chart.coords(x) == ref


def test_affine_chart_tests_the_rows_off_its_pivots():
    # coords reads xi off the rows J alone, where B_J is nonsingular, and
    # tests only the other rows: a point that agrees on J with a lattice
    # point but differs in one row outside J is off the affine hull.
    rng = random.Random(1452)
    checked = 0
    while checked < 30:
        m = rng.randint(2, 6)
        k = rng.randint(1, m - 1)
        basis = saturated_basis([[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)], m)
        if not basis:
            continue
        p0 = [rng.randint(-3, 3) for _ in range(m)]
        chart = AffineChart(p0, basis)
        xi = tuple(rng.randint(-5, 5) for _ in basis)
        x = [p + sum(b[j] * t for b, t in zip(basis, xi)) for j, p in enumerate(p0)]
        assert chart.coords(x) == xi
        j = rng.choice([j for j in range(m) if j not in chart.rows])
        x[j] += rng.choice([-2, -1, 1, 2])
        assert ref_rank(list(basis) + [[a - b for a, b in zip(x, p0)]]) > len(basis)
        assert chart.coords(x) is None
        checked += 1


def test_rank_and_affine_dim():
    rng = random.Random(8)
    for _ in range(50):
        rows = [
            [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        ]
        width = len(rows[0])
        for _ in range(rng.randint(0, 4)):
            rows.append([rng.randint(-4, 4) for _ in range(width)])
        assert rank_int(rows) == ref_rank(rows)
        # Each row over denominators up to 6, scaled by their multiple 60.
        scaled = [[x * 60 // rng.randint(1, 6) for x in row] for row in rows]
        assert rank_int(scaled) == ref_rank(rows)
    # The affine dimension of a point set, as essential_violation reads it:
    # the rank of the differences from the first point.
    assert rank_int([]) == 0
    assert _affine_rank([(3, 3)]) == 0
    assert _affine_rank([(0, 0), (2, 0), (1, 0)]) == 1
    assert _affine_rank([(0, 0), (1, 0), (0, 1)]) == 2


def _affine_rank(points, cap=None):
    return rank_int([vec_sub(p, points[0]) for p in points[1:]], cap)


def test_rank_and_affine_dim_stop_at_their_cap():
    rng = random.Random(9)
    for _ in range(40):
        width = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(rng.randint(0, 6))]
        rank = ref_rank(rows)
        points = [tuple(row) for row in rows]
        for cap in range(width + 2):
            assert rank_int(rows, cap) == min(rank, cap)
            if points:
                assert _affine_rank(points, cap) == min(ref_affine_dim(points), cap)
    # Rows past the one that reaches the cap are never read.
    def rows_then_fail():
        yield (1, 0, 0)
        yield (0, 2, 0)
        raise AssertionError("read past the cap")
    assert rank_int(rows_then_fail(), 2) == 2


def test_integer_kernel_basic():
    rows = [[1, 1, 0], [0, 1, 1]]
    basis = integer_kernel(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in rows)
    assert integer_kernel([], 2) == [(1, 0), (0, 1)]


def test_integer_kernel_size_is_the_corank():
    # initialize reads a point set's rank off its kernel: ncols - rank.
    rng = random.Random(3302)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
        rows += [list(row) for row in rows[: rng.randint(0, 2)]]  # repeated rows
        basis = integer_kernel(rows, ncols)
        assert len(basis) == ncols - ref_rank(rows)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows for v in basis)


def test_kernel_and_saturation_clear_rational_entries():
    # The rational row (1/2, 1) scaled by its denominator 2 keeps its span
    # and its kernel.
    assert saturated_basis([(1, 2)], ambient_dim=2) in ([(1, 2)], [(-1, -2)])
    assert integer_kernel([[1, 2]], 2) in ([(2, -1)], [(-2, 1)])


def test_integer_kernel_is_saturated():
    # The returned basis must generate ALL integer kernel vectors over Z,
    # not just over Q.  This matrix defeats naive cleared-fraction RREF.
    rows = [[3, 1, 0, 1], [0, 0, 1, 0]]
    basis = integer_kernel(rows, 4)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(4)) == 0 for r in rows)
    # (1, -3, 0, 0) and (0, 1, 0, -1) are integer kernel members; both must
    # be integer combinations of the basis.
    rows_b = [tuple(col) for col in zip(*basis)]
    for target in [(1, -3, 0, 0), (0, 1, 0, -1)]:
        sol = ref_solve_unique(rows_b, target)
        assert sol is not None
        assert all(x.denominator == 1 for x in sol)


def test_integer_kernel_matches_its_earlier_form():
    # The column-list form does the earlier form's arithmetic, so it returns
    # the same basis vectors in the same order: Q's chart and the certified
    # equations are read off that order.  Empty row lists, zero rows and
    # repeated rows are drawn too, up to 10 x 9.
    rng = random.Random(3301)
    vectors = 0
    for _ in range(20000):
        ncols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.random()
            if rows and kind < 0.1:
                rows.append(list(rng.choice(rows)))
            elif kind < 0.2:
                rows.append([0] * ncols)
            else:
                rows.append([rng.choice((0, 0, 1, -1, 2, -3, rng.randint(-50, 50))) for _ in range(ncols)])
        basis = integer_kernel(rows, ncols)
        assert basis == ref_integer_kernel(rows, ncols), rows
        vectors += len(basis)
    assert vectors > 20000  # most draws have a kernel


def test_saturated_basis_properties():
    rng = random.Random(55)
    for _ in range(40):
        m = rng.randint(2, 5)
        nv = rng.randint(1, 4)
        vecs = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(nv)]
        basis = saturated_basis(vecs, ambient_dim=m)
        assert len(basis) == ref_rank(vecs)
        if not basis:
            continue
        rows_b = [tuple(col) for col in zip(*basis)]
        # Every input vector has integer coordinates in the basis.
        for v in vecs:
            sol = ref_solve_unique(rows_b, v)
            assert sol is not None
            assert all(x.denominator == 1 for x in sol)
    # Scaled generators still give a unimodular-saturated basis:
    basis = saturated_basis([(2, 0), (0, 2)], ambient_dim=2)
    rows_b = [tuple(col) for col in zip(*basis)]
    sol = ref_solve_unique(rows_b, (1, 1))
    assert sol is not None and all(x.denominator == 1 for x in sol)
