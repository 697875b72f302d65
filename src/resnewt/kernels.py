"""Determinant kernels.

This module implements the hot numeric core: a fraction-free integer
determinant and a cache of signed minors of a fixed base matrix.  The cache
serves two geometric predicates built from the same column data:

* ``volume_predicate`` and ``hom_sign`` — determinant of chosen columns with
  an all-ones homogenizing row appended (expanded along the ones row into pure
  minors),
* ``orientation`` — determinant of chosen columns extended by a per-column
  lifting value and the ones row (expanded along the lifting row into
  homogeneous minors).

Because the base matrix excludes both the lifting and the homogenizing row,
every cached minor is independent of the lifting, so one cache accelerates
predicate evaluations across many lifting directions.  The base matrix and
the liftings are integers, each column and lifting checked by
``exactlin.int_vector`` with its length, so every minor is an exact integer.

Most predicate calls are answered from cached minors, so the work around a
lookup is kept small.  A set of columns is an ``int`` bitmask, bit c for
column c: a key hashes as one integer, and a column goes in or out by one
OR or XOR.  The any-order entries check their arguments, fold in the
parity of the permutation that sorts their columns and call one mask-level
routine each: ``hom_minor`` (h of a mask, behind ``hom_sign`` and
``volume_predicate``) or ``lifted_sign`` (a sorted mask followed by one
column under a lift, behind ``orientation``).  The oracle calls those
routines directly on masks it built, for the sign of its first simplex,
the side of a tilted flat and the volumes of the cells that rho sums, so
its queries pay for no argument check.  Its hulls call batches on the
(mask, q) pairs of a whole boundary: ``split_boundary`` at dimension 2n,
``split_lifted`` and ``upper_facets`` on a full-dimensional lifted hull.
Every mask-level routine and every batch reads one clock pair and checks
the cache threshold once.

``BACKEND`` names the implementation in run reports (``--stats`` and the
benchmark's result context); there is one, in pure Python.
"""

from time import perf_counter

from .exactlin import int_vector

__all__ = [
    "det_bareiss",
    "MinorCache",
    "BACKEND",
]

BACKEND = "python"


def det_bareiss(rows):
    """Exact determinant of a square integer matrix, fraction-free.

    Uses Bareiss elimination: every intermediate value is an exact integer
    and every division is exact.  Returns 0 for singular matrices.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    for row in a:
        if len(row) != n:
            raise ValueError("det_bareiss requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = -1
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    pivot = r
                    break
            if pivot < 0:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai = a[i]
            ak = a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


class MinorCache:
    """Cache of signed minors of one fixed integer base matrix.

    The base matrix is given column-wise, as vectors of ``int``s of one
    length (else ``ValueError``); minors are keyed by the bitmask of
    their columns (bit c for column c), taken in increasing order, and
    always take the *top* rows of matching count.  Two tables are kept:

    * pure minors  ``m(S)``: rows ``0..|S|-1`` of columns ``S``;
    * homogeneous minors ``h(S)``: rows ``0..|S|-2`` of columns ``S`` plus a
      final all-ones row.

    Laplace expansions are pinned so that every sub-determinant lands back in
    these tables: ``h`` expands along the ones row into pure minors, and the
    ``orientation`` predicate expands along its lifting row into homogeneous
    minors, each over the set bits in increasing order, a sub-minor's mask
    being the mask with one bit cleared; a pure minor's expansion skips the
    columns whose entry in its row is 0.  The public lifting row expansion
    requests *every* sub-minor ``h(S\\j)`` (even where the lifting value is
    zero) so that the cache is fully primed for subsequent liftings on the
    same columns; the oracle's batch ``split_lifted`` reads only those a
    nonzero lift multiplies.

    The public entries take column tuples and convert them once; each
    raises ``ValueError`` on no columns, too many, one that is not an
    ``int`` or out of range (``orientation`` also on a lifting that is not
    one ``int`` per column), and only then answers 0 for a repeated column.  Statistics
    count hits and misses (misses = actually computed minors), with
    pure-minor counts broken down by size; counters are cumulative and
    survive cache clears.  ``predicate_time`` sums the time spent inside the
    entries and batches after their arguments are checked; each clears the
    tables on its way out once they hold more than ``threshold`` minors.
    """

    def __init__(self, columns, threshold=10 ** 6, use_cache=True):
        cols = list(columns)
        nrows = len(cols[0]) if cols else 0
        cols = [int_vector(c, nrows) for c in cols]
        self._columns = cols
        self._nrows = nrows
        self._rows = [tuple(c[r] for c in cols) for r in range(nrows)]
        # Per row, the mask of the columns with a nonzero entry there.
        self._nonzero = [sum(1 << c for c, x in enumerate(row) if x) for row in self._rows]
        self.threshold = threshold
        self.use_cache = use_cache
        self._pure_tab = {}
        self._hom_tab = {}
        self.pure_misses = [0] * (nrows + 1)  # by size
        self.pure_hits = [0] * (nrows + 1)
        self.hom_misses = 0
        self.hom_hits = 0
        self.clears = 0
        self.predicate_calls = 0
        self.predicate_time = 0.0

    # -- bookkeeping -------------------------------------------------------

    @property
    def entries(self):
        return len(self._pure_tab) + len(self._hom_tab)

    def clear(self):
        """Drop all cached minors (statistics counters are kept)."""
        self._pure_tab.clear()
        self._hom_tab.clear()
        self.clears += 1

    def stats(self):
        """Snapshot of all counters as a plain dict."""
        return {
            "pure_misses_by_size": {k: v for k, v in enumerate(self.pure_misses) if v},
            "pure_hits_by_size": {k: v for k, v in enumerate(self.pure_hits) if v},
            "pure_misses": sum(self.pure_misses),
            "pure_hits": sum(self.pure_hits),
            "hom_misses": self.hom_misses,
            "hom_hits": self.hom_hits,
            "entries": self.entries,
            "clears": self.clears,
            "predicate_calls": self.predicate_calls,
            "predicate_time": self.predicate_time,
        }

    # -- recursions (column masks; cofactor signs alternate over set bits) --
    # Each computes a minor its caller did not find in the tables, and looks
    # every sub-minor up there before it recurses, counting the hits.

    def _minor(self, mask, k):
        # The pure minor of the k >= 2 columns of mask, expanded along row
        # k-1 over the columns with a nonzero entry there; the column in
        # place i of mask has cofactor sign (-1)^(k-1+i).
        rows = self._rows
        if k == 2:
            a, b = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            total = rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a]
        else:
            tab, row = self._pure_tab, rows[k - 1]
            total = 0
            m = mask & self._nonzero[k - 1]
            while m:
                low = m & -m
                m ^= low
                sub = mask ^ low
                v = tab.get(sub)
                if v is None:
                    v = self._minor(sub, k - 1)
                else:
                    self.pure_hits[k - 1] += 1
                v *= row[low.bit_length() - 1]
                total += -v if (k - 1 + (mask & (low - 1)).bit_count()) & 1 else v
        self.pure_misses[k] += 1
        if self.use_cache:
            self._pure_tab[mask] = total
        return total

    def _hom(self, mask):
        # The homogeneous minor of mask, expanded along the ones row.
        k = mask.bit_count()
        if k == 1:
            return 1
        if k == 2:
            row = self._rows[0]
            total = row[(mask & -mask).bit_length() - 1] - row[mask.bit_length() - 1]
        else:
            tab = self._pure_tab
            total = 0
            neg = not k & 1  # the lowest column's cofactor sign is (-1)^(k-1)
            m = mask
            while m:
                low = m & -m
                m ^= low
                sub = mask ^ low
                v = tab.get(sub)
                if v is None:
                    v = self._minor(sub, k - 1)
                else:
                    self.pure_hits[k - 1] += 1
                total += -v if neg else v
                neg = not neg
        self.hom_misses += 1
        if self.use_cache:
            self._hom_tab[mask] = total
        return total

    # -- argument checks -----------------------------------------------------

    def _checked_mask(self, cols, max_len):
        # (mask, parity) of distinct columns in any order, or (0, 0) when a
        # column repeats: the determinant is 0, which counts as one call.
        if not cols:
            raise ValueError("a predicate needs at least one column")
        if len(cols) > max_len:
            raise ValueError("too many columns for this base matrix")
        if not all(map(int.__instancecheck__, cols)):
            raise ValueError("column indices must be ints, got %r" % (cols,))
        if min(cols) < 0 or max(cols) >= len(self._columns):
            raise ValueError("column indices must be in range")
        if len(set(cols)) != len(cols):
            self.predicate_calls += 1
            return 0, 0
        # Putting column c into a mask S flips the parity once per column of
        # S above c, so it flips exactly when ``(S >> c).bit_count()`` is odd.
        mask, parity = 0, 1
        for c in cols:
            if (mask >> c).bit_count() & 1:
                parity = -parity
            mask |= 1 << c
        return mask, parity

    # -- public API ---------------------------------------------------------
    # Each entry checks its arguments, then calls one mask-level routine,
    # which takes one perf_counter pair and ends with ``_done``, so no clock
    # pair nests.

    def hom_sign(self, cols):
        """Sign of the homogeneous determinant with columns in *given* order.

        Accepts an arbitrary order of distinct column indices; the sign of
        the sorting permutation is folded in.  Repeated columns give 0.
        """
        mask, parity = self._checked_mask(tuple(cols), self._nrows + 1)
        if not mask:
            return 0
        h = self.hom_minor(mask)
        return parity * ((h > 0) - (h < 0))

    def volume_predicate(self, cols):
        """Absolute homogeneous determinant (normalized simplex volume).

        Accepts an arbitrary order of distinct column indices; repeated
        columns give 0.
        """
        mask = self._checked_mask(tuple(cols), self._nrows + 1)[0]
        return abs(self.hom_minor(mask)) if mask else 0

    def orientation(self, cols, lifting):
        """Sign of the determinant of columns extended by lifting + ones row.

        The matrix has the coordinate rows of the chosen columns, one row of
        per-column lifting values, then the all-ones row.  ``lifting`` is
        aligned with ``cols`` (any order; the permutation sign is folded in)
        and its values are ``int``s.  The expansion runs along the lifting
        row of the sorted columns (``lifted_sign``).
        """
        cols = tuple(cols)
        lifting = int_vector(lifting, len(cols))
        mask, parity = self._checked_mask(cols, self._nrows + 2)
        if not mask:
            return 0
        # The sorted columns are the rest of the mask followed by its top one.
        top = mask.bit_length() - 1
        return parity * self.lifted_sign(mask ^ 1 << top, top, dict(zip(cols, lifting)))

    # -- mask-level predicates -----------------------------------------------------
    # The routines behind the entries above, on a column mask the caller
    # knows to be valid: the oracle calls them on masks it built itself.
    # Each counts one predicate call.

    def hom_minor(self, mask):
        """h(mask), the homogeneous minor of the sorted columns of ``mask`` != 0."""
        t0 = perf_counter()
        value = self._hom_tab.get(mask)
        hit = value is not None
        if not hit:
            value = self._hom(mask)
        self._done(t0, 1, hit)
        return value

    def lifted_sign(self, mask, col, lift):
        """Lifted orientation of the sorted columns of ``mask``, then ``col``.

        ``col`` is not in ``mask``; ``lift`` is indexed by column.  The
        determinant of the columns, extended by their lifts and the ones row,
        is expanded along the lifting row of the sorted columns, and every
        homogeneous sub-minor is requested (and thus cached) even when its
        lifting coefficient is 0.
        """
        t0 = perf_counter()
        hom_tab = self._hom_tab
        hits = 0
        total = 0
        cols = mask | 1 << col
        # The column in sorted place i has cofactor sign (-1)^(k-2+i) along
        # row k-2: (-1)^k for the lowest bit, then alternating.
        sign = -1 if cols.bit_count() & 1 else 1
        m = cols
        while m:
            low = m & -m
            m ^= low
            sub = cols ^ low
            h = hom_tab.get(sub)
            if h is None:
                h = self._hom(sub)
            else:
                hits += 1
            w = lift[low.bit_length() - 1]
            if w:
                total += sign * w * h
            sign = -sign
        self._done(t0, 1, hits)
        # Appending col after the sorted mask flips the sorted orientation
        # once per column of mask above col.
        if (mask >> col).bit_count() & 1:
            total = -total
        return (total > 0) - (total < 0)

    # -- batches for the oracle's hulls -----------------------------------------
    # Each counts one predicate call per simplex, a pair (mask, q) of a hull
    # of dimension 2n (its determinants homogeneous minors) or 2n+1 (lifted
    # determinants): q is the orientation of the mask's sorted columns
    # followed by the simplex's witness, a point of the hull off its
    # hyperplane.

    def split_boundary(self, pairs, col):
        """(visible, kept) split of the (mask, q) ``pairs`` by the column ``col``.

        The hull has dimension 2n, so the orientation of a pair's sorted
        columns with ``col`` appended is a homogeneous minor; the pair is
        visible when it is -q.
        """
        t0 = perf_counter()
        hom_tab, hom = self._hom_tab, self._hom
        hits = 0
        bit = 1 << col
        visible, keep = [], []
        for pair in pairs:
            mask, q = pair
            cols = mask | bit
            total = hom_tab.get(cols)
            if total is None:
                total = hom(cols)
            else:
                hits += 1
            # sign(total) is the sorted orientation; appending col instead
            # flips it once per column of mask above col.
            if (mask >> col).bit_count() & 1:
                q = -q
            (visible if (total > 0) - (total < 0) == -q else keep).append(pair)
        self._done(t0, len(pairs), hits)
        return visible, keep

    def split_lifted(self, pairs, col, lift, lift_mask):
        """(visible, kept) split of the (mask, q) ``pairs`` by the column ``col``.

        A pair is visible when the orientation of its sorted columns with
        ``col`` appended is -q.  That orientation is a lifted determinant
        (``lift`` indexed by column) expanded over the columns in
        ``lift_mask``, which must hold exactly the columns whose lift is
        nonzero: unlike ``orientation``, no minor that a 0 multiplies is
        read.
        """
        t0 = perf_counter()
        hom_tab, hom = self._hom_tab, self._hom
        hits = 0
        bit = 1 << col
        visible, keep = [], []
        for pair in pairs:
            mask, q = pair
            cols = mask | bit
            total = 0
            m = cols & lift_mask
            while m:
                low = m & -m
                m ^= low
                c = low.bit_length() - 1
                sub = cols ^ low
                h = hom_tab.get(sub)
                if h is None:
                    h = hom(sub)
                else:
                    hits += 1
                # Cofactor sign along the lifting row: negative when an odd
                # number of columns lie at or above c.
                w = lift[c]
                total += -w * h if (cols >> c).bit_count() & 1 else w * h
            # sign(total) is the sorted orientation; appending col instead
            # flips it once per column of mask above col.
            if (mask >> col).bit_count() & 1:
                q = -q
            (visible if (total > 0) - (total < 0) == -q else keep).append(pair)
        self._done(t0, len(pairs), hits)
        return visible, keep

    def upper_facets(self, pairs):
        """(masks, volumes |h(mask)|) of the (mask, q) ``pairs`` facing up.

        A point far up the lifting axis sees a facet when its orientation
        with it, which tends to -lift * h(mask), is -q: when h(mask) has the
        sign q.
        """
        t0 = perf_counter()
        hom_tab = self._hom_tab
        hits = 0
        masks, volumes = [], []
        for mask, q in pairs:
            h = hom_tab.get(mask)
            if h is None:
                h = self._hom(mask)
            else:
                hits += 1
            if (h > 0) - (h < 0) == q:
                masks.append(mask)
                volumes.append(abs(h))
        self._done(t0, len(pairs), hits)
        return masks, volumes

    def _done(self, t0, calls, hits):
        # Count, stop the clock pair, and clear past ``threshold`` minors.
        self.predicate_calls += calls
        self.hom_hits += hits
        self.predicate_time += perf_counter() - t0
        if len(self._pure_tab) + len(self._hom_tab) > self.threshold:
            self.clear()
