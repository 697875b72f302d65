"""Determinant kernels.

This module implements the hot numeric core: a fraction-free integer
determinant and a cache of signed minors of a fixed base matrix.  The cache
serves two geometric predicates built from the same column data:

* ``volume_predicate`` / ``hom_det`` — determinant of chosen columns with an
  all-ones homogenizing row appended (expanded along the ones row into pure
  minors),
* ``orientation`` — determinant of chosen columns extended by a per-column
  lifting value and the ones row (expanded along the lifting row into
  homogeneous minors).

Because the base matrix excludes both the lifting and the homogenizing row,
every cached minor is independent of the lifting, so one cache accelerates
predicate evaluations across many lifting directions.

Most predicate calls are answered from cached minors, so the work around a
lookup is kept small.  The any-order entries sort their columns by
bisection (``sorted_with_parity``) and fold in the parity of the
permutation that sorted them.  The oracle's hulls call batches,
``split_boundary`` and ``upper_facets``, on a whole boundary whose simplices
carry their sorted columns and sort parity.  Every entry and every batch
reads one clock pair and checks the cache threshold once.

``BACKEND`` names the implementation in run reports (``--stats`` and the
benchmark's result context); there is one, in pure Python.
"""

from bisect import bisect_left
from itertools import combinations
from time import perf_counter

__all__ = [
    "det_bareiss",
    "MinorCache",
    "BACKEND",
    "insert_sorted",
    "sorted_with_parity",
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


def _sign(value):
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def insert_sorted(cols, parity, col):
    """Insert ``col`` into the sorted tuple ``cols`` by bisection.

    ``parity`` is the sign of the permutation that sorted ``cols``; putting
    ``col`` in flips it once for each column after the insertion point.
    Returns (new tuple, its parity).  A column already in ``cols`` goes in
    next to its copy, and every predicate of the result is 0.
    """
    p = bisect_left(cols, col)
    if (len(cols) - p) & 1:
        parity = -parity
    return cols[:p] + (col,) + cols[p:], parity


def sorted_with_parity(cols):
    """(sorted tuple of ``cols``, sign of the permutation that sorts them)."""
    srt, parity = (), 1
    for c in cols:
        srt, parity = insert_sorted(srt, parity, c)
    return srt, parity


class MinorCache:
    """Cache of signed minors of one fixed integer base matrix.

    The base matrix is given column-wise; minors are keyed by strictly
    increasing column-index tuples and always take the *top* rows of matching
    count.  Two tables are kept:

    * pure minors  ``m(S)``: rows ``0..|S|-1`` of columns ``S``;
    * homogeneous minors ``h(S)``: rows ``0..|S|-2`` of columns ``S`` plus a
      final all-ones row.

    Laplace expansions are pinned so that every sub-determinant lands back in
    these tables: ``h`` expands along the ones row into pure minors, and the
    ``orientation`` predicate expands along its lifting row into homogeneous
    minors.  The public lifting row expansion requests *every* sub-minor
    ``h(S\\j)`` (even where the lifting value is zero) so that the cache is
    fully primed for subsequent liftings on the same columns; the oracle's
    batch ``split_boundary`` reads only those a nonzero lift multiplies.

    Statistics count hits and misses (misses = actually computed minors),
    with pure-minor counts broken down by size; counters are cumulative and
    survive cache clears.  ``predicate_time`` sums the time spent inside the
    entries and batches after their arguments are checked; each clears the
    tables on its way out once they hold more than ``threshold`` minors.
    """

    def __init__(self, columns, threshold=10 ** 6, use_cache=True):
        cols = [tuple(int(x) for x in c) for c in columns]
        if cols:
            nrows = len(cols[0])
            for c in cols:
                if len(c) != nrows:
                    raise ValueError("all columns must have equal length")
        else:
            nrows = 0
        self._columns = cols
        self._nrows = nrows
        self.threshold = threshold
        self.use_cache = use_cache
        self._pure_tab = {}
        self._hom_tab = {}
        self.pure_misses = {}
        self.pure_hits = {}
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
            "pure_misses_by_size": dict(self.pure_misses),
            "pure_hits_by_size": dict(self.pure_hits),
            "pure_misses": sum(self.pure_misses.values()),
            "pure_hits": sum(self.pure_hits.values()),
            "hom_misses": self.hom_misses,
            "hom_hits": self.hom_hits,
            "entries": self.entries,
            "clears": self.clears,
            "predicate_calls": self.predicate_calls,
            "predicate_time": self.predicate_time,
        }

    # -- recursions (cols: strictly increasing tuples) ---------------------

    def _minor(self, cols):
        k = len(cols)
        if k == 1:
            return self._columns[cols[0]][0]
        if self.use_cache:
            v = self._pure_tab.get(cols)
            if v is not None:
                self.pure_hits[k] = self.pure_hits.get(k, 0) + 1
                return v
        row = k - 1
        total = 0
        sign = -1 if row & 1 else 1
        for j in range(k):
            coef = self._columns[cols[j]][row]
            if coef:
                total += sign * coef * self._minor(cols[:j] + cols[j + 1:])
            sign = -sign
        self.pure_misses[k] = self.pure_misses.get(k, 0) + 1
        if self.use_cache:
            self._pure_tab[cols] = total
        return total

    def _hom(self, cols):
        k = len(cols)
        if k == 1:
            return 1
        if self.use_cache:
            v = self._hom_tab.get(cols)
            if v is not None:
                self.hom_hits += 1
                return v
        total = 0
        sign = -1 if (k - 1) & 1 else 1
        for j in range(k):
            total += sign * self._minor(cols[:j] + cols[j + 1:])
            sign = -sign
        self.hom_misses += 1
        if self.use_cache:
            self._hom_tab[cols] = total
        return total

    # -- argument checks -----------------------------------------------------

    def _check_increasing(self, cols, max_len):
        if len(cols) > max_len:
            raise ValueError("too many columns for this base matrix")
        prev = -1
        for c in cols:
            if c <= prev or c >= len(self._columns):
                raise ValueError("column indices must be strictly increasing and in range")
            prev = c

    def _check_sorted(self, cols, max_len):
        # Sorted distinct columns are strictly increasing, so only the length
        # and the two ends need checking.
        if len(cols) > max_len:
            raise ValueError("too many columns for this base matrix")
        if cols and (cols[0] < 0 or cols[-1] >= len(self._columns)):
            raise ValueError("column indices must be strictly increasing and in range")

    # -- public API ---------------------------------------------------------
    # Each entry takes one perf_counter pair and ends with ``_done``, so no
    # clock pair nests.

    def minor(self, cols):
        """Pure minor: determinant of the top ``len(cols)`` rows of ``cols``.

        ``cols`` must be strictly increasing.
        """
        cols = tuple(cols)
        self._check_increasing(cols, self._nrows)
        t0 = perf_counter()
        value = self._minor(cols)
        self._done(t0, 0, 0)
        return value

    def hom_det(self, cols):
        """Homogeneous minor: top ``len(cols)-1`` rows plus an all-ones row.

        ``cols`` must be strictly increasing.
        """
        cols = tuple(cols)
        self._check_increasing(cols, self._nrows + 1)
        t0 = perf_counter()
        value = self._hom(cols)
        self._done(t0, 0, 0)
        return value

    def hom_sign(self, cols):
        """Sign of the homogeneous determinant with columns in *given* order.

        Accepts an arbitrary order of distinct column indices; the sign of
        the sorting permutation is folded in.  Repeated columns give 0.
        """
        cols = tuple(cols)
        if len(set(cols)) != len(cols):
            self.predicate_calls += 1
            return 0
        srt, parity = sorted_with_parity(cols)
        self._check_sorted(srt, self._nrows + 1)
        t0 = perf_counter()
        value = self._hom_tab.get(srt)
        hit = value is not None
        if not hit:
            value = self._hom(srt)
        self._done(t0, 1, hit)
        return parity * _sign(value)

    def volume_predicate(self, cols):
        """Absolute homogeneous determinant (normalized simplex volume).

        Accepts an arbitrary order of distinct column indices; repeated
        columns give 0.
        """
        cols = tuple(cols)
        if len(set(cols)) != len(cols):
            self.predicate_calls += 1
            return 0
        srt = tuple(sorted(cols))
        self._check_sorted(srt, self._nrows + 1)
        t0 = perf_counter()
        value = self._hom(srt)
        self._done(t0, 1, 0)
        return value if value >= 0 else -value

    def orientation(self, cols, lifting):
        """Sign of the determinant of columns extended by lifting + ones row.

        The matrix has the coordinate rows of the chosen columns, one row of
        per-column lifting values, then the all-ones row.  ``lifting`` is
        aligned with ``cols`` (any order; the permutation sign is folded in)
        and its values may be integers or ``fractions.Fraction``.  The
        columns are sorted with the parity of the sorting permutation, and
        the expansion runs along the lifting row; every homogeneous
        sub-minor is requested (and thus cached) even when its lifting
        coefficient is 0.  No columns raise ``ValueError``.
        """
        cols = tuple(cols)
        k = len(cols)
        if k != len(lifting):
            raise ValueError("lifting must align with cols")
        if not k:
            raise ValueError("orientation needs at least one column")
        if len(set(cols)) != k:
            self.predicate_calls += 1
            return 0
        lift = dict(zip(cols, lifting))
        cols, parity = sorted_with_parity(cols)
        self._check_sorted(cols, self._nrows + 2)
        t0 = perf_counter()
        hom_tab = self._hom_tab
        hits = 0
        total = 0
        # combinations() yields cols without position j for j = k-1 down to
        # 0, whose cofactor sign along row k-2 is (-1)^(k-2+j): -1 first,
        # then alternating.  The order of the requests changes no count: the
        # minors computed are those reachable through minors not cached when
        # the call starts, in whatever order they are reached.
        sign = -1
        for sub, c in zip(combinations(cols, k - 1), reversed(cols)):
            h = hom_tab.get(sub)
            if h is None:
                h = self._hom(sub)
            else:
                hits += 1
            w = lift[c]
            if w:
                total += sign * w * h
            sign = -sign
        self._done(t0, 1, hits)
        return parity * _sign(total)

    # -- batches for the oracle's hulls -----------------------------------------
    # Each takes ``geometry._BoundarySimplex``es with ``key`` (sorted columns)
    # and ``parity`` set, and counts one predicate call per simplex.

    def split_boundary(self, boundary, col, lift=None):
        """(visible, kept) split of ``boundary`` by the new column ``col``.

        A simplex is visible when its orientation with ``col`` appended is
        the negative of its ``inner_sign``.  That orientation is a
        homogeneous minor when ``lift`` is None, else a lifted determinant
        (``lift`` indexed by column) expanded over the columns whose lift is
        nonzero only: unlike ``orientation``, no minor that a 0
        multiplies is read.
        """
        t0 = perf_counter()
        hom_tab, hom = self._hom_tab, self._hom
        hits = 0
        visible, keep = [], []
        for bs in boundary:
            key = bs.key
            p = bisect_left(key, col)
            cols = key[:p] + (col,) + key[p:]
            if lift is None:
                total = hom_tab.get(cols)
                if total is None:
                    total = hom(cols)
                else:
                    hits += 1
            else:
                total = 0
                n = len(cols)  # cofactor sign (-1)^(n+i) along row n-2
                for i, c in enumerate(cols):
                    w = lift[c]
                    if w:
                        sub = key if i == p else cols[:i] + cols[i + 1:]
                        h = hom_tab.get(sub)
                        if h is None:
                            h = hom(sub)
                        else:
                            hits += 1
                        total += -w * h if (n + i) & 1 else w * h
            # orientation = parity * sign(total), flipped once per column
            # after the one put in
            s = -bs.inner_sign * bs.parity
            if (len(key) - p) & 1:
                s = -s
            (visible if (total > 0) - (total < 0) == s else keep).append(bs)
        self._done(t0, len(boundary), hits)
        return visible, keep

    def upper_facets(self, boundary):
        """(keys, volumes |h(key)|) of the simplices of ``boundary`` facing up.

        A point far up the lifting axis sees a simplex when its orientation
        with it, which tends to -lift * h(verts), is the negative of the
        simplex's ``inner_sign``: when h(verts) = parity * h(key) has it.
        """
        t0 = perf_counter()
        hom_tab = self._hom_tab
        hits = 0
        keys, volumes = [], []
        for bs in boundary:
            h = hom_tab.get(bs.key)
            if h is None:
                h = self._hom(bs.key)
            else:
                hits += 1
            if (h > 0) - (h < 0) == bs.inner_sign * bs.parity:
                keys.append(bs.key)
                volumes.append(abs(h))
        self._done(t0, len(boundary), hits)
        return keys, volumes

    def _done(self, t0, calls, hits):
        # Count, stop the clock pair, and clear past ``threshold`` minors.
        self.predicate_calls += calls
        self.hom_hits += hits
        self.predicate_time += perf_counter() - t0
        if len(self._pure_tab) + len(self._hom_tab) > self.threshold:
            self.clear()
