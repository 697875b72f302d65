"""Exact linear algebra: echelons, adjugates, lattices.

The exact integer routines used by the geometry and reconstruction layers
(the determinant kernels are in ``kernels``): fraction-free (Bareiss)
echelon reduction and rank; the determinant and adjugate of a square matrix
from one fraction-free Gauss-Jordan elimination (``adjugate``), whose
columns are a simplex's facet planes; integer kernels with unimodular
bookkeeping (so kernel lattice bases are saturated); saturated subspace
bases; affine lattice charts (integer coordinates of a point in p0 + Z.B,
read off one inverse, (B^T B)^{-1} B^T, from the Gram adjugate); and one
gcd normal form, ``primitive``, which the canonical direction and the
canonical ``Hyperplane`` are read off.
Every coordinate is an ``int``, the one coordinate type of the exact
layer, and ``int_vector(vec, length)`` its one vector check: each entry
that takes a point, row, column or direction passes it, so a wrong length
or an entry that is not an ``int`` raises ``ValueError``.  No elimination
ever reads a ``Fraction`` or a float.
"""

from math import gcd
from operator import mul, sub
from typing import NamedTuple

from .errors import DegenerateInput, InvalidDirection

__all__ = [
    "AffineChart",
    "Hyperplane",
    "adjugate",
    "dot",
    "vec_sub",
    "primitive",
    "canonical_direction",
    "canonical_hyperplane",
    "int_vector",
    "echelon_reduce",
    "echelon_extend",
    "rank_int",
    "integer_kernel",
    "saturated_basis",
]


# -- small vector helpers -----------------------------------------------------

def dot(u, v):
    return sum(map(mul, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def int_vector(vec, length=None):
    """``vec`` as a tuple; ``ValueError`` unless it is ``length`` (if given) ``int``s."""
    vec = tuple(vec)
    if length is not None and len(vec) != length:
        raise ValueError("expected %d coordinates, got %r" % (length, vec))
    if not all(map(int.__instancecheck__, vec)):  # no ABC check per entry
        raise ValueError("coordinates must be ints, got %r" % (vec,))
    return vec


class Hyperplane(NamedTuple):
    """Oriented hyperplane {x : normal.x = offset}; outer side normal.x > offset.

    Normal entries and offset are integers with overall gcd 1.
    """

    normal: tuple
    offset: int


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (sign preserved).

    The one gcd normal form of the exact layer.  The zero vector, and a
    tuple that is already primitive, come back as they are.  Raises
    ``ValueError`` on an entry that is not an ``int``.
    """
    try:
        g = gcd(*vec)
    except TypeError:  # an entry gcd refuses: int_vector names it
        int_vector(vec)
        raise
    if g <= 1:
        return vec if type(vec) is tuple else tuple(vec)
    return tuple(x // g for x in vec)


def canonical_direction(vec):
    """Canonical integer representative of a nonzero direction: ``primitive``.

    Orientation (sign) is preserved, so opposite directions stay distinct.
    Raises ``InvalidDirection`` on the zero vector and ``ValueError`` on an
    entry that is not an ``int``.
    """
    vec = primitive(vec)
    if not any(vec):
        raise InvalidDirection("zero vector is not a direction")
    return vec


def canonical_hyperplane(normal, offset):
    """The ``Hyperplane`` (normal, offset) reduced by their common gcd.

    ``primitive`` of the row (*normal, offset), orientation preserved;
    raises ``ValueError`` on an entry that is not an ``int``.
    """
    row = primitive((*normal, offset))
    return Hyperplane(row[:-1], row[-1])


# -- fraction-free elimination -----------------------------------------------

def echelon_reduce(vec, rows, pivots):
    """Remainder of an integer vector against a fraction-free echelon.

    ``rows[i]`` is an integer row that is nonzero at coordinate
    ``pivots[i]`` and zero at every earlier pivot.  The remainder is a
    nonzero multiple of ``vec`` minus an integer combination of the rows; it
    is zero at every pivot, and it is the zero vector exactly when ``vec``
    lies in the span of the rows.  The multiple is positive when every
    row's pivot entry is, as ``echelon_extend`` keeps them.
    """
    v = vec
    for row, c in zip(rows, pivots):
        a = v[c]
        if a:
            p = row[c]
            v = [p * x - a * y for x, y in zip(v, row)]
    return v


def adjugate(mat):
    """(det M, adj M) of a square integer matrix, so adj(M).M = det(M).I.

    One fraction-free Gauss-Jordan elimination of [M | I] (Bareiss, 1968).
    After step k every entry is a minor of order k + 1 of the augmented
    matrix, so each division by the previous pivot is exact.  At the end
    the left block is d.I and the right block d.M^-1, where d is det M up
    to the sign of the row swaps, so the right block is adj M up to that
    sign.  Raises ``DegenerateInput`` when M is singular.
    """
    n = len(mat)
    a = [[*int_vector(row, n)] + [0] * n for row in mat]
    for i, row in enumerate(a):
        row[n + i] = 1
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                raise DegenerateInput("matrix is singular")
            a[k], a[r] = a[r], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        for i, ai in enumerate(a):
            if i != k:
                f = ai[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(ai, ak)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def echelon_extend(vec, rows, pivots):
    """Append ``vec``'s remainder to the echelon unless it is zero.

    The row stored is the primitive remainder with a positive entry at its
    pivot, its first nonzero coordinate.  Returns the remainder's sign
    there, or 0, leaving the echelon as it was, when ``vec`` lies in the
    span of the rows.  In an echelon built by this call alone every pivot
    entry is positive, so ``echelon_reduce`` multiplies ``vec`` by positive
    numbers only: the sign is that of ``vec`` less the one span vector
    that agrees with it at the old pivots, read at the new pivot.
    """
    rem = echelon_reduce(vec, rows, pivots)
    pivot = next((j for j, x in enumerate(rem) if x), None)
    if pivot is None:
        return 0
    row = primitive(rem)
    sign = 1 if row[pivot] > 0 else -1
    rows.append(row if sign > 0 else tuple(-x for x in row))
    pivots.append(pivot)
    return sign


def rank_int(rows, cap=None):
    """Rank of an integer matrix (exact).

    ``rows`` may be any iterable.  With ``cap`` the elimination stops once
    the rank reaches it: the result is min(rank, cap), and later rows are
    never read.
    """
    if cap == 0:
        return 0
    echelon, pivots, width = [], [], None  # every row as long as the first
    for row in rows:
        echelon_extend(int_vector(row, width), echelon, pivots)
        width = len(row)
        if len(echelon) == cap:
            break
    return len(echelon)


# -- integer lattice routines --------------------------------------------------

def integer_kernel(rows, ncols):
    """Basis of the integer kernel lattice {x : rows @ x = 0} in Z^ncols.

    Unimodular column operations on [rows; I] (Cohen, 1993, §2.4), each
    column kept as one list: a column swap exchanges two lists, a reduction
    rebuilds one.  Once every row is reduced, the identity block's columns
    past the last pivot are the basis.  Because the operations are
    unimodular the basis is saturated (it spans every integer point of the
    kernel space), and its size is ``ncols`` minus the rank of ``rows``.
    """
    a = [int_vector(row, ncols) for row in rows]
    nrows = len(a)
    cols = []
    for j in range(ncols):
        unit = [0] * ncols
        unit[j] = 1
        cols.append([row[j] for row in a] + unit)
    col = 0
    for r in range(nrows):
        if col >= ncols:
            break
        j0 = next((j for j in range(col, ncols) if cols[j][r]), None)
        if j0 is None:
            continue
        cols[col], cols[j0] = cols[j0], cols[col]
        for j in range(col + 1, ncols):
            while cols[j][r]:
                q = cols[j][r] // cols[col][r]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[col])]
                if cols[j][r]:
                    cols[col], cols[j] = cols[j], cols[col]
        col += 1
    return [tuple(c[nrows:]) for c in cols[col:]]


def saturated_basis(vectors, ambient_dim):
    """Basis of the saturation of the lattice spanned by integer ``vectors``.

    The vectors lie in Z^ambient_dim.  The result spans the same rational
    subspace and contains every integer point of that subspace (so
    coordinates of integer points in this basis are integers): the kernel
    of the vectors' integer kernel.
    """
    return integer_kernel(integer_kernel(vectors, ambient_dim), ambient_dim)


# -- affine lattice charts ----------------------------------------------------

class AffineChart:
    """Integer coordinates on the lattice p0 + Z.B, computed in integers only.

    For the k independent integer basis vectors B (as columns), kept in
    ``basis``, ``span`` holds the m rows of B, ``gram_det`` is
    det(B^T B) > 0 and ``pull`` the m rows of B.adj(B^T B), so that the
    chart's one inverse, (B^T B)^{-1} B^T, is pull^T / gram_det.  Both come
    from one ``adjugate`` elimination of the Gram matrix B^T B, which is
    singular exactly when the basis vectors are dependent; then
    ``DegenerateInput`` is raised.
    """

    def __init__(self, p0, basis):
        self.p0 = int_vector(p0)
        self.basis = [int_vector(b, len(self.p0)) for b in basis]
        self.span = [tuple(b[j] for b in self.basis) for j in range(len(self.p0))]
        gram = [[dot(a, b) for b in self.basis] for a in self.basis]
        try:
            self.gram_det, adj_gram = adjugate(gram)
        except DegenerateInput:
            raise DegenerateInput("basis vectors are linearly dependent") from None
        self.pull = [
            tuple(dot(row, col) for col in zip(*adj_gram)) for row in self.span
        ]

    def coords(self, x):
        """The integer xi with x = p0 + B.xi, or None when there is none.

        With v = x - p0, num = pull^T.v = adj(B^T B).B^T.v equals
        gram_det.xi whenever v = B.xi.  So an integer solution needs
        gram_det to divide every entry of num, and xi = num / gram_det is
        then the one candidate: B has full column rank, so it is the
        solution exactly when B.xi = v on every row.
        """
        g = self.gram_det
        v = vec_sub(int_vector(x, len(self.p0)), self.p0)
        num = [dot(col, v) for col in zip(*self.pull)]
        if any(t % g for t in num):
            return None
        xi = [t // g for t in num]
        if any(dot(row, xi) != t for row, t in zip(self.span, v)):
            return None
        return tuple(xi)
