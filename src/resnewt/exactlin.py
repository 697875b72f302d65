"""Exact linear algebra: determinants, predicates, minor cache, lattices.

Re-exports the determinant kernels and adds the exact rational/integer
routines used by the geometry and reconstruction layers: Gaussian solving
over ``Fraction``, integer kernels with unimodular bookkeeping (so kernel
lattice bases are saturated), saturated subspace bases, and canonical
integer direction/hyperplane normal forms.
"""

from fractions import Fraction
from math import gcd

from .errors import InvalidDirection
from .kernels import MinorCache, det_bareiss, sort_with_parity

__all__ = [
    "MinorCache",
    "adjugate",
    "det_bareiss",
    "sort_with_parity",
    "dot",
    "vec_sub",
    "gcd_vector",
    "primitive",
    "canonical_direction",
    "canonical_hyperplane",
    "clear_denominators",
    "echelon_reduce",
    "solve_exact",
    "rank_int",
    "affine_dim",
    "integer_kernel",
    "saturated_basis",
]


# -- small vector helpers -----------------------------------------------------

def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def gcd_vector(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    return g


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (sign preserved).

    The zero vector is returned unchanged.
    """
    g = gcd_vector(vec)
    if g <= 1:
        return tuple(int(x) for x in vec)
    return tuple(int(x) // g for x in vec)


def canonical_direction(vec):
    """Canonical integer representative of a nonzero direction.

    Divides by the gcd of the entries; orientation (sign) is preserved, so
    opposite directions stay distinct.  Raises ``InvalidDirection`` on the
    zero vector.
    """
    if all(x == 0 for x in vec):
        raise InvalidDirection("zero vector is not a direction")
    return primitive(vec)


def canonical_hyperplane(normal, offset):
    """Reduce (normal, offset) by their common gcd, preserving orientation."""
    g = gcd_vector(normal)
    g = gcd(g, abs(int(offset)))
    if g <= 1:
        return tuple(int(x) for x in normal), int(offset)
    return tuple(int(x) // g for x in normal), int(offset) // g


def clear_denominators(vec):
    """Scale a rational vector by a positive integer to integer entries."""
    if all(map(int.__instancecheck__, vec)):
        return tuple(vec)
    fracs = [Fraction(x) for x in vec]
    mult = 1
    for f in fracs:
        d = f.denominator
        mult = mult // gcd(mult, d) * d
    return tuple(int(f * mult) for f in fracs)


# -- exact Gaussian elimination ----------------------------------------------

def echelon_reduce(vec, rows, pivots):
    """Remainder of an integer vector against a fraction-free echelon.

    ``rows[i]`` is an integer row that is nonzero at coordinate
    ``pivots[i]`` and zero at every earlier pivot.  The remainder is a
    nonzero multiple of ``vec`` minus an integer combination of the rows; it
    is zero at every pivot, and it is the zero vector exactly when ``vec``
    lies in the span of the rows.
    """
    v = vec
    for row, c in zip(rows, pivots):
        a = v[c]
        if a:
            p = row[c]
            v = [p * x - a * y for x, y in zip(v, row)]
    return v


def solve_exact(rows, rhs):
    """Solve ``rows @ x = rhs`` exactly over the rationals.

    Returns ``(status, solution)`` where status is one of ``"unique"``,
    ``"inconsistent"``, ``"underdetermined"``; solution is a tuple of
    ``Fraction`` for "unique" and ``None`` otherwise.  The system may be
    rectangular (overdetermined systems are fine when consistent).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = -1
        for i in range(r, m):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        inv = 1 / pr[c]
        for j in range(c, n + 1):
            pr[j] *= inv
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                ai = a[i]
                for j in range(c, n + 1):
                    ai[j] -= f * pr[j]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = a[i][n]
    return "unique", tuple(sol)


def adjugate(mat):
    """Integer adjugate of a square integer matrix: adj(M) M = det(M) I."""
    n = len(mat)
    return [
        [
            (-1) ** (i + j)
            * det_bareiss([row[:i] + row[i + 1:] for r, row in enumerate(mat) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def rank_int(rows):
    """Rank of a rational/integer matrix (exact)."""
    if not rows:
        return 0
    m = len(rows)
    n = len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(n):
        pivot = -1
        for i in range(rank, m):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pr = a[rank]
        for i in range(rank + 1, m):
            if a[i][c] != 0:
                f = a[i][c] / pr[c]
                ai = a[i]
                for j in range(c, n):
                    ai[j] -= f * pr[j]
        rank += 1
        if rank == m:
            break
    return rank


def affine_dim(points):
    """Dimension of the affine hull of a point set (-1 for empty input)."""
    pts = list(points)
    if not pts:
        return -1
    p0 = pts[0]
    return rank_int([vec_sub(p, p0) for p in pts[1:]])


# -- integer lattice routines --------------------------------------------------

def integer_kernel(rows, ncols=None):
    """Basis of the integer kernel lattice {x : rows @ x = 0}.

    Returns a list of integer vectors forming a basis of the kernel as a
    lattice; because the basis arises from unimodular column operations it is
    automatically saturated (spans all integer points of the kernel space).
    ``ncols`` is required when ``rows`` is empty.
    """
    rows = [list(r) for r in rows]
    if rows:
        n = len(rows[0])
    else:
        if ncols is None:
            raise ValueError("ncols required for an empty row list")
        n = ncols
    a = [[int(x) for x in row] for row in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_swap(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]
        for row in u:
            row[j1], row[j2] = row[j2], row[j1]

    def col_addmul(jdst, jsrc, q):
        # column jdst -= q * column jsrc
        for row in a:
            row[jdst] -= q * row[jsrc]
        for row in u:
            row[jdst] -= q * row[jsrc]

    col = 0
    for r in range(len(a)):
        if col >= n:
            break
        j0 = -1
        for j in range(col, n):
            if a[r][j] != 0:
                j0 = j
                break
        if j0 < 0:
            continue
        if j0 != col:
            col_swap(col, j0)
        for j in range(col + 1, n):
            while a[r][j] != 0:
                q = a[r][j] // a[r][col]
                col_addmul(j, col, q)
                if a[r][j] != 0:
                    col_swap(col, j)
        col += 1
    return [tuple(u[i][j] for i in range(n)) for j in range(col, n)]


def saturated_basis(vectors, ambient_dim=None):
    """Basis of the saturation of the lattice spanned by integer ``vectors``.

    The result spans the same rational subspace and contains every integer
    point of that subspace (so coordinates of integer points in this basis
    are integers).  ``ambient_dim`` is required when ``vectors`` is empty.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if vecs:
        m = len(vecs[0])
    else:
        if ambient_dim is None:
            raise ValueError("ambient_dim required for an empty vector list")
        m = ambient_dim
    annihilator = integer_kernel(vecs, ncols=m)
    return integer_kernel(annihilator, ncols=m)
