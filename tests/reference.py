"""Independent reference computations used to cross-check the package.

Everything here is deliberately written against sympy's exact rational linear
algebra and brute-force enumeration, sharing no code with the package's own
Bareiss/Laplace/Hermite routines.  Slow is fine; independent is the point.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import sympy


def ref_det(rows):
    """Exact determinant of a square matrix (list of rows of ints/Fractions)."""
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).det()


def ref_adjugate(rows):
    """(det, adjugate) of a square integer matrix, by sympy's ``Matrix.adjugate``."""
    if not rows:
        return 1, []
    mat = sympy.Matrix([[sympy.Integer(x) for x in row] for row in rows])
    return int(mat.det()), [[int(x) for x in row] for row in mat.adjugate().tolist()]


def ref_rank(rows):
    """Exact rank of a matrix given as a list of rows."""
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def ref_sort_parity(seq):
    """Sign of the permutation that sorts ``seq`` (distinct items).

    Counts inversions pair by pair: (-1) to their number.
    """
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def ref_affine_dim(points):
    """Dimension of the affine hull of a list of points."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return ref_rank(diffs)


def ref_solve_unique(a_rows, b):
    """Solve A x = b exactly; return a tuple of Fractions, or None when the
    system is inconsistent or underdetermined."""
    A = sympy.Matrix([[sympy.Rational(x) for x in row] for row in a_rows])
    rhs = sympy.Matrix([sympy.Rational(x) for x in b])
    try:
        sol, params = A.gauss_jordan_solve(rhs)
    except ValueError:
        return None
    if params.rows != 0:
        return None
    return tuple(Fraction(int(v.p), int(v.q)) for v in sol)


def _intrinsic_coords(points):
    """Map points to exact coordinates in a basis of their affine hull.

    Returns (coords, dim).  Coordinates are Fractions; the parameterization is
    an arbitrary rational basis (fine for combinatorial facet work, not for
    volumes).
    """
    pts = [tuple(sympy.Rational(x) for x in p) for p in points]
    base = pts[0]
    diffs = [sympy.Matrix([a - b for a, b in zip(p, base)]) for p in pts]
    span = sympy.Matrix.hstack(*diffs) if diffs else sympy.Matrix.zeros(len(base), 0)
    basis_cols = span.columnspace()
    dim = len(basis_cols)
    if dim == 0:
        return [tuple() for _ in pts], 0
    B = sympy.Matrix.hstack(*basis_cols)
    coords = []
    for d in diffs:
        sol = B.solve_least_squares(d)
        assert B * sol == d, "point outside its own affine hull?"
        coords.append(tuple(Fraction(int(v.p), int(v.q)) for v in sol))
    return coords, dim


def brute_force_facets(points):
    """All facet-defining inequalities of conv(points), by exhaustive search.

    Works in intrinsic coordinates of the affine hull; returns a set of
    frozensets of point indices (one per facet).  Exponential; for small
    inputs only.
    """
    coords, dim = _intrinsic_coords(points)
    npts = len(coords)
    if dim == 0:
        return set()
    facets = set()
    for subset in combinations(range(npts), dim):
        sub = [coords[i] for i in subset]
        if ref_affine_dim(sub) != dim - 1:
            continue
        # Hyperplane through the subset: normal g with g·(p - p0) = 0.
        base = sub[0]
        rows = [[a - b for a, b in zip(p, base)] for p in sub[1:]]
        A = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
        if A.rows == 0:
            A = sympy.Matrix.zeros(0, dim)
        null = A.nullspace()
        if len(null) != 1:
            continue
        g = null[0]
        c = sum(gi * sympy.Rational(x) for gi, x in zip(g, base))
        sides = set()
        on_plane = []
        for i in range(npts):
            val = sum(gi * sympy.Rational(x) for gi, x in zip(g, coords[i])) - c
            if val > 0:
                sides.add(1)
            elif val < 0:
                sides.add(-1)
            else:
                on_plane.append(i)
        if len(sides) <= 1:
            facets.add(frozenset(on_plane))
    return facets


def ref_integer_kernel(rows, ncols):
    """The integer kernel basis, by column operations on two separate matrices.

    Not independent of the package: this is the earlier form of
    ``exactlin.integer_kernel``, which kept the rows and the unimodular
    transform as row lists and swapped or reduced a column entry by entry.
    The package's column-list form must return the same basis vectors in
    the same order, since Q's chart and the certified equations are read
    off that order.
    """
    a = [list(row) for row in rows]
    n = len(a[0]) if a else ncols
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


def _nullspace(rows, ncols):
    """A basis of {x : rows.x = 0}, by Gauss-Jordan over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -a[r][free]
        basis.append(v)
    return basis


def ref_plane(points, witness):
    """The oriented plane through k points of R^k, away from ``witness``.

    Returns (normal, offset) with coprime integer entries and
    normal.witness < offset, or None when the points do not span a
    hyperplane or the witness lies on theirs.  The normal spans the
    nullspace of the points' differences (``_nullspace``).
    """
    base = [Fraction(x) for x in points[0]]
    diffs = [[Fraction(a) - b for a, b in zip(p, base)] for p in points[1:]]
    null = _nullspace(diffs, len(base))
    if len(null) != 1:
        return None
    g = null[0]
    c = sum(a * x for a, x in zip(g, base))
    side = sum(a * Fraction(x) for a, x in zip(g, witness)) - c
    if side == 0:
        return None
    if side > 0:
        g, c = [-a for a in g], -c
    entries = g + [c]
    scale = lcm(*(x.denominator for x in entries))
    ints = [int(x * scale) for x in entries]
    common = gcd(*ints)
    ints = [x // common for x in ints]
    return tuple(ints[:-1]), ints[-1]


def ref_simplex_planes(points):
    """The planes of a simplex, the one opposite each point in turn (see
    ``ref_plane``); None for a plane whose points do not span one."""
    return [ref_plane(points[:i] + points[i + 1:], points[i]) for i in range(len(points))]


def _solve_square(rows, rhs):
    """Unique solution of a square system by Gauss-Jordan over Fractions."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def brute_force_vertices(constraints, dim):
    """Vertices of {x : normal.x <= offset for every (normal, offset)}.

    Solves every dim-subset of the constraints with equality and keeps the
    unique solutions that satisfy all of them.  Exponential; small inputs
    only.  Returns a set of tuples of Fractions.
    """
    cons = [(tuple(n), o) for n, o in constraints]
    found = set()
    for subset in combinations(cons, dim):
        x = _solve_square([n for n, _ in subset], [o for _, o in subset])
        if x is None:
            continue
        if all(sum(a * b for a, b in zip(n, x)) <= o for n, o in cons):
            found.add(x)
    return found


def point_in_hull(point, points):
    """Exact membership test: point in conv(points)?"""
    pts = list(points)
    all_pts = pts + [tuple(point)]
    # Must lie in the affine hull first.
    if ref_affine_dim(all_pts) != ref_affine_dim(pts):
        return False
    coords, dim = _intrinsic_coords(all_pts)
    target = coords[-1]
    hull_coords = coords[:-1]
    if dim == 0:
        return True
    facets = brute_force_facets(pts)
    # Recompute facet inequalities in the shared intrinsic coordinates.
    for facet in facets:
        sub = [hull_coords[i] for i in sorted(facet)]
        base = sub[0]
        rows = [[a - b for a, b in zip(p, base)] for p in sub[1:]]
        A = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
        if A.rows == 0:
            A = sympy.Matrix.zeros(0, dim)
        null = A.nullspace()
        if len(null) != 1:
            continue
        g = null[0]
        c = sum(gi * sympy.Rational(x) for gi, x in zip(g, base))
        inner = None
        for q in hull_coords:
            val = sum(gi * sympy.Rational(x) for gi, x in zip(g, q)) - c
            if val != 0:
                inner = val < 0
                break
        if inner is None:
            continue
        val = sum(gi * sympy.Rational(x) for gi, x in zip(g, target)) - c
        if inner and val > 0:
            return False
        if not inner and val < 0:
            return False
    return True


def extreme_points(points):
    """Indices of the extreme points of a finite point set (exact)."""
    pts = [tuple(p) for p in points]
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not others or not point_in_hull(p, others):
            out.append(i)
    return out


def shoelace_area(points2d):
    """Twice-signed... no: absolute polygon area of 2-d points given in order."""
    s = Fraction(0)
    n = len(points2d)
    for i in range(n):
        x1, y1 = points2d[i]
        x2, y2 = points2d[(i + 1) % n]
        s += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(s) / 2


def polygon_area(points2d):
    """Area of the convex hull of 2-d points in any order (0 when flat).

    The hull's vertices come from Andrew's monotone chain, in
    counter-clockwise order, and their area from ``shoelace_area``.
    """
    pts = sorted(set(map(tuple, points2d)))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return shoelace_area(chain(pts) + chain(pts[::-1])) if len(pts) > 2 else Fraction(0)


def mixed_area(p, q):
    """MV(P, Q) of two planar lattice point sets: area(P + Q) - area(P) - area(Q),
    normalized so that two unit triangles give 1."""
    minkowski = [(a + c, b + d) for a, b in p for c, d in q]
    return polygon_area(minkowski) - polygon_area(p) - polygon_area(q)


def count_lattice_points(vertices):
    """Number of integer points inside conv(vertices), exact.

    Enumerates the integer bounding box and tests membership; fine for the
    small golden polytopes.
    """
    verts = [tuple(v) for v in vertices]
    dim = len(verts[0])
    lo = [min(int(sympy.floor(sympy.Rational(v[i]))) for v in verts) for i in range(dim)]
    hi = [max(int(sympy.ceiling(sympy.Rational(v[i]))) for v in verts) for i in range(dim)]
    count = 0
    for cand in product(*(range(lo[i], hi[i] + 1) for i in range(dim))):
        if point_in_hull(cand, verts):
            count += 1
    return count


def outer_points(outer):
    """The vertices of an ``OuterPolytope`` as rational points, in row order.

    A vertex is a homogeneous row (a, d), d > 0, standing for a/d.
    """
    return [
        tuple(a if row[-1] == 1 else Fraction(a, row[-1]) for a in row[:-1])
        for row in outer.rows
    ]


def ref_lattice(n, delta, kind):
    """Every lattice point of the delta-simplex (``dense``) or the
    (delta/2)-cube (``sparse``) in Z^n, sorted, by enumeration."""
    if kind == "dense":
        return sorted(p for p in product(range(delta + 1), repeat=n) if sum(p) <= delta)
    return sorted(product(range(delta // 2 + 1), repeat=n))


def ref_gen_random(n, delta, kind, sizes, seed, mode="full"):
    """``cli.gen_random`` as it was first written: each block samples a list
    of the whole ``ref_lattice``.  Its checks of n, sizes and mode are left
    to the caller.
    """
    from random import Random

    from resnewt.cayley import _apply_projection, essential_violation
    from resnewt.errors import ParseError, ResnewtError

    lattice = ref_lattice(n, delta, kind)
    origin = tuple([0] * n)
    unit_simplex = sorted(
        [origin] + [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    )
    rng = Random(f"{seed}|gen")
    for _ in range(10000):
        supports = []
        for i, size in enumerate(sizes):
            if mode == "u-resultant" and i == 0:
                supports.append(list(unit_simplex))
                continue
            pool = list(lattice)
            forced = []
            if mode == "implicitization":
                forced = [origin]
                pool = [p for p in pool if p != origin]
            if size - len(forced) > len(pool):
                raise ParseError(
                    "block %d wants %d points but the lattice has %d"
                    % (i, size, len(pool) + len(forced))
                )
            chosen = forced + rng.sample(pool, size - len(forced))
            supports.append(sorted(chosen))
        family = _apply_projection(n, supports, mode)
        if essential_violation(family) is None:
            return family
    raise ResnewtError("could not generate an essential family; enlarge delta")
