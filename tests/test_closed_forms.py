"""Outputs for n >= 2 checked against truths computed apart from the package.

- The resultant is homogeneous in the coefficients of each f_i, of degree
  MV(A_j : j != i) (Gelfand, Kapranov & Zelevinsky, 1994, ch. 8; Pedersen
  & Sturmfels, 1993).  So on every vertex rho of a full projection the sum
  of rho_a over a in A_i is that mixed volume, and each such equation lies
  in the row space of the printed ``e`` lines.  For n = 2 the mixed area
  comes from planar hulls alone (``reference.mixed_area``).
- The dense linear family in n variables has the (n+1) x (n+1) determinant
  of its coefficients as resultant, so its output is the Birkhoff polytope:
  the permutation matrices as vertices, one facet rho_(i,a) >= 0 per
  coefficient, and dimension n^2.  Its normalized volume is 3 for B3 and
  352 for B4 (De Loera, Liu & Yoshida, 2009), and two permutation matrices
  span an edge exactly when sigma^-1 tau is a single cycle.
- The u-resultant of f_1, f_2 with f_0 = u_0 + u_1 x + u_2 y factors as
  the product of u_0 + u.xi over the MV(A_1, A_2) common roots xi of f_1
  and f_2, so its projection onto u_0, u_1, u_2 is MV times the unit
  triangle, on the one equation u_0 + u_1 + u_2 = MV.  For n = 3 it is
  MV(A_1, A_2, A_3) times the unit tetrahedron, with the mixed volume by
  inclusion-exclusion over 3-d hull volumes (``reference.mixed_volume3``).
- A brute-force reference oracle (``reference.ref_rho``) lifts the Cayley
  points by w, finds the upper cells by exhaustion and sums the mixed
  cells' volumes into rho (Sturmfels, 1994): rho is the vertex of the full
  projection extreme in the direction w.  On an implicit projection, where
  only the symbolic columns are lifted far above the rest, rho's symbolic
  part is the projected polytope's vertex extreme in the symbolic lift.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from random import Random

import pytest

from conftest import system_from
from reference import (
    hull_volume3,
    mixed_area,
    mixed_volume3,
    ref_cayley_points,
    ref_rank,
    ref_rho,
    ref_simplex_charts,
)
from resnewt.cayley import _projection_spec, parse_text
from resnewt.cli import main
from resnewt.geometry import f_vector, hull_volume
from resnewt.oracle import VertexOracle
from resnewt.reconstruct import compute_pi


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _generated(tmp_path, capsys, args, options=()):
    # (supports, compute's plain stdout under ``options``) of one generated
    # family.
    text = _run(["generate", *args], capsys)
    path = tmp_path / "family.txt"
    path.write_text(text)
    return parse_text(text).supports, _run(["compute", str(path), *options], capsys)


def _printed(out):
    # dim, vertices, facets (normal, offset) and equations (normal, offset).
    dim, vertices, facets, equations = None, [], [], []
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        if word == "dim:":
            dim = int(rest)
        elif word == "v":
            vertices.append(tuple(Fraction(x) for x in rest.split()))
        elif word in ("f", "e"):
            lhs, rhs = rest.split(" <= " if word == "f" else " = ")
            row = (tuple(Fraction(x) for x in lhs.split()), Fraction(rhs))
            (facets if word == "f" else equations).append(row)
    return dim, vertices, facets, equations


def _value(normal, point):
    return sum(a * x for a, x in zip(normal, point))


def _blocks(supports):
    # The output coordinates of each block: a full projection keeps every
    # column, block by block, each in input order.
    out, start = [], 0
    for support in supports:
        out.append(range(start, start + len(support)))
        start += len(support)
    return out


@pytest.mark.parametrize("seed", range(1, 16))
def test_degree_equations_hold_on_a_full_projection(tmp_path, capsys, seed):
    args = ["2", "3", "--sizes", "3,3,3", "--seed", str(seed)]
    supports, out = _generated(tmp_path, capsys, args)
    _, vertices, _, equations = _printed(out)
    assert vertices and equations
    blocks = _blocks(supports)
    width = sum(map(len, supports))
    printed = [list(normal) + [offset] for normal, offset in equations]
    for i, block in enumerate(blocks):
        p, q = (support for j, support in enumerate(supports) if j != i)
        degree = mixed_area(p, q)
        assert degree > 0  # a generated family is essential
        for v in vertices:
            assert sum(v[c] for c in block) == degree, (i, v)
        row = [int(c in block) for c in range(width)] + [degree]
        assert ref_rank(printed + [row]) == ref_rank(printed), i
    # The printed equations hold where the vertices are.
    assert all(_value(normal, v) == offset for normal, offset in equations for v in vertices)


@pytest.mark.parametrize("n", [2, 3])
def test_dense_linear_family_gives_the_birkhoff_polytope(tmp_path, capsys, n):
    # B3 and B4: every block is the unit simplex {0, e_1, ..., e_n}.
    args = [str(n), "1", "--sizes", ",".join([str(n + 1)] * (n + 1)), "--seed", "1"]
    supports, out = _generated(tmp_path, capsys, args)
    dim, vertices, facets, equations = _printed(out)
    monomials = sorted(supports[0])
    assert all(sorted(support) == monomials for support in supports)
    coordinate = {}  # (block, monomial index) -> output coordinate
    for i, block in enumerate(_blocks(supports)):
        for c in block:
            coordinate[i, monomials.index(supports[i][c - block.start])] = c

    def permutation_matrix(sigma):
        rho = [0] * len(coordinate)
        for i, k in enumerate(sigma):
            rho[coordinate[i, k]] = 1
        return tuple(rho)

    sigmas = list(permutations(range(n + 1)))
    assert sorted(vertices) == sorted(map(permutation_matrix, sigmas))
    assert dim == n * n and len(facets) == (n + 1) ** 2
    # Facet rho_(i,k) >= 0 holds every vertex and is tight on the sigma
    # with sigma(i) != k; each (i, k) gives one facet.
    tight = set()
    for normal, offset in facets:
        assert all(_value(normal, v) <= offset for v in vertices)
        on = frozenset(s for s in sigmas if _value(normal, permutation_matrix(s)) == offset)
        tight.add(on)
    assert tight == {
        frozenset(s for s in sigmas if s[i] != k) for i in range(n + 1) for k in range(n + 1)
    }
    assert all(_value(normal, v) == offset for normal, offset in equations for v in vertices)
    # Q's volume and faces: f_0 = (n+1)!, one facet per coefficient, an edge
    # per pair of permutations a single cycle apart, and the whole f-vectors
    # as found, which satisfy Euler's relation.
    state = compute_pi(system_from(n, supports, "full"))
    assert state.dim == dim
    assert hull_volume(state.hull) * factorial(dim) == {2: 3, 3: 352}[n]
    f = f_vector(state.hull)
    cycles = sum(map(_one_cycle, sigmas))
    assert (f[0], f[1], f[-1]) == (len(sigmas), len(sigmas) * cycles // 2, (n + 1) ** 2)
    assert f == {2: (6, 15, 18, 9), 3: (24, 240, 978, 1968, 2176, 1392, 528, 120, 16)}[n]
    assert sum((-1) ** i * x for i, x in enumerate(f)) == 1 - (-1) ** dim


U_RESULTANT_FAMILIES = [(sizes, seed) for sizes in ("3,5,5", "3,4,4") for seed in range(1, 7)]


@pytest.mark.parametrize("sizes, seed", U_RESULTANT_FAMILIES)
def test_u_resultant_gives_the_mixed_area_triangle(tmp_path, capsys, sizes, seed):
    args = ["2", "4", "--sizes", sizes, "--projection", "u-res", "--seed", str(seed)]
    supports, out = _generated(tmp_path, capsys, args)
    dim, vertices, facets, equations = _printed(out)
    mv = mixed_area(supports[1], supports[2])
    assert mv > 0  # a generated family is essential
    assert dim == 2
    assert sorted(vertices) == sorted(tuple(mv * (k == i) for k in range(3)) for i in range(3))
    assert equations == [((1, 1, 1), mv)]
    # Each facet holds the triangle and is tight on two of its corners.
    for normal, offset in facets:
        assert all(_value(normal, v) <= offset for v in vertices)
        assert sorted(_value(normal, v) == offset for v in vertices) == [False, True, True]
    assert len(facets) == 3


def test_reference_mixed_volume_on_known_bodies():
    tetrahedron = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert hull_volume3(tetrahedron) == Fraction(1, 6) and hull_volume3(cube) == 1
    assert hull_volume3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0
    doubled = [tuple(2 * x for x in p) for p in tetrahedron]
    assert mixed_volume3(tetrahedron, tetrahedron, tetrahedron) == 1
    # MV is linear under scaling of one argument.
    mv = mixed_volume3(tetrahedron, tetrahedron, cube)
    assert mixed_volume3(doubled, tetrahedron, cube) == 2 * mv
    # MV(P, P, P) = 3! vol(P).
    assert mixed_volume3(cube, cube, cube) == 6


@pytest.mark.parametrize("seed", range(1, 5))
def test_u_resultant_gives_the_mixed_volume_tetrahedron(tmp_path, capsys, seed):
    args = ["3", "2", "--sizes", "4,4,4,4", "--projection", "u-res", "--seed", str(seed)]
    supports, out = _generated(tmp_path, capsys, args)
    dim, vertices, facets, equations = _printed(out)
    mv = mixed_volume3(*supports[1:])
    assert mv > 0  # a generated family is essential
    assert dim == 3
    assert sorted(vertices) == sorted(tuple(mv * (k == i) for k in range(4)) for i in range(4))
    assert equations == [((1, 1, 1, 1), mv)]
    # Each facet holds the tetrahedron and is tight on three of its corners.
    for normal, offset in facets:
        assert all(_value(normal, v) <= offset for v in vertices)
        assert sorted(_value(normal, v) == offset for v in vertices) == [False, True, True, True]
    assert len(facets) == 4


def _one_cycle(sigma):
    # Whether the permutation moves the points it moves round one cycle.
    moved = {i for i, k in enumerate(sigma) if i != k}
    if not moved:
        return False
    i, orbit = min(moved), set()
    while i not in orbit:
        orbit.add(i)
        i = sigma[i]
    return orbit == moved


def _reference_rho(supports, charts, base, rng):
    # (w, rho) at w = 1000 * base plus a small perturbation, redrawn until
    # the lift is generic.
    for _ in range(100):
        w = [1000 * b + rng.randint(-3, 3) for b in base]
        rho = ref_rho(supports, charts, w)
        if rho is not None:
            return w, rho
    raise AssertionError("no generic lift near %r" % (base,))


def _check_vertices_are_reference_rhos(n, supports, charts, out, rng):
    # (a) Each printed vertex v is rho at a direction inside its normal cone,
    # the sum of the printed facet normals through v, and so is vtx there.
    _, vertices, facets, _ = _printed(out)
    oracle = VertexOracle(system_from(n, supports, "full"))
    for v in vertices:
        through = [normal for normal, offset in facets if _value(normal, v) == offset]
        base = [int(sum(col)) for col in zip(*through)] if through else [0] * len(v)
        w, rho = _reference_rho(supports, charts, base, rng)
        assert rho == v, v
        assert oracle.vtx(w)[1] == rho, v


def _check_facets_hold_reference_rhos(supports, charts, out, rng, draws=3):
    # (b) Near each printed facet's normal, rho is a printed vertex on that
    # facet and on every printed equation, and it maximizes w over the
    # printed vertices.
    _, vertices, facets, equations = _printed(out)
    for normal, offset in facets:
        for _ in range(draws):
            w, rho = _reference_rho(supports, charts, [int(a) for a in normal], rng)
            assert rho in vertices, (normal, rho)
            assert _value(normal, rho) == offset, (normal, rho)
            assert all(_value(e, rho) == b for e, b in equations), (normal, rho)
            assert _value(w, rho) == max(_value(w, v) for v in vertices), (normal, rho)


def _check_neighbours_are_printed(supports, charts, out, rng):
    # (c) From each printed vertex u, along each edge: dim - 1 facets S
    # through u with an edge [u, x] as their face take x when w adds their
    # normals and subtracts, far less, those of u's other facets.  Every
    # rho found is a printed vertex, so a dropped vertex with a printed
    # neighbour is found missing.
    dim, vertices, facets, _ = _printed(out)
    for u in vertices:
        through = [[int(a) for a in normal] for normal, offset in facets if _value(normal, u) == offset]
        for keep in combinations(range(len(through)), dim - 1):
            base = [
                sum(1000 * a if t in keep else -a for t, a in enumerate(col))
                for col in zip(*through)
            ]
            w, rho = _reference_rho(supports, charts, base, rng)
            assert rho in vertices, (u, keep, rho)
            assert _value(w, rho) == max(_value(w, v) for v in vertices), (u, keep, rho)


@pytest.mark.parametrize("seed", range(1, 7))
def test_reference_oracle_confirms_a_full_projection(tmp_path, capsys, seed):
    _check_full_projection_by_reference(tmp_path, capsys, ["2", "3", "--sizes", "3,3,3"], seed)


@pytest.mark.parametrize("seed", [1, 3])
def test_reference_oracle_confirms_an_n3_full_projection(tmp_path, capsys, seed):
    _check_full_projection_by_reference(tmp_path, capsys, ["3", "2", "--sizes", "3,3,3,3"], seed)


def _check_full_projection_by_reference(tmp_path, capsys, args, seed):
    # The vertex, facet and edge checks (a)-(c) on one generated family.
    supports, out = _generated(tmp_path, capsys, args + ["--seed", str(seed)])
    charts = ref_simplex_charts(ref_cayley_points(supports))
    rng = Random(seed)
    _check_vertices_are_reference_rhos(int(args[0]), supports, charts, out, rng)
    _check_facets_hold_reference_rhos(supports, charts, out, rng)
    _check_neighbours_are_printed(supports, charts, out, rng)


def _projected_rho(supports, charts, projection, symbolic, rng):
    # (w, the symbolic part of rho) where the symbolic columns are lifted by
    # w = symbolic() and the others by randint(-3, 3), redrawn until the
    # lift is generic.
    width = sum(map(len, supports))
    for _ in range(100):
        lift, w = [rng.randint(-3, 3) for _ in range(width)], symbolic()
        for k, col in enumerate(projection):
            lift[col] = w[k]
        rho = ref_rho(supports, charts, lift)
        if rho is not None:
            return w, tuple(rho[col] for col in projection)
    raise AssertionError("no generic lift")


# n is one less than the number of block sizes.
IMPLICIT_FAMILIES = (
    [("3", "3,3,3", seed) for seed in range(1, 7)]
    + [("4", "4,4,4", seed) for seed in range(1, 4)]
    + [("2", "3,3,3,3", 1), ("2", "3,3,3,3", 2), ("2", "4,3,3,3", 1)]
)


@pytest.mark.parametrize("delta, sizes, seed", IMPLICIT_FAMILIES)
def test_reference_oracle_confirms_an_implicit_projection(tmp_path, capsys, delta, sizes, seed):
    n = str(sizes.count(","))
    args = [n, delta, "--sizes", sizes, "--projection", "implicit", "--seed", str(seed)]
    _check_projection_by_reference(tmp_path, capsys, args, "implicit", Random(seed))


def test_reference_oracle_confirms_a_custom_projection(tmp_path, capsys):
    # ROADMAP's P6 projection: three symbolic points of block 0, two of
    # block 1 and one of block 2.
    args = ["2", "4", "--sizes", "4,4,4", "--seed", "1"]
    spec = "custom 0 0, 0 1, 0 2, 1 0, 1 1, 2 0"
    _check_projection_by_reference(tmp_path, capsys, args, spec, Random(1), once_per_face=True)


def _check_projection_by_reference(tmp_path, capsys, args, spec, rng, once_per_face=False):
    # Pi is the projection of N(R) onto the symbolic columns that ``spec``
    # selects; compute reads the preprocessed family, the reference lifts
    # the raw one.  A vertex of N(R) may project inside Pi, so a lift picks
    # Pi's vertex only when its symbolic part decides alone: that part sits
    # far above the noise on the other columns, and a tie-break scale sits
    # between them.
    supports, out = _generated(tmp_path, capsys, args, ["--projection", spec])
    dim, vertices, facets, _ = _printed(out)
    projection = system_from(int(args[0]), supports, *_projection_spec(spec)).projection
    charts = ref_simplex_charts(ref_cayley_points(supports))

    def through(v):
        return [[int(a) for a in n] for n, offset in facets if _value(n, v) == offset]

    # (a) Each printed vertex v is picked by the sum of the facet normals
    # through it.
    for v in vertices:
        base = [sum(col) for col in zip(*through(v))] or [0] * len(v)
        symbolic = lambda: [10 ** 6 * x + rng.randint(-3, 3) for x in base]
        assert _projected_rho(supports, charts, projection, symbolic, rng)[1] == v, v
    # (b) A facet's normal, with a tie-break above the noise, picks a
    # printed vertex on that facet that maximizes w over the printed ones.
    for normal, offset in facets:
        symbolic = lambda: [10 ** 9 * int(a) + 10 ** 4 * rng.randint(-50, 50) for a in normal]
        w, rho = _projected_rho(supports, charts, projection, symbolic, rng)
        assert rho in vertices and _value(normal, rho) == offset, (normal, rho)
        assert _value(w, rho) == max(_value(w, v) for v in vertices), (normal, rho)
    # (c) From each printed vertex u, dim - 1 facets through it, less u's
    # other facets, pick the far end of an edge at u: a printed vertex, so
    # a dropped vertex with a printed neighbour is found missing.  With
    # ``once_per_face``, facet sets that meet the printed vertices in the
    # same face are tried once, and the tie-break sits far below the facet
    # scales but far above the noise.
    tie = 10 ** 3 if once_per_face else 1
    for u in vertices:
        normals = through(u)
        tops = [_value(n, u) for n in normals]
        on = [
            sum(1 << t for t, n in enumerate(normals) if _value(n, v) == tops[t]) for v in vertices
        ]
        faces = set()
        for keep in combinations(range(len(normals)), dim - 1):
            if once_per_face:
                mask = sum(1 << t for t in keep)
                face = frozenset(i for i, m in enumerate(on) if m & mask == mask)
                if face in faces:
                    continue
                faces.add(face)
            base = [
                sum(10 ** 9 * a if t in keep else -(10 ** 6) * a for t, a in enumerate(col))
                for col in zip(*normals)
            ]
            symbolic = lambda: [x + tie * rng.randint(-3, 3) for x in base]
            w, rho = _projected_rho(supports, charts, projection, symbolic, rng)
            assert rho in vertices, (u, keep, rho)
            assert _value(w, rho) == max(_value(w, v) for v in vertices), (u, keep, rho)
