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
- A brute-force reference oracle (``reference.ref_rho``) lifts the Cayley
  points by w, finds the upper cells by exhaustion and sums the mixed
  cells' volumes into rho (Sturmfels, 1994): rho is the vertex of the full
  projection extreme in the direction w.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from random import Random

import pytest

from conftest import system_from
from reference import mixed_area, ref_cayley_points, ref_rank, ref_rho, ref_simplex_charts
from resnewt.cayley import parse_text
from resnewt.cli import main
from resnewt.geometry import f_vector, hull_volume
from resnewt.oracle import VertexOracle
from resnewt.reconstruct import compute_pi


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _generated(tmp_path, capsys, args):
    # (supports, compute's plain stdout) of one generated family.
    text = _run(["generate", *args], capsys)
    path = tmp_path / "family.txt"
    path.write_text(text)
    return parse_text(text).supports, _run(["compute", str(path)], capsys)


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


def _check_vertices_are_reference_rhos(supports, charts, out, rng):
    # (a) Each printed vertex v is rho at a direction inside its normal cone,
    # the sum of the printed facet normals through v, and so is vtx there.
    _, vertices, facets, _ = _printed(out)
    oracle = VertexOracle(system_from(2, supports, "full"))
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
    args = ["2", "3", "--sizes", "3,3,3", "--seed", str(seed)]
    supports, out = _generated(tmp_path, capsys, args)
    charts = ref_simplex_charts(ref_cayley_points(supports))
    rng = Random(seed)
    _check_vertices_are_reference_rhos(supports, charts, out, rng)
    _check_facets_hold_reference_rhos(supports, charts, out, rng)
    _check_neighbours_are_printed(supports, charts, out, rng)
