"""Outputs for n >= 2 checked against truths known in closed form.

- The resultant is homogeneous in the coefficients of each f_i, of degree
  MV(A_j : j != i) (Gelfand, Kapranov & Zelevinsky, 1994, ch. 8; Pedersen
  & Sturmfels, 1993).  So on every vertex rho of a full projection the sum
  of rho_a over a in A_i is that mixed volume, and each such equation lies
  in the row space of the printed ``e`` lines.  For n = 2 the mixed area
  comes from planar hulls alone (``reference.mixed_area``).
- The dense linear family in n variables has the (n+1) x (n+1) determinant
  of its coefficients as resultant, so its output is the Birkhoff polytope:
  the permutation matrices as vertices, one facet rho_(i,a) >= 0 per
  coefficient, and dimension n^2.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from reference import mixed_area, ref_rank
from resnewt.cayley import parse_text
from resnewt.cli import main


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
