"""Output checks: invariants of one CLI output, goldens and recorded digests.

The invariants are computed here from the printed numbers alone, with this
file's own exact arithmetic, so they do not trust the code under test.
"""

import hashlib
import importlib.util
import json
import os
from fractions import Fraction

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


class CheckFailed(Exception):
    pass


def parse_output(stdout):
    """Plain ``compute`` output as a dict of vertices, facets, equations."""
    doc = {"vertices": [], "facets": [], "equations": [], "sandwich": {}, "header": {}}
    for line in stdout.splitlines():
        if line.startswith("v "):
            doc["vertices"].append(tuple(int(x) for x in line[2:].split()))
        elif line.startswith("f "):
            lhs, off = line[2:].split(" <= ")
            doc["facets"].append((tuple(int(x) for x in lhs.split()), int(off)))
        elif line.startswith("e "):
            lhs, off = line[2:].split(" = ")
            doc["equations"].append((tuple(int(x) for x in lhs.split()), int(off)))
        elif line.startswith("  "):
            key, val = line.strip().split(": ", 1)
            doc["sandwich"][key] = val
        elif ": " in line:
            key, val = line.split(": ", 1)
            doc["header"][key] = val
    doc["dim"] = int(doc["header"]["dim"])
    return doc


def parse_stats(stderr):
    """The ``--stats`` block on stderr as a dict of strings."""
    out = {}
    for line in stderr.splitlines()[1:]:
        key, val = line.strip().split(": ", 1)
        out[key] = val
    return out


def rank(rows):
    """Rank of a list of integer vectors (exact elimination)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def affine_rank(points):
    """Dimension of the affine hull of points; -1 when there are none."""
    if not points:
        return -1
    return rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def check_polytope(doc, main_calls=None, threshold=None):
    """Raise CheckFailed unless the printed polytope is self-consistent.

    * every vertex satisfies every facet inequality and every equation;
    * each facet is tight on ``dim`` affinely independent vertices;
    * each vertex is a vertex of the printed H-description: the equations
      and the facets tight at it have full rank;
    * the vertices span exactly ``dim`` dimensions;
    * ``main_calls <= |V| + |F|`` (the output-sensitive call bound);
    * approx mode: inner <= outer volume, ratio = inner/outer >= threshold
      and ``reached`` is yes.
    """
    verts, facets, eqs, dim = doc["vertices"], doc["facets"], doc["equations"], doc["dim"]
    if not verts:
        raise CheckFailed("no vertices")
    for key in ("vertices", "facets", "equations"):
        if int(doc["header"].get(key, 0)) != len(doc[key]):
            raise CheckFailed("%s: header and lines disagree" % key)
    if len(verts) != len(set(verts)):
        raise CheckFailed("repeated vertex")
    if affine_rank(verts) != dim:
        raise CheckFailed("vertices span %d dimensions, output says %d" % (affine_rank(verts), dim))
    if dim > 0 and len(facets) < dim + 1:
        raise CheckFailed("%d facets cannot bound a %d-polytope" % (len(facets), dim))
    for v in verts:
        for normal, off in eqs:
            if sum(a * b for a, b in zip(normal, v)) != off:
                raise CheckFailed("vertex %s off equation %s = %d" % (v, normal, off))
        for normal, off in facets:
            if sum(a * b for a, b in zip(normal, v)) > off:
                raise CheckFailed("vertex %s violates facet %s <= %d" % (v, normal, off))
    for normal, off in facets:
        tight = [v for v in verts if sum(a * b for a, b in zip(normal, v)) == off]
        if affine_rank(tight) < dim - 1:
            raise CheckFailed("facet %s <= %d is tight on too few vertices" % (normal, off))
    eq_rows = [normal for normal, _ in eqs]
    for v in verts:
        tight = [normal for normal, off in facets if sum(a * b for a, b in zip(normal, v)) == off]
        if rank(eq_rows + tight) < len(v):
            raise CheckFailed("vertex %s is not a vertex of the facets and equations" % (v,))
    if main_calls is not None and main_calls > len(verts) + len(facets):
        raise CheckFailed(
            "main calls %d exceed |V|+|F| = %d" % (main_calls, len(verts) + len(facets))
        )
    if threshold is not None:
        s = doc["sandwich"]
        inner, outer, ratio = (Fraction(s[k]) for k in ("inner-volume", "outer-volume", "ratio"))
        if not (0 < inner <= outer):
            raise CheckFailed("inner volume %s, outer volume %s" % (inner, outer))
        if ratio != inner / outer or ratio < threshold or s["reached"] != "yes":
            raise CheckFailed("sandwich ratio %s, reached %s" % (ratio, s["reached"]))


# -- goldens -----------------------------------------------------------------


def _support_line(support):
    return " ; ".join(" ".join(str(x) for x in p) for p in support)


def golden_cases(root):
    """[(label, input text, expected vertex set)] from tests/golden.py."""
    path = os.path.join(root, "tests", "golden.py")
    spec = importlib.util.spec_from_file_location("resnewt_golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)

    def text(inst, mode):
        lines = [str(inst["n"])] + [_support_line(s) for s in inst["supports"]]
        return "\n".join(lines + ["projection: " + mode]) + "\n"

    ms = golden.MONOMIAL_SURFACE
    return [
        ("SYLVESTER", text(golden.SYLVESTER, "full"), golden.SYLVESTER["vertices"]),
        ("MONOMIAL_SURFACE full", text(ms, "full"), ms["mode_full_vertices"]),
        ("MONOMIAL_SURFACE implicit", text(ms, "implicit"), ms["mode_implicit_vertices"]),
        ("CIRCLE_LINE", text(golden.CIRCLE_LINE, "u-res"), golden.CIRCLE_LINE["vertices"]),
        ("BICUBIC", text(golden.BICUBIC, "implicit"), golden.BICUBIC["vertices"]),
    ]


# -- digests of CLI output recorded at the seed commit -------------------------


def _h(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def digest_key(mode, text):
    return _h(mode + "\n" + text)


def output_digest(stdout):
    return _h(stdout)


def load_digests():
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
