"""Input model: support families, their checks, and the Cayley system.

A problem instance is a family of n+1 supports in Z^n plus a projection
specification marking which coefficients stay symbolic.  This module parses
the two input formats (plain text and JSON), validates essentiality,
performs the specialized-point preprocessing, assembles the Cayley point
configuration with its M matrix, and recovers full-space vertices from
projected ones.
"""

import json
import re
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    AmbiguousUnprojection,
    DegenerateInput,
    NotEssential,
    ParseError,
    ResnewtError,
)
from .exactlin import AffineChart, int_vector, rank_int, vec_sub
from .geometry import FacetHull, lattice_hull

__all__ = [
    "SupportFamily",
    "CayleySystem",
    "parse_text",
    "parse_json",
    "parse_input",
    "family_to_text",
    "family_to_json",
    "check_essential",
    "essential_violation",
    "preprocess",
    "build_cayley",
    "unproject",
]

_MODE_ALIASES = {
    "full": "full",
    "u-res": "u-resultant",
    "u-resultant": "u-resultant",
    "ures": "u-resultant",
    "implicit": "implicitization",
    "implicitization": "implicitization",
    "custom": "custom",
}


@dataclass
class SupportFamily:
    """n+1 supports in Z^n with per-point symbolic flags.

    ``supports[i]`` lists the points of the i-th support (input order,
    duplicates forbidden); ``symbolic[i][j]`` is True when the coefficient of
    that point is a projection coordinate.  ``mode`` records how the flags
    were derived.
    """

    n: int
    supports: list
    symbolic: list
    mode: str


# -- parsing --------------------------------------------------------------------


_DECIMAL = re.compile(r"[+-]?\d+(_\d+)*")  # an integer literal as ``int`` reads it


def _read_ints(words, noun, where):
    """The ints the ``words`` spell, or ``ParseError`` naming the ``noun`` read.

    ``int`` fails on a decimal literal only past Python's int-string limit,
    so when every word is one the error names too many digits.
    """
    try:
        return [int(w) for w in words]
    except ValueError:
        if all(_DECIMAL.fullmatch(w) for w in words):
            raise ParseError("%s with too many digits %s" % (noun, where)) from None
        raise ParseError("non-integer %s %s" % (noun, where)) from None


def _parse_point(text, n):
    parts = text.split()
    echo = text if len(text) <= 40 else text[:37] + "..."
    if len(parts) != n:
        raise ParseError("point %r must have %d coordinates" % (echo, n))
    return tuple(_read_ints(parts, "coordinate", "in point %r" % echo))


def _apply_projection(n, supports, mode, pairs=()):
    """The family of ``supports`` with the symbolic points that canonical
    ``mode`` selects (in custom mode, the (block, point) ``pairs``)."""
    symbolic = [[False] * len(s) for s in supports]
    if mode == "full":
        symbolic = [[True] * len(s) for s in supports]
    elif mode == "u-resultant":
        simplex = {tuple([0] * n)} | {
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        }
        if set(supports[0]) != simplex:
            raise ParseError(
                "u-resultant mode requires support 0 to be the unit simplex"
            )
        symbolic[0] = [True] * len(supports[0])
    elif mode == "implicitization":
        origin = tuple([0] * n)
        for i, s in enumerate(supports):
            if origin not in s:
                raise ParseError(
                    "implicitization mode requires the origin in support %d" % i
                )
            symbolic[i][s.index(origin)] = True
    elif mode == "custom":
        if not pairs:
            raise ParseError("custom projection lists no symbolic points")
        seen = set()
        for (i, j) in pairs:
            if not (0 <= i < len(supports)) or not (0 <= j < len(supports[i])):
                raise ParseError("symbolic pair (%d, %d) out of range" % (i, j))
            if (i, j) in seen:
                raise ParseError("symbolic pair (%d, %d) repeated" % (i, j))
            seen.add((i, j))
            symbolic[i][j] = True
    if not any(map(any, symbolic)):
        raise ParseError("no symbolic coefficients selected")
    return SupportFamily(n, supports, symbolic, mode)


def _check_n(n):
    """Reject n below 1, before a line or point count is read by it."""
    if n < 1:
        raise ParseError("n must be at least 1")


def _validate_supports(n, supports):
    if len(supports) != n + 1:
        raise ParseError("expected %d supports, got %d" % (n + 1, len(supports)))
    for i, s in enumerate(supports):
        if not s:
            raise ParseError("support %d is empty" % i)
        if len(set(s)) != len(s):
            raise ParseError("support %d contains duplicate points" % i)


def parse_text(text):
    """Parse the plain-text input format.

    Line 1: n.  Then n+1 lines, one per support, points separated by ';',
    each point n integers; an empty point, as between two ';' or after a
    trailing one, is an error.  Then the last line, ``projection: <mode>``
    where mode is full | u-res | implicit | custom followed by (block,
    point) index pairs.  '#' starts a comment; blank lines are skipped.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty input")
    n = _read_ints([lines[0]], "n", "on the first line")[0]
    _check_n(n)
    if len(lines) != n + 3:
        raise ParseError("expected %d support lines, then the projection line last" % (n + 1))
    supports = []
    for i in range(1, n + 2):
        pieces = [p.strip() for p in lines[i].split(";")]
        if not all(pieces):
            raise ParseError("support line %d has an empty point" % i)
        supports.append([_parse_point(p, n) for p in pieces])
    key, colon, spec = lines[n + 2].partition(":")
    if not colon or key.strip().lower() != "projection":
        raise ParseError("projection line must be 'projection: <mode> ...'")
    mode, pairs = _projection_spec(spec)
    _validate_supports(n, supports)
    return _apply_projection(n, supports, mode, pairs)


def _read_mode(word, has_arguments):
    """The canonical mode named by ``word``; only custom mode has arguments."""
    mode = _MODE_ALIASES.get(str(word).lower())
    if mode is None:
        raise ParseError("unknown projection mode %r" % word)
    if has_arguments and mode != "custom":
        raise ParseError("mode %r takes no extra arguments" % mode)
    return mode


def _projection_spec(text):
    """(mode, pairs) from a mode word and, for custom mode, index pairs.

    ``text`` is the projection as written, on the input's projection line
    or in ``--projection``: words split at spaces and commas.
    """
    words = text.replace(",", " ").split()
    if not words:
        raise ParseError("projection names no mode")
    mode = _read_mode(words[0], len(words) > 1)
    idx = words[1:]
    if len(idx) % 2 != 0:
        raise ParseError("custom projection needs (block, point) index pairs")
    nums = _read_ints(idx, "index", "in custom projection")
    return mode, list(zip(nums[0::2], nums[1::2]))


def parse_json(text):
    """Parse the JSON input format.

    ``{"n": ..., "supports": [[[...], ...], ...],
       "projection": {"mode": ..., "symbolic": [[i, j], ...]}}``
    (``symbolic`` for custom mode only, as the text format's index pairs;
    a bare string is accepted for ``projection`` as shorthand for
    {"mode": ...}).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    except ValueError:  # an integer past the int-string limit
        raise ParseError("invalid JSON: a number with too many digits") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("JSON input must be an object")
    n, raw_supports = data.get("n"), data.get("supports")
    if type(n) is not int or not isinstance(raw_supports, list):
        raise ParseError("JSON input needs integer 'n' and a list 'supports'")
    _check_n(n)
    supports = []
    for s in raw_supports:
        if not _int_rows(s, n):
            raise ParseError("each support must be a list of points of %d integers" % n)
        supports.append([tuple(p) for p in s])
    proj = data.get("projection", "full")
    if isinstance(proj, str):
        proj = {"mode": proj}
    if not isinstance(proj, dict):
        raise ParseError("'projection' must be a mode name or an object")
    mode = _read_mode(proj.get("mode", "full"), "symbolic" in proj)
    pairs = proj.get("symbolic", [])
    if not _int_rows(pairs, 2):
        raise ParseError("symbolic pairs must be [block, point] integer pairs")
    _validate_supports(n, supports)
    return _apply_projection(n, supports, mode, [tuple(p) for p in pairs])


def _int_rows(value, length):
    """Whether ``value`` is a list of lists of ``length`` ints (not bools)."""
    return isinstance(value, list) and all(
        isinstance(v, list) and len(v) == length and all(type(x) is int for x in v)
        for v in value
    )


def parse_input(text):
    """Parse either input format (JSON when the text starts with '{')."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_text(text)


def _symbolic_pairs(family):
    """The (block, point) index pairs of the symbolic points, in order."""
    return [
        (i, j)
        for i, flags in enumerate(family.symbolic)
        for j, f in enumerate(flags)
        if f
    ]


def family_to_text(family):
    """Serialize a family to the plain-text input format."""
    lines = [str(family.n)]
    for s in family.supports:
        lines.append(" ; ".join(" ".join(str(x) for x in p) for p in s))
    if family.mode == "custom":
        pairs = ", ".join("%d %d" % p for p in _symbolic_pairs(family))
        lines.append("projection: custom " + pairs)
    else:
        lines.append("projection: %s" % family.mode)
    return "\n".join(lines) + "\n"


def family_to_json(family):
    """Serialize a family to the JSON input format."""
    proj = {"mode": family.mode}
    if family.mode == "custom":
        proj["symbolic"] = [list(p) for p in _symbolic_pairs(family)]
    data = {
        "n": family.n,
        "supports": [[list(p) for p in s] for s in family.supports],
        "projection": proj,
    }
    return json.dumps(data, indent=2) + "\n"


# -- essentiality ----------------------------------------------------------------


def essential_violation(family):
    """Return None if the family is essential, else the violating blocks.

    An empty tuple means the union fails to affinely span R^n; otherwise the
    smallest (by size, then lexicographically) proper subfamily whose pooled
    within-block edge vectors have rank below its cardinality is returned.
    """
    n = family.n
    p0 = family.supports[0][0]
    if rank_int((vec_sub(p, p0) for s in family.supports for p in s), n) < n:
        return ()
    for size in range(1, n + 1):
        for subset in combinations(range(n + 1), size):
            pooled = (
                vec_sub(p, family.supports[i][0])
                for i in subset
                for p in family.supports[i][1:]
            )
            if rank_int(pooled, size) < size:
                return subset
    return None


def check_essential(family):
    """Raise ``NotEssential`` (with the violating blocks) unless essential.

    Its message is the reason the CLI prints: "supports do not span" or
    "violating blocks [...]".
    """
    violation = essential_violation(family)
    if violation == ():
        raise NotEssential((), "supports do not span")
    if violation is not None:
        raise NotEssential(violation, "violating blocks %s" % list(violation))


# -- preprocessing -----------------------------------------------------------------


def _hull_vertices(points):
    """The vertices of the hull of distinct points, as a set.

    One ``FacetHull`` of the points, taken over their own lattice
    (``lattice_hull``) when they are not full-dimensional.  A point is a
    vertex exactly when the facets through it meet in it alone.
    """
    try:
        hull = FacetHull(points)
    except DegenerateInput:
        hull = lattice_hull(points)[0]
    masks = hull.facet_map().values()
    everyone = (1 << len(hull.tags)) - 1
    out = set()
    for u, tag in enumerate(hull.tags):
        meet = everyone
        for mask in masks:
            if mask >> u & 1:
                meet &= mask
        if meet == 1 << u:
            out.add(tag)
    return out


def preprocess(family):
    """Remove specialized points inside the hull of their block's others.

    A non-symbolic point lying in the convex hull of the *other* non-symbolic
    points of its own block cannot contribute to the projected polytope and
    is dropped, until none is left.  Symbolic points are never touched.
    Returns a new family.

    Dropping a point that lies in the hull of the others leaves that hull as
    it was, and points are distinct, so the points dropped are exactly the
    non-vertices of the block's non-symbolic hull: one hull per block with
    non-symbolic points finds them all.
    """
    supports = []
    symbolic = []
    for pts, flags in zip(family.supports, family.symbolic):
        spec = [p for p, f in zip(pts, flags) if not f]
        vertices = _hull_vertices(spec) if spec else ()
        kept = [k for k, p in enumerate(pts) if flags[k] or p in vertices]
        supports.append([pts[k] for k in kept])
        symbolic.append([flags[k] for k in kept])
    return SupportFamily(family.n, supports, symbolic, family.mode)


# -- Cayley system -----------------------------------------------------------------


@dataclass
class CayleySystem:
    """The Cayley point configuration of a support family.

    ``columns`` lists the |A| Cayley points in Z^{2n} in block-major input
    order (point a of block i becomes (a, e_i) with e_0 = 0).  ``projection``
    lists the symbolic column indices (same order); projected vectors use
    that coordinate order, and ``specialized`` lists the other columns in
    order.  ``M`` is the (2n+1) x |A| matrix whose column for
    a point a of block i is (a, unit_i) with unit_i in {0,1}^{n+1}; M maps
    exponent vectors to their block-degree/content invariants.
    ``block_masks[i]`` is the column bit mask of block i, the one record of
    a column's block: column c is in block i when bit c of it is set, and
    M's indicator rows are these masks' bits.
    """

    n: int
    family: SupportFamily
    columns: list
    block_masks: list
    projection: list
    specialized: list
    m: int
    M: list

    @property
    def num_columns(self):
        return len(self.columns)


def build_cayley(family):
    """Assemble the Cayley system for an essential, preprocessed family."""
    n = family.n
    columns = []
    block_masks = []
    projection = []
    specialized = []
    for i, s in enumerate(family.supports):
        mask = 0
        unit = tuple(1 if k == i - 1 else 0 for k in range(n))
        for j, p in enumerate(s):
            col = len(columns)
            columns.append(tuple(p) + unit)
            mask |= 1 << col
            (projection if family.symbolic[i][j] else specialized).append(col)
        block_masks.append(mask)
    m = len(projection)
    big_m = []
    for r in range(n):
        big_m.append(tuple(columns[c][r] for c in range(len(columns))))
    for mask in block_masks:
        big_m.append(tuple(mask >> c & 1 for c in range(len(columns))))
    return CayleySystem(
        n=n,
        family=family,
        columns=columns,
        block_masks=block_masks,
        projection=projection,
        specialized=specialized,
        m=m,
        M=big_m,
    )


def unproject(sys, projected_vertices, rho_ref):
    """Recover full |A|-coordinate vertices from projected ones.

    The invariant M.rho = const across vertices pins the specialized
    coordinates: with C sampled from one full reference vertex, each
    projected vertex B solves M_spec X = C - M_sym B exactly.  Solutions
    must be unique and integral: ``AmbiguousUnprojection`` is raised when
    the specialized columns leave degrees of freedom, ``ResnewtError`` when
    a vertex has no integral solution.  ``rho_ref`` (|A| entries) and each
    projected vertex (m entries) pass ``int_vector``.
    """
    total = sys.num_columns
    rho_ref = int_vector(rho_ref, total)
    if sys.m == total:
        return [int_vector(b, total) for b in projected_vertices]
    c_vec = [sum(row[j] * rho_ref[j] for j in range(total)) for row in sys.M]
    try:
        chart = AffineChart(
            [0] * len(sys.M), [[row[j] for row in sys.M] for j in sys.specialized]
        )
    except DegenerateInput:
        raise AmbiguousUnprojection(
            "specialized columns do not determine the remaining coordinates"
        ) from None
    out = []
    for b in projected_vertices:
        b = int_vector(b, sys.m)
        rhs = [
            c_vec[r]
            - sum(sys.M[r][col] * b[k] for k, col in enumerate(sys.projection))
            for r in range(len(sys.M))
        ]
        sol = chart.coords(rhs)
        if sol is None:
            raise ResnewtError(
                "unprojection system has no integral solution; vertex mismatch"
            )
        full = [0] * total
        for k, col in enumerate(sys.projection):
            full[col] = b[k]
        for k, col in enumerate(sys.specialized):
            full[col] = sol[k]
        out.append(tuple(full))
    return out
