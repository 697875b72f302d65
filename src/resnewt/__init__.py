"""resnewt: projected Newton polytopes of sparse resultants, exactly.

Given n+1 supports in Z^n and a choice of symbolic coefficients, this
package reconstructs the orthogonal projection of the resultant's Newton
polytope onto those coefficients, using only exact integer and rational
arithmetic.  The polytope is recovered output-sensitively from a vertex
oracle built on the Cayley trick; determinant predicates are accelerated by
a cache of reusable minors.
"""

from .cayley import (
    CayleySystem,
    SupportFamily,
    build_cayley,
    check_essential,
    essential_violation,
    family_to_json,
    family_to_text,
    parse_input,
    parse_json,
    parse_text,
    preprocess,
    unproject,
)
from .errors import (
    AmbiguousUnprojection,
    DegenerateInput,
    EmptyIntersection,
    InvalidDirection,
    InvariantViolation,
    NotEssential,
    ParseError,
    ResnewtError,
)
from .geometry import (
    FacetHull,
    Hyperplane,
    TriangulatedHull,
    f_vector,
    hull_volume,
    lattice_hull,
)
from .kernels import BACKEND, MinorCache, det_bareiss
from .oracle import VertexOracle
from .outer import OuterPolytope, clip_halfspace
from .reconstruct import (
    BuildState,
    SandwichReport,
    compute_pi,
    compute_pi_approx,
    compute_pi_random,
    initialize,
    stats,
)

__version__ = "1.0.0"

__all__ = [
    "AmbiguousUnprojection",
    "BACKEND",
    "BuildState",
    "CayleySystem",
    "DegenerateInput",
    "EmptyIntersection",
    "FacetHull",
    "Hyperplane",
    "InvalidDirection",
    "InvariantViolation",
    "MinorCache",
    "NotEssential",
    "OuterPolytope",
    "ParseError",
    "ResnewtError",
    "SandwichReport",
    "SupportFamily",
    "TriangulatedHull",
    "VertexOracle",
    "__version__",
    "build_cayley",
    "check_essential",
    "clip_halfspace",
    "compute_pi",
    "compute_pi_approx",
    "compute_pi_random",
    "det_bareiss",
    "essential_violation",
    "f_vector",
    "family_to_json",
    "family_to_text",
    "hull_volume",
    "initialize",
    "lattice_hull",
    "parse_input",
    "parse_json",
    "parse_text",
    "preprocess",
    "stats",
    "unproject",
]
