"""resnewt: projected Newton polytopes of sparse resultants, exactly.

Given n+1 supports in Z^n and a choice of symbolic coefficients, this
package reconstructs the orthogonal projection of the resultant's Newton
polytope onto those coefficients, using only exact integer and rational
arithmetic.  The polytope is recovered output-sensitively from a vertex
oracle built on the Cayley trick; determinant predicates are accelerated by
a cache of reusable minors.
"""

from .cayley import *
from .errors import *
from .geometry import *
from .kernels import *
from .oracle import *
from .outer import *
from .reconstruct import *

__version__ = "1.0.0"

# Each star import also binds its submodule here, so the root exports
# exactly the names that the modules it re-exports declare.
__all__ = [
    "__version__",
    *cayley.__all__,
    *errors.__all__,
    *geometry.__all__,
    *kernels.__all__,
    *oracle.__all__,
    *outer.__all__,
    *reconstruct.__all__,
]
