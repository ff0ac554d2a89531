"""sblq: exact classification of trilinear singular Brascamp-Lieb data.

The package splits into an exact-arithmetic half (rational linear algebra,
four-subspace modules, pencil decomposition, boundedness verdicts) and a
floating-point half (Funk-transform spectral checks and desk-scale
quadrature verification of form identities).
"""

from .classify import StatusTag, Verdict, classify
from .core import (
    FourModule, SBLDatum, apply_equivalence, datum_from_dict, datum_to_dict,
    datum_to_module, direct_sum, module_to_datum,
)
from .decompose import decompose
from .linalg import Matrix, Subspace
from .polynomials import Poly
from .tables import FamilyTag, build, dim_vector

__version__ = "0.1.0"

__all__ = [
    "FamilyTag", "FourModule", "Matrix", "Poly", "SBLDatum", "StatusTag",
    "Subspace", "Verdict", "apply_equivalence", "build", "classify",
    "datum_from_dict", "datum_to_dict", "datum_to_module", "decompose",
    "dim_vector", "direct_sum", "module_to_datum",
    "__version__",
]
