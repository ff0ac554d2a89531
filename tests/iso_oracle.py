"""Test oracle for module isomorphism: a seeded certificate search.

Each candidate psi is checked by `certificate_valid`, so a returned
certificate is a proof.  No certificate after `trials` seeded integer
combinations of the Hom-space basis is inconclusive, except when the
dimension vectors differ, which is a definite negative.
"""

import random
from dataclasses import dataclass
from typing import Optional

from sblq.core import FourModule, certificate_valid, module_hom_basis
from sblq.linalg import Matrix


@dataclass(frozen=True)
class Iso:
    verdict: str  # "isomorphic", "not-isomorphic" or "inconclusive"
    certificate: Optional[Matrix] = None

    def __bool__(self) -> bool:
        return self.verdict == "isomorphic"


def isomorphism(a: FourModule, b: FourModule, trials: int = 32, seed: int = 0) -> Iso:
    """The identity if it is a certificate a -> b, else the first seeded
    combination of Hom(a, b) that is one."""
    if a.dim_vector != b.dim_vector:
        return Iso("not-isomorphic")
    m = a.dim_M
    eye = Matrix.identity(m)
    if certificate_valid(eye, a, b):
        return Iso("isomorphic", eye)
    basis = module_hom_basis(a, b)
    for t in range(trials if basis else 0):
        rng = random.Random((seed << 24) ^ (t + 1))
        coeffs = [rng.randint(-9, 9) for _ in basis]
        psi = Matrix(m, m, [sum(c * bk.data[idx] for c, bk in zip(coeffs, basis))
                            for idx in range(m * m)])
        if certificate_valid(psi, a, b):
            return Iso("isomorphic", psi)
    return Iso("inconclusive")
