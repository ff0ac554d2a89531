"""Canonical data fixtures.

Four fixtures are the explicit integral forms written out in coordinates
(the bilinear Hilbert transform, the twisted paraproduct, the triangular
Hilbert transform, and the first staircase multiplier form); the rest are
built from the family constructors and scrambled by a fixed equivalence so
they do not arrive in table coordinates.  `fixture_datum` computes them
live; the shipped JSON files under sblq/fixtures/ freeze the default
parameters.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Dict, List

from .core import (
    SBLDatum, apply_equivalence, datum_from_dict, direct_sum_all,
    module_to_datum, random_equivalence,
)
from .linalg import Matrix
from .polynomials import Poly
from .tables import FamilyTag, build


# the largest size n a fixture is built at: coifman_meyer(32) has dim H = 65
# and builds in well under a second, while n = 100 took seconds and n = 10^5
# ran out of memory
MAX_SIZE = 32


class FixtureTooLarge(ValueError):
    """A size parameter above `MAX_SIZE`, refused before anything is built."""


def _check_size(n: int) -> None:
    if n > MAX_SIZE:
        raise FixtureTooLarge(f"size {n} exceeds the fixture limit of {MAX_SIZE}")


def bht(alpha=Fraction(1, 3)) -> SBLDatum:
    """f1(x) f2(x+t) f3(x+alpha*t) against a one-dimensional kernel in t."""
    alpha = Fraction(alpha)
    if alpha in (0, 1):
        raise ValueError("bht needs alpha outside {0, 1}")
    return SBLDatum(2, (1, 1, 1, 1),
                    (Matrix(1, 2, [0, 1]), Matrix(1, 2, [1, 0]),
                     Matrix(1, 2, [1, 1]), Matrix(1, 2, [1, alpha])))


def coifman_meyer(n: int = 1) -> SBLDatum:
    """The size-n staircase multiplier datum (the n = 1 form is written out),
    1 <= n <= `MAX_SIZE`."""
    if n < 1:
        raise ValueError("coifman_meyer needs n >= 1")
    _check_size(n)
    if n == 1:
        # f1(x) f2(x+y) f3(x+z) K(y,z) over (x, y, z)
        return SBLDatum(3, (2, 1, 1, 1),
                        (Matrix(2, 3, [0, 1, 0, 0, 0, 1]),
                         Matrix(1, 3, [1, 0, 0]),
                         Matrix(1, 3, [1, 1, 0]),
                         Matrix(1, 3, [1, 0, 1])))
    return _scrambled([FamilyTag("C", n)], seed=1000 + n)


def twisted_paraproduct() -> SBLDatum:
    """f1(x+s,y) f2(x,y+t) f3(x,y) K(s,t) over (x, y, s, t)."""
    return SBLDatum(4, (2, 2, 2, 2),
                    (Matrix(2, 4, [0, 0, 1, 0, 0, 0, 0, 1]),
                     Matrix(2, 4, [1, 0, 1, 0, 0, 1, 0, 0]),
                     Matrix(2, 4, [1, 0, 0, 0, 0, 1, 0, 1]),
                     Matrix(2, 4, [1, 0, 0, 0, 0, 1, 0, 0])))


def triangular_hilbert() -> SBLDatum:
    """f1(x1,x2) f2(x1+t,x2) f3(x1,x2+t) against a kernel in t."""
    return SBLDatum(3, (1, 2, 2, 2),
                    (Matrix(1, 3, [0, 0, 1]),
                     Matrix(2, 3, [1, 0, 0, 0, 1, 0]),
                     Matrix(2, 3, [1, 0, 1, 0, 1, 0]),
                     Matrix(2, 3, [1, 0, 0, 0, 1, 1])))


def _scrambled(tags: List[FamilyTag], seed: int) -> SBLDatum:
    d = module_to_datum(direct_sum_all([build(t) for t in tags]))
    return apply_equivalence(d, random_equivalence(d, seed))


def j2(i: int = 2) -> SBLDatum:
    if i not in (1, 2, 3):
        raise ValueError("superscript must be 1, 2 or 3")
    return _scrambled([FamilyTag(f"J{i}", 2)], seed=1005)


def n1_j1(i: int = 1, alpha=Fraction(2, 5)) -> SBLDatum:
    if i not in (1, 2, 3):
        raise ValueError("superscript must be 1, 2 or 3")
    poly = Poly([-Fraction(alpha), 1])
    return _scrambled([FamilyTag("N", 1, regular_poly=poly),
                       FamilyTag(f"J{i}", 1)], seed=1006)


def three_twisted() -> SBLDatum:
    return _scrambled([FamilyTag("J1", 1), FamilyTag("J2", 1),
                       FamilyTag("J3", 1), FamilyTag("C", 1)], seed=1007)


def young() -> SBLDatum:
    return _scrambled([FamilyTag("Y"), FamilyTag("Z")], seed=1008)


def loomis_whitney() -> SBLDatum:
    return _scrambled([FamilyTag("L")], seed=1009)


def bilinear_holder_pk() -> SBLDatum:
    return _scrambled([FamilyTag("P1"), FamilyTag("K1")], seed=1010)


_BUILDERS = {
    "bht": bht,
    "coifman_meyer": coifman_meyer,
    "twisted_paraproduct": twisted_paraproduct,
    "triangular_hilbert": triangular_hilbert,
    "j2": j2,
    "n1_j1": n1_j1,
    "three_twisted": three_twisted,
    "young": young,
    "loomis_whitney": loomis_whitney,
    "bilinear_holder_pk": bilinear_holder_pk,
}

FIXTURE_NAMES = tuple(_BUILDERS)

# the ten shipped files, with their frozen default parameters
SHIPPED_FIXTURES = (
    "bht", "coifman_meyer_1", "coifman_meyer_2", "twisted_paraproduct",
    "j2", "n1_j1", "three_twisted", "triangular_hilbert", "young",
    "loomis_whitney", "bilinear_holder_pk",
)


def family_datum(spec: str, alpha=Fraction(1, 3)) -> SBLDatum:
    """Datum of a raw constructor given as '<family>_<n>', e.g. 'T_2' or 'J2_1'.

    Regular families take their parameter from `alpha` (degree-1 polynomial
    t - alpha, repeated into a power for larger n).  Sizes above `MAX_SIZE`
    are refused.
    """
    family, _, n_text = spec.rpartition("_")
    if not family:
        family, n_text = spec, "0"
    n = int(n_text)
    _check_size(n)
    if family in ("0", "N"):
        tag = FamilyTag(family, n, regular_poly=Poly.from_roots([Fraction(alpha)] * n))
    else:
        tag = FamilyTag(family, n)
    return module_to_datum(build(tag))


def fixture_datum(name: str, **params) -> SBLDatum:
    """Build a fixture by name; parametric fixtures accept keyword overrides.

    Besides the named scenarios, any constructor is addressable as
    '<family>_<n>' (for example 'C_2', 'J3_1', 'N_1').
    """
    if name in _BUILDERS:
        return _BUILDERS[name](**params)
    try:
        return family_datum(name, **params)
    except FixtureTooLarge:
        raise
    except (ValueError, KeyError):
        raise KeyError(f"unknown fixture {name!r}; know {sorted(_BUILDERS)} "
                       "or '<family>_<n>' constructor specs") from None


def shipped_fixture(name: str) -> SBLDatum:
    """Load one of the frozen fixture files shipped with the package."""
    path = resources.files("sblq").joinpath(f"fixtures/{name}.json")
    return datum_from_dict(json.loads(path.read_text()))


def shipped_fixture_dict(name: str) -> Dict:
    path = resources.files("sblq").joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text())


def build_shipped(name: str) -> SBLDatum:
    """Recompute the datum that a shipped fixture file freezes."""
    if name.startswith("coifman_meyer_"):
        return coifman_meyer(int(name.rsplit("_", 1)[1]))
    return fixture_datum(name)
