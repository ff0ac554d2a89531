import itertools
from fractions import Fraction

import pytest

from sblq.core import DimVector, direct_sum
from sblq.linalg import Matrix, Subspace
from sblq.polynomials import Poly
from sblq.tables import (
    ALL_FAMILIES, FIXED_FAMILIES, FamilyTag, build, dim_vector,
    permutation_orbits,
)

from iso_oracle import isomorphism
from spans import same_span, subspace_intersect


def tag_for(family, n):
    if family in ("0", "N"):
        # t - 2 repeated into a power for larger n keeps the 0/1 exclusions
        return FamilyTag(family, n, regular_poly=Poly([-2, 1]) ** n)
    return FamilyTag(family, n)


def all_tags(max_n):
    for family in ALL_FAMILIES:
        if family in FIXED_FAMILIES:
            yield FamilyTag(family)
            continue
        lo = 1 if family in ("0", "I", "N", "J1", "J2", "J3") else 0
        for n in range(lo, max_n + 1):
            yield tag_for(family, n)


def test_dim_vector_examples():
    assert dim_vector(FamilyTag("IV*", 0)) == DimVector(2, 1, 1, 1, 2)
    assert dim_vector(FamilyTag("C", 0)) == DimVector(1, 1, 0, 0, 0)
    assert dim_vector(FamilyTag("Z")) == DimVector(3, 1, 1, 1, 1)


def test_build_examples():
    n1 = build(FamilyTag("N", 1, regular_poly=Poly([-Fraction(1, 3), 1])))
    assert n1.dim_vector == DimVector(2, 1, 1, 1, 1)
    assert same_span(n1.sub[3], Subspace(2, Matrix.column([Fraction(1, 3), 1])))
    assert build(FamilyTag("T", 1)).dim_vector == DimVector(3, 1, 2, 2, 2)
    assert build(FamilyTag("L")).dim_vector == DimVector(4, 1, 2, 2, 2)


def test_dim_vector_matches_build_everywhere():
    for tag in all_tags(4):
        assert dim_vector(tag) == build(tag).dim_vector, tag


def test_dim_vector_matches_build_under_permutation():
    perm = (2, 0, 3, 1)
    for family in ("II", "III", "III*", "IV", "T", "C"):
        tag = FamilyTag(family, 1, permutation=perm)
        assert dim_vector(tag) == build(tag).dim_vector


def test_direct_sum_dimension_examples():
    n1 = build(tag_for("N", 1))
    assert direct_sum(n1, n1).dim_vector == DimVector(4, 2, 2, 2, 2)
    yz = direct_sum(build(FamilyTag("Y")), build(FamilyTag("Z")))
    assert yz.dim_vector == DimVector(5, 1, 2, 2, 2)


def test_tag_validation():
    with pytest.raises(ValueError):
        FamilyTag("N", 0, regular_poly=Poly([1]))
    with pytest.raises(ValueError):
        FamilyTag("N", 1, regular_poly=Poly([0, 1]))      # vanishes at 0
    with pytest.raises(ValueError):
        FamilyTag("N", 1, regular_poly=Poly([-1, 1]))     # vanishes at 1
    with pytest.raises(ValueError):
        FamilyTag("N", 2, regular_poly=Poly([-2, 1]))     # degree mismatch
    with pytest.raises(ValueError):
        FamilyTag("J2", 0)
    with pytest.raises(ValueError):
        FamilyTag("Y", 1)
    with pytest.raises(ValueError):
        FamilyTag("C", 1, regular_poly=Poly([-2, 1]))
    with pytest.raises(ValueError):
        FamilyTag("nope")


def test_permutation_orbit_counts():
    assert len(permutation_orbits("I")) == 6
    assert len(permutation_orbits("V")) == 1
    assert len(permutation_orbits("IV")) == 4


def test_typeII_orbits_are_singletons():
    # the size-n subspace inside exactly one size-(n+1) subspace pins every
    # slot: no two permutations of II_1 are isomorphic
    orbits = permutation_orbits("II")
    assert len(orbits) == 24
    a = build(FamilyTag("II", 1))
    b = build(FamilyTag("II", 1, permutation=(1, 0, 3, 2)))
    assert a.dim_vector == b.dim_vector
    # containment witness: slot 2 sits inside slot 1 for a but not for b
    assert subspace_intersect(a.sub[1], a.sub[2]).dim == a.sub[2].dim
    assert subspace_intersect(b.sub[1], b.sub[2]).dim < b.sub[2].dim
    res = isomorphism(a, b, trials=32, seed=0)
    assert res.verdict == "inconclusive"


def test_permutation_orbits_reject_parametric_and_named():
    with pytest.raises(ValueError):
        permutation_orbits("0")
    with pytest.raises(ValueError):
        permutation_orbits("N")


def test_orbits_cover_all_permutations():
    for family in ("I", "II", "III", "IV*", "V*"):
        orbits = permutation_orbits(family)
        flat = [p for orbit in orbits for p in orbit]
        assert sorted(flat) == sorted(itertools.permutations(range(4)))


def test_named_jordan_is_raw_family_in_disguise():
    for n in (1, 2):
        res = isomorphism(build(FamilyTag("J2", n)), build(tag_for("I", n)))
        assert res.verdict == "isomorphic"


@pytest.mark.parametrize("n", [1, 2])
def test_typeI_intra_orbit_isomorphism(n):
    orbits = permutation_orbits("I")
    for orbit in orbits:
        rep = build(FamilyTag("I", n, permutation=orbit[0]))
        for p in orbit[1:]:
            assert isomorphism(rep, build(FamilyTag("I", n, permutation=p)),
                                     trials=32, seed=0).verdict == "isomorphic"


def test_typeI_swap_13_certificate_exists():
    # swapping slots 0 and 2 of the raw family gives an isomorphic module
    a = build(FamilyTag("I", 2))
    b = build(FamilyTag("I", 2, permutation=(2, 1, 0, 3)))
    assert isomorphism(a, b, trials=32, seed=0).verdict == "isomorphic"
