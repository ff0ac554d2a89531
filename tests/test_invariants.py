"""Cross-module invariants promised by the library contracts."""

import itertools
import random

import pytest

from sblq.core import datum_to_module, direct_sum, module_to_datum, validate_datum
from sblq.polynomials import Poly
from sblq.tables import (
    ALL_FAMILIES, FIXED_FAMILIES, RAW_FAMILIES, FamilyTag, build, dim_vector,
    permutation_orbits,
)

from iso_oracle import isomorphism
from spans import same_span


def tag_for(family, n=1):
    if family in ("0", "N"):
        return FamilyTag(family, n, regular_poly=Poly.from_roots([3] * n))
    return FamilyTag(family, n if family not in FIXED_FAMILIES else 0)


def test_direct_sum_is_associative():
    a, b, c = build(tag_for("N")), build(FamilyTag("Y")), build(FamilyTag("C", 1))
    left = direct_sum(direct_sum(a, b), c)
    right = direct_sum(a, direct_sum(b, c))
    assert left.dim_M == right.dim_M
    assert all(left.sub[i].basis == right.sub[i].basis for i in range(4))


def test_direct_sum_with_zero_module_is_identity():
    from sblq.core import FourModule
    from sblq.linalg import Subspace
    zero = FourModule(0, tuple(Subspace.zero(0) for _ in range(4)))
    m = build(FamilyTag("T", 1))
    s = direct_sum(m, zero)
    assert s.dim_M == m.dim_M
    assert all(s.sub[i].basis == m.sub[i].basis for i in range(4))


def test_every_constructor_datum_validates():
    for family in ALL_FAMILIES:
        tag = tag_for(family, 1)
        d = module_to_datum(build(tag))
        rep = validate_datum(d)
        assert rep.valid, tag
        zero_slots = [i for i in (1, 2, 3) if d.dims[i] == 0]
        assert len(rep.warnings) == len(zero_slots)


@pytest.mark.parametrize("family", [f for f in RAW_FAMILIES if f != "0"])
def test_orbit_classes_certify_and_separate(family):
    """Sampled orbit audit: one intra-class pair certifies per class; class
    representatives with equal dimension vectors stay certificate-distinct."""
    rng = random.Random(hash(family) & 0xFFFF)
    orbits = permutation_orbits(family)
    n = 1
    reps = []
    for orbit in orbits:
        rep_tag = FamilyTag(family, n, permutation=orbit[0])
        reps.append((orbit[0], build(rep_tag)))
        if len(orbit) > 1:
            other = rng.choice(orbit[1:])
            res = isomorphism(
                build(rep_tag), build(FamilyTag(family, n, permutation=other)),
                trials=32, seed=0)
            assert res.verdict == "isomorphic", (family, orbit[0], other)
    for (pa, ma), (pb, mb) in itertools.combinations(reps, 2):
        res = isomorphism(ma, mb, trials=16, seed=0)
        if ma.dim_vector == mb.dim_vector:
            assert res.verdict == "inconclusive", (family, pa, pb)
        else:
            assert res.verdict == "not-isomorphic", (family, pa, pb)


def test_named_families_are_raw_columns_in_disguise():
    # the staircase and triangular families in printed order are the raw
    # block-column order of their classification rows
    def bases(module):
        return [s.basis for s in module.sub]

    for n in (0, 1, 2):
        assert bases(build(FamilyTag("C", n))) == \
            bases(build(FamilyTag("III", n, permutation=(3, 0, 1, 2))))
        assert bases(build(FamilyTag("T", n))) == \
            bases(build(FamilyTag("III*", n, permutation=(3, 0, 1, 2))))
    for n in (1, 2):
        assert bases(build(FamilyTag("J2", n))) == bases(build(FamilyTag("I", n)))


def test_constructor_round_trip_span_equality():
    rng = random.Random(9)
    families = ["N", "J1", "C", "T", "Y", "L", "K2"]
    for family in families:
        tag = tag_for(family, rng.randint(1, 2) if family in ("N", "J1", "C", "T") else 1)
        m = build(tag)
        back = datum_to_module(module_to_datum(m))
        assert all(same_span(back.sub[i], m.sub[i]) for i in range(4))


def test_shipped_fixture_files_match_builders():
    from sblq.fixtures import SHIPPED_FIXTURES, build_shipped, shipped_fixture
    for name in SHIPPED_FIXTURES:
        assert shipped_fixture(name) == build_shipped(name), name
