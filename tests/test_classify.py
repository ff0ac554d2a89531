import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sblq.classify import (
    FACT_TABLE, HOLDER_LINE, StatusTag, Verdict, case_detect, classify, status_lookup,
)
from sblq.core import (
    SBLDatum, apply_equivalence, direct_sum_all, module_to_datum, random_equivalence,
    validate_datum,
)
from sblq.decompose import canonical_multiset, decompose, expand_tags, necessary_conditions
from sblq.fixtures import (
    SHIPPED_FIXTURES, bht, fixture_datum, shipped_fixture, triangular_hilbert,
)
from sblq.linalg import Matrix
from sblq.polynomials import Poly
from sblq.randomized import random_case
from sblq.tables import FamilyTag, build

from test_decompose import (
    LATTICE_FAILURE, SCREENED_BAGS, SECOND_ROUND_SUM, scrambled_datum, screen_data,
)


def mk(family, n=0, lam=None):
    if family in ("N", "0"):
        return FamilyTag(family, n, regular_poly=Poly.from_roots([lam] * n))
    return FamilyTag(family, n)


def test_case_detect_examples():
    assert [c.tag for c in case_detect([mk("N", 1, 3)])] == ["iv"]
    assert [c.tag for c in case_detect([mk("Y"), mk("Z")])] == ["ii"]
    assert [c.tag for c in case_detect([mk("L"), mk("B")])] == ["iii"]


def test_case_detect_overlap():
    tags = [mk("P1"), mk("K1")]
    cases = {c.tag for c in case_detect(tags)}
    assert {"i", "iii"} <= cases


def test_case_detect_respects_equality_constraint():
    # q1 + q2 + q3 = 1 is incompatible with the Young plane
    cases = case_detect([mk("Y")], equality_constraint=(1, 1, 1, 1))
    assert all(c.tag != "ii" for c in cases)


def test_status_lookup_base_facts():
    assert status_lookup([mk("N", 1, 3)]).render() == "Bounded(lacey-thiele)"
    s = status_lookup([mk("J1", 1), mk("J2", 1)])
    assert s.render() == "Bounded(kovac-twisted)"
    assert status_lookup([mk("T", 1)]).kind == "OpenContainsT"
    assert status_lookup([mk("C", 1)]).citation == "coifman-meyer"
    assert status_lookup([mk("C", 1), mk("C", 1)]).citation == "coifman-meyer"
    assert status_lookup([mk("C", 2)]).citation == "thm-type-03"
    assert status_lookup([mk("N", 2, 5), mk("C", 3)]).citation == "thm-type-03"
    assert status_lookup([mk("J2", 2)]).citation == "demeter-thiele"
    assert status_lookup([mk("N", 1, 3), mk("J3", 1)]).citation == "demeter-thiele"
    assert status_lookup([mk("C", 1), mk("J2", 1)]).citation == "demeter-thiele"
    four = [mk("J1", 1), mk("J2", 1), mk("J3", 1), mk("C", 1)]
    assert status_lookup(four).citation == "thm-3-twisted"
    assert status_lookup(four * 2).citation == "thm-3-twisted"


def test_status_lookup_closure_rules():
    # dropping the kernel-only summand keeps the direct citation
    s = status_lookup([mk("N", 1, 3), mk("C", 0)])
    assert s.kind == "Bounded" and s.citation == "lacey-thiele"
    # sub-multiset of a bounded multiset: conditional
    s = status_lookup([mk("J1", 1)])
    assert s.kind == "BoundedConditional" and s.citation == "demeter-thiele"
    # two twisted summands plus the staircase: inside the three-twisted block
    s = status_lookup([mk("C", 1), mk("J1", 1), mk("J2", 1)])
    assert s.kind == "BoundedConditional" and s.citation == "thm-3-twisted"
    # lowering a Jordan size from a known fact
    s = status_lookup([mk("N", 1, 3), mk("J2", 1), mk("C", 0)])
    assert s.kind == "Bounded" and s.citation == "demeter-thiele"


def test_status_lookup_open_cases():
    assert status_lookup([mk("J1", 3)]).kind == "Open"
    assert status_lookup([mk("N", 1, 3), mk("J1", 1), mk("J2", 1)]).kind == "Open"
    assert status_lookup([mk("N", 1, 3), mk("T", 2)]).kind == "OpenContainsT"
    # a trivial slice summand mixed with real content has no closure rule
    assert status_lookup([mk("T", 0), mk("N", 1, 3)]).kind == "Open"


def test_status_lookup_trivial_multisets():
    assert status_lookup([mk("C", 0)]).citation == "holder"
    assert status_lookup([mk("T", 0), mk("T", 0)]).citation == "holder"


def test_closure_is_exhaustive_on_fact_table():
    # every multiset derivable from a fact instance resolves to a bounded status
    instances = [
        [mk("C", 1)] * 3,
        [mk("N", 1, 3)],
        [mk("J2", 2)],
        [mk("N", 1, 3), mk("J3", 1)],
        [mk("C", 1), mk("J1", 1)],
        [mk("J2", 1), mk("J3", 1)],
        [mk("J1", 1), mk("J2", 1), mk("J3", 1), mk("C", 1)] * 2,
        [mk("N", 2, 5), mk("C", 1), mk("C", 2)],
    ]
    for inst in instances:
        items = list(inst)
        for r in range(len(items) + 1):
            for keep in itertools.combinations(range(len(items)), r):
                subset = [items[k] for k in keep]
                kind = status_lookup(subset).kind
                assert kind in ("Bounded", "BoundedConditional"), (subset, kind)


def test_classify_fixture_verdicts():
    v = classify(triangular_hilbert())
    assert [c.tag for c in v.cases] == ["iv"]
    assert v.status.kind == "OpenContainsT"
    v = classify(fixture_datum("loomis_whitney"))
    assert [c.tag for c in v.cases] == ["iii"]
    assert v.status.render() == "Bounded(thm-i-ii-iii)"


# ker Pi_0 = 0, so no Pi_i maps it onto H_i
BIJECTIVE_KERNEL = SBLDatum(2, (2, 1, 1, 1),
                            (Matrix.identity(2), Matrix(1, 2, [1, 0]),
                             Matrix(1, 2, [0, 1]), Matrix(1, 2, [1, 1])))


def test_classify_not_p_bounded_witness():
    v = classify(BIJECTIVE_KERNEL)
    assert v.status.kind == "NotPBounded"
    assert "Pi_1" in v.status.witness
    assert v.cases == []


def test_classify_lattice_inequality_witness():
    # surjective, passes the image condition, fails the lattice inequalities
    d = SBLDatum(5, (1, 1, 1, 1), (
        Matrix(1, 5, [0, -1, 2, -1, 2]), Matrix(1, 5, [2, 0, 0, 0, 0]),
        Matrix(1, 5, [0, 2, -1, -1, 2]), Matrix(1, 5, [2, 2, 0, 0, 0])))
    v = classify(d)
    assert v.status.render() == "NotPBounded(dim ker Pi_0 = 4 > 3)"
    assert len(v.witnesses) == 8
    assert v.witnesses[-1] == ("dim (ker Pi_0 ∩ ker Pi_1) ∩ ((ker Pi_0 ∩ ker Pi_2) "
                               "∩ (ker Pi_0 ∩ ker Pi_3)) = 1 > 0")
    assert v.cases == [] and v.summands == []


def test_classify_case_mismatch_is_not_p_bounded():
    # Y plus a kernel-only summand fits no case shape exactly
    from sblq.core import direct_sum
    d = module_to_datum(direct_sum(build(FamilyTag("Y")), build(FamilyTag("C", 0))))
    v = classify(d)
    assert v.status.kind == "NotPBounded"
    assert v.cases == []


def test_classify_starred_family_fails_necessity():
    # the starred families violate the image condition outright
    d = module_to_datum(build(FamilyTag("V*", 1)))
    v = classify(d)
    assert v.status.kind == "NotPBounded"
    assert v.cases == []


def test_classify_unclassified_input():
    # IV_1 passes the (incomplete) necessity screen but is outside the
    # certified taxonomy, so it exits unclassified
    d = module_to_datum(build(FamilyTag("IV", 1)))
    v = classify(d)
    assert v.status.kind == "Unclassified"
    assert v.cases == []


def test_classify_invalid_input_raises():
    bad = SBLDatum(2, (1, 1, 1, 1),
                   (Matrix(1, 2, [0, 1]), Matrix(1, 2, [0, 0]),
                    Matrix(1, 2, [1, 1]), Matrix(1, 2, [1, 2])))
    with pytest.raises(ValueError):
        classify(bad)


def test_classify_equivalence_invariance():
    for name in ("bht", "twisted_paraproduct", "young", "triangular_hilbert"):
        d = fixture_datum(name)
        v = classify(d)
        for seed in (11, 12, 13):
            d2 = apply_equivalence(d, random_equivalence(d, seed))
            v2 = classify(d2)
            assert [c.tag for c in v2.cases] == [c.tag for c in v.cases]
            assert v2.status.render() == v.status.render()
            assert canonical_multiset(expand_tags(v2.summands)) == \
                canonical_multiset(expand_tags(v.summands))


def test_classify_scrambled_regular_bag():
    # twelve alternating N_1 and N_2 summands (dim 36) at seeded parameters,
    # scrambled: the regular remainder of the pencil has 18 rows
    rng = random.Random(12)
    tags = []
    while len(tags) < 12:
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if lam not in (0, 1):
            tags.append(mk("N", 1 + len(tags) % 2, lam))
    order = tags[:]
    rng.shuffle(order)
    d = module_to_datum(direct_sum_all([build(t) for t in order]))
    d = apply_equivalence(d, random_equivalence(d, 12))
    assert d.dim_H == 36
    v = classify(d)
    assert v.decomposition.classified
    assert canonical_multiset(expand_tags(v.summands)) == canonical_multiset(tags)


def test_classify_scrambled_repeated_regular_bag():
    # seven N_1 at 2 and seven N_2 at 3 (dim 42), scrambled: the regular
    # remainder has seven equal invariant factors (t - 2)(t - 3)^2
    tags = [mk("N", 1, 2), mk("N", 2, 3)] * 7
    order = tags[:]
    random.Random(7).shuffle(order)
    d = module_to_datum(direct_sum_all([build(t) for t in order]))
    d = apply_equivalence(d, random_equivalence(d, 7))
    assert d.dim_H == 42
    v = classify(d)
    assert v.decomposition.classified
    assert canonical_multiset(expand_tags(v.summands)) == canonical_multiset(tags)


def test_exponent_consistency_of_verdict_cases():
    from sblq.decompose import _case_feasible
    for name in ("bht", "young", "loomis_whitney", "bilinear_holder_pk"):
        d = fixture_datum(name)
        v = classify(d)
        eqc = necessary_conditions(d).equality_constraint
        for c in v.cases:
            assert _case_feasible(c.tag, eqc)


def test_every_bounded_status_has_unique_citation():
    keys = [f.key for f in FACT_TABLE]
    assert len(keys) == len(set(keys))


# -- the screen-first order, kept as an oracle for the order classify runs


def screen_first_classify(d):
    """`classify` with the full necessity screen before the decomposition
    and the screen's own equality constraint for the cases; returns the
    verdict and the screen's report."""
    nec = necessary_conditions(d)
    failures = nec.hard_failures()
    if failures:
        return Verdict([], [], StatusTag("NotPBounded", witness=failures[0]),
                       witnesses=failures), nec
    dec = decompose(d)
    if not dec.classified:
        status = StatusTag("Unclassified", witness="; ".join(dec.diagnostics[-2:]))
        return Verdict([], dec.summands, status, decomposition=dec), nec
    assert dec.equality_constraint == nec.equality_constraint
    tags = expand_tags(dec.summands)
    cases = case_detect(tags, nec.equality_constraint)
    non_holder = [c for c in cases if c.tag in ("i", "ii", "iii")]
    if not cases:
        status = StatusTag("NotPBounded",
                           witness="certified summand multiset fits no admissible case shape")
    elif not tags:
        status = StatusTag("Bounded", "holder", HOLDER_LINE)
    elif non_holder:
        status = StatusTag("Bounded", "thm-i-ii-iii",
                           "; ".join(c.constraint for c in non_holder))
    else:
        status = status_lookup(tags)
    return Verdict(cases, dec.summands, status, decomposition=dec), nec


def assert_matches_screen_first(d):
    got = classify(d)
    want, nec = screen_first_classify(d)
    assert got.status == want.status
    assert got.witnesses == want.witnesses
    assert got.cases == want.cases
    assert got.summands == want.summands
    assert (got.decomposition is None) == (want.decomposition is None)
    if got.decomposition is not None:
        assert got.decomposition.equality_constraint == nec.equality_constraint
        assert got.decomposition.necessity == nec
    return got


# one extra summand or none: V* fails the image condition, IV passes the
# screen outside the taxonomy, Y mixes cases, and C0 can leave a bag that
# fits no case shape
FOREIGN = [None, FamilyTag("V*", 1), FamilyTag("IV", 1), FamilyTag("Y"), FamilyTag("C", 0)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 2 ** 31), st.sampled_from(FOREIGN))
def test_classify_matches_screen_first_on_scrambled_bags(case_seed, seed, extra):
    tags = random_case(case_seed, max_total=10)[0] + ([extra] if extra else [])
    assert_matches_screen_first(scrambled_datum(tags, seed))


@settings(max_examples=80, deadline=None)
@given(screen_data())
def test_classify_matches_screen_first_on_random_data(d):
    assume(validate_datum(d).valid)
    assert_matches_screen_first(d)


def test_classify_matches_screen_first_on_fixed_data():
    data = [shipped_fixture(name) for name in SHIPPED_FIXTURES]
    data += [LATTICE_FAILURE, SECOND_ROUND_SUM, BIJECTIVE_KERNEL,
             module_to_datum(build(FamilyTag("V*", 1)))]
    data += [scrambled_datum(tags, seed) for tags in SCREENED_BAGS for seed in (1, 2)]
    data += [apply_equivalence(LATTICE_FAILURE, random_equivalence(LATTICE_FAILURE, 3))]
    kinds = Counter(assert_matches_screen_first(d).status.kind for d in data)
    assert kinds["NotPBounded"] >= 4 and kinds["Bounded"] >= 10


def slot_permuted(d, sigma):
    # slot j of the result is slot sigma[j - 1] + 1 of d, for j = 1, 2, 3
    order = (0,) + tuple(1 + i for i in sigma)
    return SBLDatum(d.dim_H, tuple(d.dims[k] for k in order), tuple(d.pi[k] for k in order))


def _family_sizes(verdict):
    # the summands' families with superscripts dropped, and their sizes
    return Counter((s.tag.family.rstrip("123"), s.tag.n)
                   for s in verdict.summands for _ in range(s.multiplicity))


def _slotted(verdict, slot):
    # the J, P and K summands with superscript i read as slot(i)
    return Counter((s.tag.family[0], slot(int(s.tag.family[1])), s.tag.n)
                   for s in verdict.summands if s.tag.family[:1] in ("J", "P", "K")
                   for _ in range(s.multiplicity))


def _regular_parameters(verdict):
    # lambda of each regular summand of degree 1, whose polynomial is t - lambda
    return [-s.tag.regular_poly.coeffs[0] for s in verdict.summands
            if s.tag.regular_poly is not None and s.tag.n == 1
            for _ in range(s.multiplicity)]


# where lambda of a single N_1 goes under each slot permutation: the
# anharmonic group, with swaps of slots 2 and 3, 1 and 2, and 1 and 3 first
ANHARMONIC = {
    (0, 1, 2): lambda x: x,
    (0, 2, 1): lambda x: 1 / x,
    (1, 0, 2): lambda x: 1 - x,
    (2, 1, 0): lambda x: x / (x - 1),
    (1, 2, 0): lambda x: 1 / (1 - x),
    (2, 0, 1): lambda x: (x - 1) / x,
}


@pytest.mark.parametrize("name, datum",
                         [(name, shipped_fixture(name)) for name in SHIPPED_FIXTURES]
                         + [(f"random_case({k})", random_case(k)[1]) for k in range(30)])
def test_verdicts_commute_with_the_slot_permutations(name, datum):
    # permuting f_1, f_2, f_3 asks the same question: the status, citation,
    # case tags and the families and sizes of the summands stay, a J^(i),
    # P^(i) or K^(i) follows slot i to where the permutation puts it, and
    # the lambda of a datum's one regular summand, when it has degree 1,
    # moves by the anharmonic group (bht, n1_j1 and random_case(10))
    v = classify(datum)
    regular = [s for s in v.summands if s.tag.regular_poly is not None]
    lam = _regular_parameters(v) if len(regular) == 1 and regular[0].multiplicity == 1 else []
    for sigma in itertools.permutations(range(3)):
        w = classify(slot_permuted(datum, sigma))
        assert (w.status.kind, w.status.citation) == (v.status.kind, v.status.citation), sigma
        assert [c.tag for c in w.cases] == [c.tag for c in v.cases], sigma
        assert _family_sizes(w) == _family_sizes(v), sigma
        assert _slotted(w, lambda i: i) == _slotted(v, lambda i: 1 + sigma.index(i - 1)), sigma
        if lam:
            assert _regular_parameters(w) == [ANHARMONIC[sigma](lam[0])], sigma
