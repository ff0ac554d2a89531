import itertools
import json
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sblq.core as core_module
import sblq.linalg as linalg_module

from sblq.core import (
    DatumFormatError, DimVector, EquivalenceMap, FourModule, SBLDatum,
    apply_equivalence, certificate_valid, datum_from_dict, datum_to_dict,
    datum_to_module, direct_sum, direct_sum_all, hom_solver, module_hom_basis,
    module_to_datum, random_equivalence, validate_datum,
)
from sblq.decompose import _fixed_table
from sblq.fixtures import SHIPPED_FIXTURES, shipped_fixture
from sblq.linalg import (
    Matrix, Subspace, _echelon_key, _int_cols, _int_kernel, block_diag, is_invertible,
    solve_right,
)
from sblq.polynomials import Poly
from sblq.tables import FIXED_FAMILIES, FamilyTag, build

from iso_oracle import isomorphism
from spans import same_span


def bht_datum(alpha=Fraction(1, 3)):
    return SBLDatum(
        dim_H=2, dims=(1, 1, 1, 1),
        pi=(Matrix(1, 2, [0, 1]), Matrix(1, 2, [1, 0]),
            Matrix(1, 2, [1, 1]), Matrix(1, 2, [1, alpha])))


def test_validate_examples():
    assert validate_datum(bht_datum()).valid
    bad = SBLDatum(2, (1, 1, 1, 1),
                   (Matrix(1, 2, [0, 1]), Matrix(1, 2, [1, 0]),
                    Matrix(1, 2, [0, 0]), Matrix(1, 2, [1, 1])))
    rep = validate_datum(bad)
    assert not rep.valid and rep.failures() == [2]
    degenerate = SBLDatum(1, (1, 1, 1, 0),
                          (Matrix(1, 1, [1]), Matrix(1, 1, [1]),
                           Matrix(1, 1, [1]), Matrix(0, 1, [])))
    rep = validate_datum(degenerate)
    assert rep.valid and any("H_3" in w for w in rep.warnings)


def test_shape_mismatch_is_hard_error():
    with pytest.raises(DatumFormatError):
        SBLDatum(2, (1, 1, 1, 1),
                 (Matrix(1, 2, [0, 1]), Matrix(2, 2, [1, 0, 0, 1]),
                  Matrix(1, 2, [1, 1]), Matrix(1, 2, [1, 2])))


def test_bht_module_spans():
    m = datum_to_module(bht_datum(Fraction(1, 3)))
    assert m.dim_vector == DimVector(2, 1, 1, 1, 1)
    assert same_span(m.sub[0], Subspace(2, Matrix.column([0, 1])))
    assert same_span(m.sub[1], Subspace(2, Matrix.column([1, 0])))
    assert same_span(m.sub[2], Subspace(2, Matrix.column([1, 1])))
    assert same_span(m.sub[3], Subspace(2, Matrix.column([1, Fraction(1, 3)])))
    # and this is the 2-dimensional regular module with parameter 1/3
    n1 = build(FamilyTag("N", 1, regular_poly=Poly([-Fraction(1, 3), 1])))
    assert isomorphism(m, n1)


def test_identity_datum_module():
    d = SBLDatum(2, (2, 0, 0, 0),
                 (Matrix.identity(2), Matrix.zeros(0, 2),
                  Matrix.zeros(0, 2), Matrix.zeros(0, 2)))
    m = datum_to_module(d)
    assert m.sub[0].dim == 2 and all(m.sub[i].dim == 0 for i in (1, 2, 3))


def test_direct_sum_datum_blockwise():
    a = datum_to_module(bht_datum())
    b = build(FamilyTag("C", 1))
    s = direct_sum(a, b)
    assert s.dim_vector == DimVector(*(x + y for x, y in zip(a.dim_vector, b.dim_vector)))
    for i in range(4):
        assert s.sub[i].basis == block_diag(a.sub[i].basis, b.sub[i].basis)


def reference_direct_sum_all(mods):
    """The pairwise fold `direct_sum_all` replaced."""
    out = FourModule(0, tuple(Subspace.zero(0) for _ in range(4)))
    for m in mods:
        out = direct_sum(out, m)
    return out


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([FamilyTag(f) for f in FIXED_FAMILIES]
                                + [FamilyTag("C", 0), FamilyTag("T", 2), FamilyTag("J1", 1)]),
                max_size=5), st.integers(0, 2 ** 16))
def test_direct_sum_all_matches_pairwise_fold(tags, seed):
    # zero summands included; every other draw scrambles the summands
    mods = [build(t) for t in tags]
    if seed % 2 and mods:
        mods = [scrambled_module(m, seed + k) for k, m in enumerate(mods)]
    got, want = direct_sum_all(mods), reference_direct_sum_all(mods)
    assert got.dim_M == want.dim_M == sum(m.dim_M for m in mods)
    assert [s.basis for s in got.sub] == [s.basis for s in want.sub]
    assert all(s.ambient_dim == got.dim_M for s in got.sub)


def test_module_datum_round_trip():
    for tag in (FamilyTag("T", 1), FamilyTag("Y"), FamilyTag("K2")):
        m = build(tag)
        back = datum_to_module(module_to_datum(m))
        assert back.dim_M == m.dim_M
        assert all(same_span(back.sub[i], m.sub[i]) for i in range(4))


def test_module_to_datum_transposes_block_columns():
    m = build(FamilyTag("N", 1, regular_poly=Poly([-2, 1])))
    d = module_to_datum(m)
    for i in range(4):
        assert d.pi[i] == m.sub[i].basis.transpose()


def test_apply_equivalence_identity_and_scaling():
    d = bht_datum()
    ident = EquivalenceMap(Matrix.identity(2), tuple(Matrix.identity(1) for _ in range(4)))
    assert apply_equivalence(d, ident) == d
    scale = EquivalenceMap(Matrix.identity(2).scale(2), tuple(Matrix.identity(1) for _ in range(4)))
    d2 = apply_equivalence(d, scale)
    m, m2 = datum_to_module(d), datum_to_module(d2)
    assert all(same_span(m.sub[i], m2.sub[i]) for i in range(4))


def test_apply_equivalence_rejects_singular():
    with pytest.raises(ValueError):
        EquivalenceMap(Matrix.zeros(2, 2), tuple(Matrix.identity(1) for _ in range(4)))


def test_random_equivalence_yields_certificate():
    d = module_to_datum(direct_sum(build(FamilyTag("J1", 1)), build(FamilyTag("J2", 1))))
    for seed in (0, 1, 2):
        e = random_equivalence(d, seed)
        d2 = apply_equivalence(d, e)
        res = isomorphism(datum_to_module(d), datum_to_module(d2), trials=32, seed=0)
        assert res.verdict == "isomorphic"
        assert certificate_valid(res.certificate, datum_to_module(d), datum_to_module(d2))


def _fraction_unimodular(n, rng, spread=2):
    # the former construction: Fraction rows through Matrix.from_rows
    if n == 0:
        return Matrix.zeros(0, 0)
    lo = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    up = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lo[i][j] = Fraction(rng.randint(-spread, spread))
            up[j][i] = Fraction(rng.randint(-spread, spread))
    return Matrix.from_rows(lo) @ Matrix.from_rows(up)


def _exact(m):
    return m.rows, m.cols, m.num, m.den


def test_unimodular_matches_fraction_reference():
    # same draws in the same order, same matrix, same rng state afterwards
    for n in range(25):
        for seed in range(4):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert _exact(core_module._unimodular(n, rng)) == \
                _exact(_fraction_unimodular(n, ref_rng))
            assert rng.getstate() == ref_rng.getstate()
    for name in SHIPPED_FIXTURES:
        d = shipped_fixture(name)
        for seed in range(3):
            e, rng = random_equivalence(d, seed), random.Random(seed)
            want = [_fraction_unimodular(n, rng) for n in (d.dim_H, *d.dims)]
            assert [_exact(m) for m in (e.phi, *e.phi_i)] == [_exact(m) for m in want]


def test_module_isomorphic_self_is_identity():
    m = build(FamilyTag("J2", 1))
    res = isomorphism(m, m)
    assert res and res.certificate == Matrix.identity(2)


def test_module_isomorphic_distinct_jordan_types():
    a = build(FamilyTag("J1", 1))
    b = build(FamilyTag("J2", 1))
    res = isomorphism(a, b, trials=32, seed=0)
    assert res.verdict == "inconclusive"  # equal dims, so only a failed search


def test_module_isomorphic_dim_mismatch_definite():
    res = isomorphism(build(FamilyTag("Y")), build(FamilyTag("Z")))
    assert res.verdict == "not-isomorphic"


# -- the integer certificate check against the span check it replaced ----------


def ref_certificate_valid(psi, a, b):
    """psi invertible, equal slot dimensions, and each psi B_i solved in the
    basis of sub_i(b) with Fraction products."""
    if psi.rows != b.dim_M or psi.cols != a.dim_M or a.dim_M != b.dim_M:
        return False
    if not is_invertible(psi):
        return False
    return all(a.sub[i].dim == b.sub[i].dim
               and solve_right(b.sub[i].basis, psi @ a.sub[i].basis) is not None
               for i in range(4))


_POOL = [FamilyTag(f) for f in ("Y", "Z", "L", "B", "P1", "K2")] + \
    [FamilyTag(f, 1) for f in ("J1", "J2", "T", "C")] + \
    [FamilyTag("N", 1, regular_poly=Poly([-Fraction(1, 3), 1]))]


@st.composite
def certificate_cases(draw):
    """(psi, a, b): b a direct sum of one or two pool modules and a the same
    module under a seeded equivalence.  psi is a seeded combination of
    Hom(a, b); or that combination projected onto b's first summand
    (singular, still a Hom element); or a random integer matrix; or a
    combination of Hom(a, b') for b' = b with two slots swapped, whose slot
    dimensions often differ from a's."""
    parts = [build(t) for t in draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=2))]
    b = direct_sum_all(parts)
    d = module_to_datum(b)
    a = datum_to_module(apply_equivalence(d, random_equivalence(d, draw(st.integers(0, 2 ** 16)))))
    kind = draw(st.sampled_from(("hom", "singular", "random", "swapped")))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    m = b.dim_M
    if kind == "random":
        return Matrix(m, m, [rng.randint(-2, 2) for _ in range(m * m)]), a, b
    if kind == "swapped":
        i, j = draw(st.sampled_from(list(itertools.combinations(range(4), 2))))
        subs = list(b.sub)
        subs[i], subs[j] = subs[j], subs[i]
        b = FourModule(m, tuple(subs))
    basis = module_hom_basis(a, b)
    coeffs = [rng.randint(-9, 9) for _ in basis]
    psi = Matrix(m, m, [sum(c * bk.data[idx] for c, bk in zip(coeffs, basis))
                        for idx in range(m * m)])
    if kind == "singular":
        k = parts[0].dim_M if len(parts) == 2 else 0
        psi = Matrix.diag([1] * k + [0] * (m - k)) @ psi
    return psi, a, b


@settings(max_examples=200, deadline=None)
@given(certificate_cases())
def test_certificate_valid_matches_span_check(case):
    psi, a, b = case
    assert certificate_valid(psi, a, b) == ref_certificate_valid(psi, a, b)


# -- the one-system Hom kernel that the two-stage solve replaced, as the oracle


def reference_module_hom_basis(a, b):
    """The kernel basis of N_i psi B_i = 0 as one system in the dim a * dim b
    row-major entries of psi."""
    m, mp = a.dim_M, b.dim_M
    if m == 0 or mp == 0:
        return [] if m or mp else [Matrix.zeros(0, 0)]
    rows = []
    for i in range(4):
        cols = _int_cols(a.sub[i].basis)
        for nrow in b._annihilators[i]:
            for bcol in cols:
                rows.append([x * y for x in nrow for y in bcol])
    k = _int_kernel(rows, mp * m).basis
    return [Matrix._ints(mp, m, k.num[j::k.cols], k.den) for j in range(k.cols)]


def reference_two_stage_hom_basis(a, b):
    """The two-stage solve that read its basis off a full-width `_echelon_key`:
    pinned columns of psi in a basis of their slot intersection, one kernel
    of the coupled rows, then the reduced form of the expanded vectors in
    the dim a * dim b row-major entries of psi, with reversed coordinates."""
    m, mp = a.dim_M, b.dim_M
    if m == 0 or mp == 0:
        return [] if m or mp else [Matrix.zeros(0, 0)]
    pinning = [[] for _ in range(m)]
    coupled = []
    for i in range(4):
        for x in _int_cols(a.sub[i].basis):
            support = [j for j, v in enumerate(x) if v]
            if len(support) == 1:
                pinning[support[0]].append(i)
            else:
                coupled.append((i, x))
    spans = {}
    for slots in map(tuple, pinning):
        if slots in spans:
            continue
        if not slots:
            spans[slots] = [[int(r == c) for r in range(mp)] for c in range(mp)]
        elif len(slots) == 1:
            spans[slots] = _int_cols(b.sub[slots[0]].basis)
        else:
            first, *rest = slots
            basis = _int_cols(b.sub[first].basis)
            rows = [[sum(map(mul, n, col)) for col in basis]
                    for i in rest for n in b._annihilators[i]]
            spans[slots] = [[sum(map(mul, t, row)) for row in zip(*basis)]
                            for t in _int_cols(_int_kernel(rows, len(basis)).basis)]
    p = [spans[tuple(slots)] for slots in pinning]
    start = [0, *accumulate(map(len, p))]
    unknowns = start[-1]
    if unknowns == 0:
        return []
    system = []
    for i, x in coupled:
        for n in b._annihilators[i]:
            row = [0] * unknowns
            for j, xj in enumerate(x):
                if xj:
                    row[start[j]:start[j + 1]] = [xj * sum(map(mul, n, col)) for col in p[j]]
            system.append(row)
    # psi entry (r, j) sits at reversed coordinate size - 1 - (r m + j)
    size = mp * m
    vecs = []
    for t in _int_cols(_int_kernel(system, unknowns).basis):
        vec = [0] * size
        for j, pj in enumerate(p):
            for c, col in zip(t[start[j]:start[j + 1]], pj):
                if c:
                    for r, v in enumerate(col):
                        if v:
                            vec[size - 1 - r * m - j] += c * v
        vecs.append(vec)
    return [Matrix._ints(mp, m, row[::-1], next(v for v in row if v))
            for row in reversed(_echelon_key(vecs))]


def scrambled_module(mod, seed):
    d = module_to_datum(mod)
    return datum_to_module(apply_equivalence(d, random_equivalence(d, seed)))


def assert_hom_bases_agree(a, b, got=None):
    got = module_hom_basis(a, b) if got is None else got
    assert got == reference_module_hom_basis(a, b) == reference_two_stage_hom_basis(a, b)


def pins_a_column(a):
    return any(sum(1 for v in x if v) == 1 for i in range(4) for x in _int_cols(a.sub[i].basis))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(FIXED_FAMILIES), min_size=1, max_size=3),
       st.booleans(), st.integers(0, 2 ** 20))
def test_module_hom_basis_matches_one_system(families, with_c0, seed):
    tags = [FamilyTag(f) for f in families] + [FamilyTag("C", 0)] * with_c0
    plain = direct_sum_all([build(t) for t in tags])
    target = scrambled_module(plain, seed)
    # every fixed family into the scrambled sum through one shared solver,
    # as the matcher asks, twice over so that the second pass reuses spans
    solve = hom_solver(target)
    for f in FIXED_FAMILIES * 2:
        a = build(FamilyTag(f))
        assert_hom_bases_agree(a, target, solve(a))
    # scrambled sources (no column pinned, everything coupled) and the plain sum
    other = scrambled_module(plain, seed + 1)
    for a, b in ((target, other), (other, target), (target, plain), (plain, target)):
        assert_hom_bases_agree(a, b)
    # zero-dimensional modules on either side, or both
    zero = direct_sum_all([])
    for a, b in ((zero, target), (target, zero), (zero, zero)):
        assert_hom_bases_agree(a, b)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3), st.integers(0, 2 ** 20))
def test_module_hom_basis_matches_one_system_on_mixed_sums(tags, seed):
    # unscrambled sums pin columns by one, several or no slots at once
    plain = direct_sum_all([build(t) for t in tags])
    target = scrambled_module(plain, seed)
    for a, b in ((plain, target), (target, plain), (plain, plain)):
        assert_hom_bases_agree(a, b)


def test_module_hom_basis_matches_one_system_on_fixed_table():
    mods = _fixed_table()[0]
    assert len(mods) == 11
    for a in mods.values():
        for b in mods.values():
            assert_hom_bases_agree(a, b)


def test_module_hom_basis_canonicalizes_in_target_coordinates():
    # the two-stage routine ran `_echelon_key` on rows of all dim a * dim b
    # entries of psi; no row handed to it now is longer than dim b
    plain = direct_sum_all([build(FamilyTag(f)) for f in ("Y", "Z", "P1", "K2")])
    target = scrambled_module(plain, 3)
    sources = [build(FamilyTag(f)) for f in FIXED_FAMILIES] + [scrambled_module(plain, 4)]
    assert not pins_a_column(sources[-1])
    widths = []

    def recording(rows):
        widths.extend(len(r) for r in rows)
        return _echelon_key(rows)

    with mock.patch.object(core_module, "_echelon_key", recording, create=True), \
            mock.patch.object(linalg_module, "_echelon_key", recording):
        got = [module_hom_basis(a, target) for a in sources]
    assert all(w <= target.dim_M for w in widths), max(widths)
    for a, basis in zip(sources, got):
        assert_hom_bases_agree(a, target, basis)


def test_serialization_round_trip():
    d = bht_datum(Fraction(2, 7))
    blob = json.dumps(datum_to_dict(d))
    d2 = datum_from_dict(json.loads(blob))
    assert d2 == d


def test_serialization_rejects_zero_denominator():
    data = datum_to_dict(bht_datum())
    data["pi"][2][0][1] = "1/0"
    with pytest.raises(DatumFormatError) as err:
        datum_from_dict(data)
    assert "pi[2][0][1]" in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("dim_H", -1), ("dim_H", 1.5), ("dim_H", True), ("dim_H", "2"),
    ("dims", [1, 1, -1, 1]), ("dims", [1, 1, 1.0, 1]), ("dims", [1, False, 1, 1]),
])
def test_serialization_rejects_dimensions_that_are_not_counts(field, value):
    # dimensions are read as JSON integers >= 0, never cast with int()
    data = datum_to_dict(bht_datum())
    data[field] = value
    with pytest.raises(DatumFormatError) as err:
        datum_from_dict(data)
    assert field in str(err.value)


def test_serialization_rejects_a_bool_entry():
    data = datum_to_dict(bht_datum())
    data["pi"][1][0][0] = True
    with pytest.raises(DatumFormatError) as err:
        datum_from_dict(data)
    assert "pi[1][0][0]" in str(err.value)


def test_triangular_hilbert_form_is_the_triangular_family():
    # the explicit two-variable form with a one-dimensional modulation slot
    from sblq.fixtures import triangular_hilbert
    m = datum_to_module(triangular_hilbert())
    res = isomorphism(m, build(FamilyTag("T", 1)), trials=32, seed=0)
    assert res.verdict == "isomorphic"


def test_staircase_form_is_the_staircase_family():
    from sblq.fixtures import coifman_meyer
    m = datum_to_module(coifman_meyer(1))
    res = isomorphism(m, build(FamilyTag("C", 1)), trials=32, seed=0)
    assert res.verdict == "isomorphic"


def test_jordan_superscript_marks_the_odd_slot_out():
    # at size one, the two subspaces NOT named by the superscript coincide
    pairs = {"J1": (2, 3), "J2": (1, 3), "J3": (1, 2)}
    for fam, (i, j) in pairs.items():
        m = build(FamilyTag(fam, 1))
        assert same_span(m.sub[i], m.sub[j]), fam
        others = [k for k in (1, 2, 3) if k not in (i, j)]
        assert not same_span(m.sub[others[0]], m.sub[i])
