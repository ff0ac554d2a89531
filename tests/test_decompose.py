import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import sblq
from sblq.core import (
    SBLDatum, apply_equivalence, datum_to_module, direct_sum, direct_sum_all,
    module_isomorphic, module_to_datum, random_equivalence,
)
from sblq.decompose import (
    canonical_multiset, decompose, expand_tags, holder_normal_form,
    kronecker_decompose, match_nonholder, necessary_conditions, pencil_datum,
    strip_c0,
)
from sblq.fixtures import (
    bht, coifman_meyer, fixture_datum, triangular_hilbert, twisted_paraproduct,
)
from sblq.linalg import Matrix
from sblq.polynomials import Poly
from sblq.tables import FamilyTag, build


def n_tag(lam, n=1):
    return FamilyTag("N", n, regular_poly=Poly.from_roots([lam] * n))


def test_necessary_conditions_bht():
    nec = necessary_conditions(bht())
    assert nec.passed
    assert nec.equality_constraint == (1, 1, 1, 1)  # q1 + q2 + q3 = 1


def test_necessary_conditions_young_module():
    nec = necessary_conditions(module_to_datum(build(FamilyTag("Y"))))
    assert nec.passed
    assert nec.equality_constraint == (1, 1, 1, 2)  # q1 + q2 + q3 = 2


def test_necessary_conditions_bijective_kernel_fails():
    d = SBLDatum(2, (2, 1, 1, 1),
                 (Matrix.identity(2), Matrix(1, 2, [1, 0]),
                  Matrix(1, 2, [0, 1]), Matrix(1, 2, [1, 1])))
    nec = necessary_conditions(d)
    assert not nec.passed
    assert any("Pi_1" in f for f in nec.hard_failures())


def test_holder_normal_form_bht():
    form = holder_normal_form(bht(Fraction(1, 3)))
    assert form is not None
    assert (form.a, form.b) == (1, 1)
    assert form.a2 == Matrix(1, 1, [1])
    # with the deterministic basis choice the parameter comes out on the nose
    assert form.a3 == Matrix(1, 1, [Fraction(1, 3)])
    # reconstruction is asserted at construction; double-check the datum shape
    nf = form.normal_form_datum()
    assert nf == apply_equivalence(bht(Fraction(1, 3)), form.base_change)


def test_holder_normal_form_twisted_pencil():
    form = holder_normal_form(twisted_paraproduct())
    assert form is not None and (form.a, form.b) == (2, 2)
    tags = [s.tag for s in kronecker_decompose(form)]
    assert sorted(t.family for t in tags) == ["J1", "J2"]
    assert all(t.n == 1 for t in tags)


PERTURBED_RECONSTRUCTION = textwrap.dedent("""
    import sys
    import sblq.decompose
    from sblq.core import SBLDatum
    from sblq.fixtures import twisted_paraproduct
    from sblq.linalg import Matrix

    if not sys.flags.optimize:
        sys.exit("not running under -O")
    mod = sys.modules["sblq.decompose"]
    real = mod.apply_equivalence

    def perturbed(d, e):
        out = real(d, e)
        bump = Matrix(out.pi[1].rows, out.pi[1].cols, [1] + [0] * (len(out.pi[1].data) - 1))
        return SBLDatum(out.dim_H, out.dims, (out.pi[0], out.pi[1] + bump) + out.pi[2:])

    mod.apply_equivalence = perturbed
    try:
        form = mod.holder_normal_form(twisted_paraproduct())
    except AssertionError as exc:
        print("raised:", exc)
    else:
        print("returned:", form)
""")


def test_holder_normal_form_check_survives_optimize():
    # `python -O` strips assert statements; the reconstruction check must stay
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sblq.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", PERTURBED_RECONSTRUCTION],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: pencil reconstruction failed")


def test_holder_normal_form_rejects_young():
    assert holder_normal_form(module_to_datum(build(FamilyTag("Y")))) is None


def test_kronecker_decompose_examples():
    cases = [
        ([Fraction(1)], [Fraction(1, 3)], [("N", 1)]),
        ([Fraction(1)], [Fraction(0)], [("J2", 1)]),
    ]
    for a2, a3, expected in cases:
        form = holder_normal_form(pencil_datum(1, 1, Matrix(1, 1, a2), Matrix(1, 1, a3)))
        tags = [(s.tag.family, s.tag.n) for s in kronecker_decompose(form)]
        assert tags == expected
    # 2x1 tall staircase block
    form = holder_normal_form(pencil_datum(
        2, 1, Matrix(2, 1, [0, 1]), Matrix(2, 1, [1, 0])))
    tags = [(s.tag.family, s.tag.n) for s in kronecker_decompose(form)]
    assert tags == [("C", 1)]


def test_kronecker_regular_summand_certified_against_constructor():
    form = holder_normal_form(pencil_datum(
        1, 1, Matrix(1, 1, [1]), Matrix(1, 1, [Fraction(1, 3)])))
    (summand,) = kronecker_decompose(form)
    rebuilt = build(summand.tag)
    original = datum_to_module(form.normal_form_datum())
    assert module_isomorphic(original, rebuilt).verdict == "isomorphic"


def test_strip_c0_examples():
    zero_mod, k = strip_c0(build(FamilyTag("C", 0)))
    assert k == 1 and zero_mod.dim_M == 0
    n1 = build(n_tag(Fraction(1, 2)))
    same, k = strip_c0(n1)
    assert k == 0 and same is n1
    mixed, k = strip_c0(direct_sum(build(FamilyTag("C", 0)), n1))
    assert k == 1
    assert module_isomorphic(mixed, n1).verdict == "isomorphic"


def test_match_nonholder_examples():
    yz = direct_sum(build(FamilyTag("Y")), build(FamilyTag("Z")))
    got = match_nonholder(yz, "ii")
    assert got is not None
    assert [(s.tag.family, s.multiplicity) for s in got[0]] == [("Y", 1), ("Z", 1)]

    got = match_nonholder(build(FamilyTag("L")), "iii")
    assert got is not None
    assert [(s.tag.family, s.multiplicity) for s in got[0]] == [("L", 1)]

    pk = direct_sum(build(FamilyTag("P1")), build(FamilyTag("K1")))
    got = match_nonholder(pk, "i")
    assert got is not None
    assert [(s.tag.family, s.multiplicity) for s in got[0]] == [("P1", 1), ("K1", 1)]


def test_decompose_named_forms():
    r = decompose(triangular_hilbert())
    assert [(s.tag.family, s.tag.n, s.multiplicity) for s in r.summands] == [("T", 1, 1)]
    r = decompose(coifman_meyer(1))
    assert [(s.tag.family, s.tag.n, s.multiplicity) for s in r.summands] == [("C", 1, 1)]
    r = decompose(fixture_datum("three_twisted"))
    assert sorted((s.tag.family, s.tag.n) for s in r.summands) == \
        [("C", 1), ("J1", 1), ("J2", 1), ("J3", 1)]


def test_decompose_stable_under_equivalence():
    for name in ("bht", "twisted_paraproduct", "young", "bilinear_holder_pk"):
        d = fixture_datum(name)
        base = canonical_multiset(expand_tags(decompose(d).summands))
        for seed in (3, 4):
            d2 = apply_equivalence(d, random_equivalence(d, seed))
            assert canonical_multiset(expand_tags(decompose(d2).summands)) == base


def test_decompose_strips_kernel_only_part():
    d = module_to_datum(direct_sum_all(
        [build(FamilyTag("C", 0)), build(FamilyTag("C", 0)), build(FamilyTag("Y"))]))
    r = decompose(d)
    assert r.classified
    counts = {(s.tag.family, s.tag.n): s.multiplicity for s in r.summands}
    assert counts == {("C", 0): 2, ("Y", 1 * 0): 1}


def test_decompose_unclassified_outside_taxonomy():
    d = module_to_datum(build(FamilyTag("IV*", 0)))
    r = decompose(d)
    assert not r.classified and r.summands == []


def test_invariant_factor_granularity():
    # two distinct one-dimensional regular parameters merge into one degree-2 factor
    d = module_to_datum(direct_sum(build(n_tag(2)), build(n_tag(3))))
    r = decompose(d)
    (s,) = r.summands
    assert s.tag.family == "N" and s.tag.n == 2
    assert s.tag.regular_poly == Poly.from_roots([2, 3])
    # the canonical comparison identifies both descriptions
    assert canonical_multiset([n_tag(2), n_tag(3)]) == \
        canonical_multiset(expand_tags(r.summands))


def test_pencil_block_sizes_sum():
    form = holder_normal_form(twisted_paraproduct())
    from sblq.pencil import kronecker_blocks
    blocks = kronecker_blocks(form.a2, form.a3)
    assert blocks.size_check()


def test_refine_real_attaches_intervals():
    d = module_to_datum(build(FamilyTag("N", 2, regular_poly=Poly([-2, 0, 1]))))
    r = decompose(d, refine_real=True)
    (key,) = r.real_root_refinements
    ivs = r.real_root_refinements[key]
    assert len(ivs) == 2   # +sqrt(2) and -sqrt(2)
