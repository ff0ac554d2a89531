"""The benchmark's workloads: seeded inputs, the timed call of each op, its check.

An op is one `classify(datum)` call or one numeric check.  Every input is
built here from public constructors and the workload seed, outside the
timed region; the timed call receives only the generated input.  Each op
carries the check that decides whether its output is correct.

Why these three workloads:

- small-mix: the fixtures and many small random data, as a user classifying
  a batch sees them.  Per-call overhead dominates (about 170 `linalg` calls
  per datum and the doubled validate/necessity pass).  A small call of each
  numeric check closes the pass, so that the floating-point layers
  (`rotations`, `numcheck`) are traced too.
- holder-ladder: Hoelder-type direct sums at dims 9-20.  The pencil path
  (`kronecker_blocks` and its tall block-Toeplitz kernel solves) does most
  of the work; non-Hoelder matching never runs.
- nonholder-ladder: (Y+Z)^k (k <= 3) and case i/iii bags.  `module_hom_basis`
  (wide systems with m^2 unknowns) and the certificate search dominate; the
  pencil never runs.  It is kept apart from holder-ladder because `linalg`
  serves the two differently, and a change that helps one and costs the
  other would net out in a shared workload.

There is no numeric workload: its ops spend much of their time in numpy,
their speed does not follow the calibration stretch, and their measured
times spread by up to 0.3 (quartile spread over median) across ten runs on
a shared host, more than the largest bound the benchmark may set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

import numpy as np

from sblq import rotations
from sblq.classify import classify
from sblq.core import (
    apply_equivalence, direct_sum_all, module_to_datum, random_equivalence,
)
from sblq.decompose import canonical_multiset, expand_tags
from sblq.fixtures import SHIPPED_FIXTURES, shipped_fixture
from sblq.numcheck import (
    FormSpec, GaussianFunction, MultiplierBump, NarrowGaussian, QuadSpec,
    check_equivalence_invariance, eval_form, verify_mikhlin,
)
from sblq.polynomials import Poly
from sblq.randomized import random_case
from sblq.tables import FamilyTag, build

SMALL_MIX_CASES = 150

# Expected verdicts of the shipped fixtures: status kind, citation key and,
# for the non-Hoelder ones, the case that must be listed (the table of
# acceptance criterion 1).
EXPECTED_FIXTURES = {
    "bht": ("Bounded", "lacey-thiele", None),
    "coifman_meyer_1": ("Bounded", "coifman-meyer", None),
    "coifman_meyer_2": ("Bounded", "thm-type-03", None),
    "twisted_paraproduct": ("Bounded", "kovac-twisted", None),
    "j2": ("Bounded", "demeter-thiele", None),
    "n1_j1": ("Bounded", "demeter-thiele", None),
    "three_twisted": ("Bounded", "thm-3-twisted", None),
    "triangular_hilbert": ("OpenContainsT", None, None),
    "young": ("Bounded", "thm-i-ii-iii", "ii"),
    "loomis_whitney": ("Bounded", "thm-i-ii-iii", "iii"),
    "bilinear_holder_pk": ("Bounded", "thm-i-ii-iii", "i"),
}

# acceptance thresholds of the numeric checks
SUPERPOSITION_TOL = 1e-5
REPR_TOL = 1e-6
# two quadrature values agree when they differ by at most this many times
# their summed error estimates (the convention of check_equivalence_invariance)
AGREEMENT_FACTOR = 3.0


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]


# -- exact ops ---------------------------------------------------------------


def fixture_op(name: str, expected=None) -> Op:
    kind, citation, case = expected or EXPECTED_FIXTURES[name]
    datum = shipped_fixture(name)

    def check(verdict) -> bool:
        if (verdict.status.kind, verdict.status.citation) != (kind, citation):
            return False
        return case is None or case in [c.tag for c in verdict.cases]

    return Op(f"fixture:{name}", lambda: classify(datum), check)


def generated_op(name: str, tags: Sequence[FamilyTag], datum) -> Op:
    """classify(datum); correct when the summands are the generating tags."""
    want = canonical_multiset(tags)

    def check(verdict) -> bool:
        dec = verdict.decomposition
        return dec is not None and dec.classified and \
            canonical_multiset(expand_tags(dec.summands)) == want

    return Op(name, lambda: classify(datum), check)


def scrambled(tags: Sequence[FamilyTag], rng: random.Random):
    """The direct sum of `tags` in a seeded order, under a seeded equivalence."""
    order = list(tags)
    rng.shuffle(order)
    datum = module_to_datum(direct_sum_all([build(t) for t in order]))
    return apply_equivalence(datum, random_equivalence(datum, rng.randrange(2 ** 31)))


def _lam(rng: random.Random) -> Fraction:
    while True:
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if lam not in (0, 1):
            return lam


def _regular(rng: random.Random, degree: int) -> FamilyTag:
    """N_1 at a seeded parameter, or N_2 at a seeded double root."""
    return FamilyTag("N", degree, regular_poly=Poly.from_roots([_lam(rng)] * degree))


# Bag shapes: family letter and size, summing to the bag's dimension.  The
# seed picks every Jordan superscript, regular parameter and P/K superscript,
# the summand order and the scrambling equivalence; the shapes stay fixed so
# that the work of a pass varies little from seed to seed.
HOLDER_SHAPES = {
    10: ["N1", "J2", "C1", "C0"],
    12: ["N2", "J1", "T1", "C1"],
    14: ["N1", "J2", "J1", "C2", "C0"],
    16: ["N2", "J2", "T1", "C2"],
    18: ["N1", "N1", "J2", "J1", "T2", "C1"],
    20: ["N2", "J2", "J1", "T1", "C2", "C0", "C0"],
}
NONHOLDER_SHAPES = {
    ("i", 8): ["P", "K", "P", "K", "K"],
    ("iii", 10): ["L", "K", "P", "K", "C0"],
    ("i", 12): ["P", "K", "K", "P", "K", "K", "P", "P"],
    ("iii", 15): ["B", "L", "K", "P", "K", "C0"],
}


def holder_bag(rng: random.Random, shape: Sequence[str]) -> List[FamilyTag]:
    """N/J/C/T summands of the given shape with seeded parameters."""
    tags = []
    for item in shape:
        family, n = item[0], int(item[1:])
        if family == "N":
            tags.append(_regular(rng, n))
        elif family == "J":
            tags.append(FamilyTag(f"J{rng.randint(1, 3)}", n))
        else:
            tags.append(FamilyTag(family, n))
    return tags


def nonholder_bag(rng: random.Random, case: str, shape: Sequence[str]) -> List[FamilyTag]:
    """Case i (P/K with two superscripts) or case iii summands of the given shape."""
    sups = rng.sample("123", 2) if case == "i" else "123"
    tags = []
    for family in shape:
        if family in "PK":
            family += rng.choice(sups)
        tags.append(FamilyTag("C", 0) if family == "C0" else FamilyTag(family))
    return tags


def small_mix(seed: int) -> List[Op]:
    """The fixtures, the summand bags of random_case(0..149) re-scrambled,
    then one small call of each numeric check.

    The bags stay the same for every seed and the seed draws the scrambles:
    op times spread over two decades here, so 150 freshly drawn bags would
    move the median op time by a fifth from seed to seed.
    """
    ops = [fixture_op(name) for name in SHIPPED_FIXTURES]
    rng = random.Random(seed)
    for k in range(SMALL_MIX_CASES):
        tags, _ = random_case(k, max_total=12)
        ops.append(generated_op(f"random_case:{k}", tags, scrambled(tags, rng)))
    return ops + numeric_checks(rng)


def holder_rungs(rng: random.Random) -> Dict[str, List[FamilyTag]]:
    twisted = [FamilyTag("J1", 1), FamilyTag("J2", 1), FamilyTag("J3", 1),
               FamilyTag("C", 1)]
    rungs = {
        "three_twisted^1": twisted,
        "N1+J2_2+T1+C2": [_regular(rng, 1), FamilyTag("J2", 2),
                          FamilyTag("T", 1), FamilyTag("C", 2)],
        "three_twisted^2": twisted * 2,
    }
    for total, shape in HOLDER_SHAPES.items():
        rungs[f"holder_bag:{total}"] = holder_bag(rng, shape)
    return rungs


def nonholder_rungs(rng: random.Random) -> Dict[str, List[FamilyTag]]:
    # (Y+Z)^4 is left out: one call takes about 5 s, too long for the host
    # speed measured just before and after it to stand for the speed during it
    rungs = {f"(Y+Z)^{k}": [FamilyTag("Y"), FamilyTag("Z")] * k
             for k in (1, 2, 3)}
    for (case, total), shape in NONHOLDER_SHAPES.items():
        rungs[f"case_{case}_bag:{total}"] = nonholder_bag(rng, case, shape)
    return rungs


def ladder(seed: int, rungs_of, copies: int) -> List[Op]:
    """`copies` copies of every rung, each with its own seeded parameters and
    scramble.  The scramble alone moves a rung's time by up to a third; more
    copies make the work of a pass vary less from seed to seed."""
    rng = random.Random(seed)
    ops = []
    for copy in range(copies):
        for name, tags in rungs_of(rng).items():
            ops.append(generated_op(f"{name}#{copy}", tags, scrambled(tags, rng)))
    return ops


# -- numeric ops ---------------------------------------------------------------


def _radial_bump(lo: float, hi: float):
    def rho(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > lo) & (r < hi)
        out[inside] = (r[inside] - lo) ** 3 * (hi - r[inside]) ** 3
        return out
    return rho


def _gaussian_form(name: str, rng: random.Random) -> FormSpec:
    """A shipped fixture with seeded Gaussian test functions and kernel."""
    d = shipped_fixture(name)
    funcs = tuple(GaussianFunction.tensor(
        [Fraction(rng.randint(-2, 2), 8) for _ in range(d.dims[i])],
        [1] * d.dims[i]) for i in (1, 2, 3))
    return FormSpec(d, NarrowGaussian(d.dims[0], 0.8), funcs)


def _agrees(reference) -> Callable[[object], bool]:
    ref_value, ref_err = reference

    def check(result) -> bool:
        value, err = result
        return abs(value - ref_value) <= AGREEMENT_FACTOR * (err + ref_err)
    return check


def numeric_checks(rng: random.Random) -> List[Op]:
    """One small call of each public numeric check, with seeded inputs.

    Sizes are small so that these ops stay a few percent of a small-mix
    pass: their time follows the calibration stretch far less closely than
    the exact ops do (see run.py).
    """
    nrng = np.random.default_rng(rng.randrange(2 ** 32))

    mc_spec = _gaussian_form("young", rng)                   # dim 5
    mc_quad = QuadSpec("mc", samples=20_000, seed=rng.randrange(2 ** 31))
    mc_reference = eval_form(mc_spec, QuadSpec(
        "mc", samples=200_000, seed=rng.randrange(2 ** 31)))

    tensor_spec = _gaussian_form("twisted_paraproduct", rng)  # dim 4
    tensor_quad = QuadSpec("tensor", points=16)
    tensor_reference = eval_form(tensor_spec, QuadSpec(
        "mc", samples=200_000, seed=rng.randrange(2 ** 31)))

    equiv_spec = _gaussian_form("j2", rng)                    # dim 4
    equivalence = random_equivalence(equiv_spec.datum, rng.randrange(2 ** 31))
    equiv_quad = QuadSpec("tensor", points=8)

    spectrum = rotations.funk_spectrum(3, 4)
    grid8 = rotations.SphereGrid.build(8)
    omega4 = nrng.normal(size=rotations.basis_size(4))
    omega4[0] = 0.0
    tests = [nrng.normal(size=rotations.basis_size(4)) for _ in range(5)]

    def slice_repr():
        dec = rotations.neumann_solve(omega4, spectrum)
        return rotations.verify_repr(dec, omega4, tests, grid8)

    grid4 = rotations.SphereGrid.build(4)
    omega2 = nrng.normal(size=rotations.basis_size(2))
    omega2[0] = 0.0
    radial = rotations.RadialTensorFunction(
        ((_radial_bump(0.5, 2.0), nrng.normal(size=rotations.basis_size(2))),),
        (0.5, 2.0))

    def equivalence_ok(result) -> bool:
        residual, tol = result
        return residual <= tol

    return [
        Op("eval_form:young:mc:20000", lambda: eval_form(mc_spec, mc_quad),
           _agrees(mc_reference)),
        Op("check_equivalence_invariance:j2:tensor:8",
           lambda: check_equivalence_invariance(equiv_spec, equivalence, equiv_quad),
           equivalence_ok),
        Op("verify_repr:band4:grid8", slice_repr,
           lambda residuals: max(residuals) < REPR_TOL),
        Op("verify_mikhlin:multiplier_bump",
           lambda: verify_mikhlin(MultiplierBump(2, 0.5, 2.0, 0.1), max_order=2),
           lambda report: report.passed),
        Op("eval_form:twisted_paraproduct:tensor:16",
           lambda: eval_form(tensor_spec, tensor_quad), _agrees(tensor_reference)),
        Op("verify_superposition:band2:grid4",
           lambda: rotations.verify_superposition(omega2, radial, grid4,
                                                  radial_count=8, circle_count=8),
           lambda residual: residual < SUPERPOSITION_TOL),
    ]


WORKLOAD_OPS = {
    "small-mix": small_mix,
    "holder-ladder": lambda seed: ladder(seed, holder_rungs, copies=2),
    "nonholder-ladder": lambda seed: ladder(seed, nonholder_rungs, copies=4),
}


def build_ops(workload: str, seed: int) -> List[Op]:
    return WORKLOAD_OPS[workload](seed)
