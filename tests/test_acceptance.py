"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, none is configurable.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from sblq import rotations
from sblq.classify import classify
from sblq.core import random_equivalence
from sblq.decompose import canonical_multiset, decompose, expand_tags
from sblq.fixtures import SHIPPED_FIXTURES, shipped_fixture
from sblq.numcheck import (
    FormSpec, GaussianFunction, NarrowGaussian, QuadSpec, TruncatedOdd,
    check_equivalence_invariance, extend_kernel, verify_mikhlin,
)
from sblq.randomized import random_case

from iso_oracle import isomorphism
from sblq.tables import (
    ALL_FAMILIES, FIXED_FAMILIES, FamilyTag, build, dim_vector,
    permutation_orbits,
)
from sblq.polynomials import Poly


def _line(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {mark}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# criterion 1 ------------------------------------------------------------------

EXPECTED_VERDICTS = {
    "bht": ("Bounded", "lacey-thiele"),
    "coifman_meyer_1": ("Bounded", "coifman-meyer"),
    "coifman_meyer_2": ("Bounded", "thm-type-03"),
    "twisted_paraproduct": ("Bounded", "kovac-twisted"),
    "j2": ("Bounded", "demeter-thiele"),
    "n1_j1": ("Bounded", "demeter-thiele"),
    "three_twisted": ("Bounded", "thm-3-twisted"),
    "triangular_hilbert": ("OpenContainsT", None),
    "young": ("Bounded", "thm-i-ii-iii"),
    "loomis_whitney": ("Bounded", "thm-i-ii-iii"),
    "bilinear_holder_pk": ("Bounded", "thm-i-ii-iii"),
}

EXPECTED_CASES = {
    "young": "ii",
    "loomis_whitney": "iii",
    "bilinear_holder_pk": "i",
}


def test_criterion_1_fixture_verdicts():
    started = time.perf_counter()
    problems = []
    for name in SHIPPED_FIXTURES:
        verdict = classify(shipped_fixture(name))
        kind, citation = EXPECTED_VERDICTS[name]
        got = (verdict.status.kind, verdict.status.citation)
        if got != (kind, citation):
            problems.append(f"{name}: {got} != {(kind, citation)}")
        want_case = EXPECTED_CASES.get(name)
        if want_case and want_case not in [c.tag for c in verdict.cases]:
            problems.append(f"{name}: case {want_case} missing")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _line("criterion 1 (fixture verdict suite)", not problems,
          "; ".join(problems) or f"{len(SHIPPED_FIXTURES)} fixtures in {elapsed:.2f}s")


# criterion 2 ------------------------------------------------------------------


def test_criterion_2_round_trip_decomposition():
    started = time.perf_counter()
    failures = []
    for seed in range(100):
        tags, datum = random_case(seed, max_total=12)
        result = decompose(datum)
        ok = result.classified and \
            canonical_multiset(expand_tags(result.summands)) == canonical_multiset(tags)
        if not ok:
            failures.append(seed)
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _line("criterion 2 (round-trip decomposition)", ok,
          f"failures={failures}, {elapsed:.1f}s")


# criterion 3 ------------------------------------------------------------------


def test_criterion_3_dimension_vector_audit():
    bad = []
    for family in ALL_FAMILIES:
        if family in FIXED_FAMILIES:
            ns = [0]
        elif family in ("0", "I", "N", "J1", "J2", "J3"):
            ns = range(1, 5)
        else:
            ns = range(0, 5)
        for n in ns:
            if family in ("0", "N"):
                tag = FamilyTag(family, n, regular_poly=Poly.from_roots([2] * n))
            else:
                tag = FamilyTag(family, n)
            if dim_vector(tag) != build(tag).dim_vector:
                bad.append(tag.render())
    _line("criterion 3 (dimension-vector audit)", not bad, "; ".join(bad))


# criterion 4 ------------------------------------------------------------------


def test_criterion_4_permutation_orbit_audit():
    problems = []
    orbits = permutation_orbits("I")
    if len(orbits) != 6:
        problems.append(f"{len(orbits)} classes != 6")
    for n in (1, 2):
        reps = []
        for orbit in orbits:
            rep = build(FamilyTag("I", n, permutation=orbit[0]))
            reps.append(rep)
            for p in orbit[1:]:
                other = build(FamilyTag("I", n, permutation=p))
                if isomorphism(rep, other, trials=32, seed=0).verdict != "isomorphic":
                    problems.append(f"n={n}: intra-class pair {orbit[0]} vs {p}")
        for a, b in itertools.combinations(range(6), 2):
            res = isomorphism(reps[a], reps[b], trials=32, seed=0)
            if res.verdict == "isomorphic":
                problems.append(f"n={n}: classes {a},{b} merged")
    _line("criterion 4 (permutation-orbit audit)", not problems, "; ".join(problems))


# criterion 5 ------------------------------------------------------------------


def test_criterion_5_funk_spectrum():
    problems = []
    for d in range(3, 9):
        lam2 = rotations.funk_eigenvalue(2, d)
        if abs(abs(lam2) - 1.0 / (d - 1)) > 1e-12:
            problems.append(f"|lambda_2| at d={d}")
        for n in range(1, 41, 2):
            if rotations.funk_eigenvalue(n, d) != 0.0:
                problems.append(f"odd eigenvalue n={n}, d={d}")
                break
        for n in range(0, 41, 2):
            ratio = rotations.funk_eigenvalue(n, d)  # raises beyond 1e-10
            closed = rotations._eigenvalue_gamma_form(n, d)
            if abs(ratio - closed) > 1e-10:
                problems.append(f"closed form n={n}, d={d}")
    for d in (3, 4, 5):
        fit = rotations.decay_exponent_fit(d)
        if abs(fit - (2 - d) / 2.0) > 0.1:
            problems.append(f"decay fit d={d}: {fit:.3f}")
    _line("criterion 5 (transform spectrum)", not problems, "; ".join(problems))


# criterion 6 ------------------------------------------------------------------


def test_criterion_6_slice_reconstruction():
    started = time.perf_counter()
    spectrum = rotations.funk_spectrum(3, 8)
    grid = rotations.SphereGrid.build(32)
    worst_resid = 0.0
    worst_mean = 0.0
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        omega = rng.normal(size=rotations.basis_size(8))
        omega[0] = 0.0
        dec = rotations.neumann_solve(omega, spectrum)
        tests = [rng.normal(size=rotations.basis_size(8)) for _ in range(5)]
        residuals = rotations.verify_repr(dec, omega, tests, grid)
        worst_resid = max(worst_resid, max(residuals))
        for nu in grid.points[::97]:
            worst_mean = max(worst_mean, abs(dec.circle_mean(nu, count=64)))
    elapsed = time.perf_counter() - started
    ok = worst_resid < 1e-6 and worst_mean < 1e-10 and elapsed < 30.0
    _line("criterion 6 (slice reconstruction)", ok,
          f"max residual {worst_resid:.2e}, max circle mean {worst_mean:.2e}, "
          f"{elapsed:.1f}s")


# criterion 7 ------------------------------------------------------------------


def _radial_bump(lo, hi):
    def rho(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > lo) & (r < hi)
        out[inside] = (r[inside] - lo) ** 3 * (hi - r[inside]) ** 3
        return out
    return rho


def test_criterion_7_superposition():
    grid = rotations.SphereGrid.build(16)
    worst = 0.0
    for trial in range(3):
        rng = np.random.default_rng(200 + trial)
        omega = rng.normal(size=rotations.basis_size(4))
        omega[0] = 0.0
        ang = rng.normal(size=rotations.basis_size(4))
        f = rotations.RadialTensorFunction(
            ((_radial_bump(0.5, 2.0), ang),), (0.5, 2.0))
        worst = max(worst, rotations.verify_superposition(omega, f, grid))
    _line("criterion 7 (superposition identity)", worst < 1e-5,
          f"max residual {worst:.2e}")


# criterion 8 ------------------------------------------------------------------


def test_criterion_8_kernel_extension():
    ext = extend_kernel(TruncatedOdd(), 1)
    report = verify_mikhlin(ext, max_order=2)
    scaled = verify_mikhlin(ext.scaled(100.0), max_order=2)
    ok = report.passed and not scaled.passed and \
        abs(scaled.worst_constant - 100.0) / 100.0 < 0.05
    _line("criterion 8 (kernel extension)", ok,
          f"normalized {report.worst_constant:.6f}, x100 {scaled.worst_constant:.3f}")


# criterion 9 ------------------------------------------------------------------


def test_criterion_9_equivalence_invariance():
    problems = []
    for name in SHIPPED_FIXTURES:
        d = shipped_fixture(name)
        if d.dim_H > 5:
            continue
        funcs = tuple(GaussianFunction.tensor([0] * d.dims[i], [1] * d.dims[i])
                      for i in (1, 2, 3))
        kernel = NarrowGaussian(d.dims[0], 0.8) if d.dims[0] else None
        spec = FormSpec(d, kernel, funcs)
        quad = QuadSpec("tensor", points=20) if d.dim_H <= 4 else \
            QuadSpec("mc", samples=120_000, seed=7)
        for seed in (21, 22, 23):
            residual, tol = check_equivalence_invariance(
                spec, random_equivalence(d, seed), quad)
            if residual > tol:
                problems.append(f"{name}#{seed}: {residual:.2e} > {tol:.2e}")
    _line("criterion 9 (equivalence invariance)", not problems, "; ".join(problems))


# criterion 10 -----------------------------------------------------------------


def _run_cli(*argv: str) -> str:
    proc = subprocess.run([sys.executable, "-m", "sblq.cli", *argv],
                          capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    report.pop("timing", None)
    return json.dumps(report, sort_keys=False)


def test_criterion_10_determinism(tmp_path):
    from sblq.core import datum_to_dict
    from sblq.fixtures import shipped_fixture_dict
    problems = []
    fix = tmp_path / "fixture.json"
    fix.write_text(json.dumps(shipped_fixture_dict("twisted_paraproduct")))
    for argv in (
        ("classify", str(fix), "--report", "json", "--certificates"),
        ("decompose", str(fix), "--report", "json"),
        ("numcheck", "eval", str(fix), "--quad", "mc:60000:3", "--report", "json"),
    ):
        a = _run_cli(*argv)
        b = _run_cli(*argv)
        if a != b:
            problems.append(" ".join(argv))
    # round-trip decompositions repeat byte-for-byte at the report level
    for seed in (0, 17):
        tags, datum = random_case(seed)
        r1 = decompose(datum)
        r2 = decompose(datum)
        if [s.render() for s in r1.summands] != [s.render() for s in r2.summands]:
            problems.append(f"decompose seed {seed}")
    _line("criterion 10 (determinism)", not problems, "; ".join(problems))
