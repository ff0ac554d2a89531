import os
import subprocess
import sys
import textwrap
from math import comb, factorial, lgamma
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy
from scipy.special import eval_gegenbauer, lpmv

import sblq
import sblq.rotations as rotations
from sblq.rotations import (
    FunkSpectrum, RadialTensorFunction, SliceDecomposition, SphereGrid, TOLERANCES,
    basis_index, basis_size, decay_exponent_fit, degree_of_index, funk_apply,
    funk_apply_direct, funk_eigenvalue, funk_spectrum, gegenbauer,
    great_circle_frame, great_circle_points, neumann_solve, radial_log_quadrature,
    sph_basis, synthesize_at, verify_repr, verify_superposition,
)


def generating_function_coefficient(n, k, t_value):
    # oracle: expand (1 - 2rt + r^2)^(-k) to order r^n
    r, t = sympy.symbols("r t")
    series = sympy.series((1 - 2 * r * t + r ** 2) ** (-sympy.Rational(k)),
                          r, 0, n + 1).removeO()
    coeff = sympy.expand(series).coeff(r, n)
    return float(coeff.subs(t, t_value))


def test_gegenbauer_examples():
    assert gegenbauer(0, 0.5, 0.3) == 1.0
    assert abs(gegenbauer(2, 0.5, 0.0) - generating_function_coefficient(
        2, sympy.Rational(1, 2), 0)) < 1e-14
    assert abs(gegenbauer(2, 0.5, 0.0) + 0.5) < 1e-14
    assert abs(gegenbauer(2, 0.5, 1.0) - 1.0) < 1e-14


def test_gegenbauer_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(0, 12))
        k = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(-1, 1))
        assert abs(gegenbauer(n, k, t) - eval_gegenbauer(n, k, t)) < 1e-9


def test_eigenvalue_examples():
    assert abs(funk_eigenvalue(2, 3) + 0.5) < 1e-14
    assert funk_eigenvalue(7, 3) == 0.0
    assert funk_eigenvalue(0, 4) == 1.0


def test_eigenvalue_magnitude_at_degree_two():
    for d in range(3, 9):
        assert abs(abs(funk_eigenvalue(2, d)) - 1.0 / (d - 1)) < 1e-12


def test_eigenvalue_closed_form_agreement():
    # funk_eigenvalue raises if ratio and Gamma form disagree beyond 1e-10
    for d in (3, 4, 5, 8):
        for n in range(0, 41, 2):
            funk_eigenvalue(n, d)


def test_spectrum_monotone_decay():
    sp = funk_spectrum(3, 40)
    evens = np.abs(sp.lam[2::2])
    assert np.all(np.diff(evens) < 0)


BAD_SPECTRA = textwrap.dedent("""
    import sys
    import numpy as np
    from sblq.rotations import FunkSpectrum, funk_spectrum

    if not sys.flags.optimize:
        sys.exit("not running under -O")
    good = funk_spectrum(3, 4).lam
    bad = {"lambda_0": {0: 0.5}, "odd": {3: 1e-3}, "decrease": {4: -0.6},
           "lambda_2": {2: -0.4, 4: 0.3}}
    for name, edits in bad.items():
        lam = good.copy()
        for n, v in edits.items():
            lam[n] = v
        try:
            FunkSpectrum(3, 4, lam)
        except AssertionError as exc:
            print(name, "raised:", exc)
        else:
            print(name, "accepted")
""")


def test_funk_spectrum_checks_survive_optimize():
    # `python -O` strips assert statements; the spectrum checks must stay
    FunkSpectrum(3, 4, funk_spectrum(3, 4).lam)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sblq.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", BAD_SPECTRA],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and all(" raised: " in line for line in lines), proc.stdout


def test_decay_exponent():
    for d in (3, 4, 5):
        assert abs(decay_exponent_fit(d) - (2 - d) / 2.0) < 0.1


def test_grid_integrates_band_limited_products():
    grid = SphereGrid.build(16)
    assert abs(grid.weights.sum() - 1.0) < 1e-14
    basis = sph_basis(grid.points, 8)
    gram = basis.T @ (grid.weights[:, None] * basis)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def reference_sph_basis(points, band):
    # the former implementation: scipy lpmv at cos(theta) = z, azimuth from arctan2
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    ct = np.clip(z, -1.0, 1.0)
    phi = np.arctan2(y, x)
    out = np.empty((points.shape[0], basis_size(band)))
    for l in range(band + 1):
        out[:, basis_index(l, 0)] = np.sqrt(2 * l + 1.0) * lpmv(0, l, ct)
        for m in range(1, l + 1):
            norm = np.sqrt(2 * (2 * l + 1.0)) * np.exp(
                0.5 * (lgamma(l - m + 1) - lgamma(l + m + 1)))
            plm = lpmv(m, l, ct)
            out[:, basis_index(l, m)] = norm * plm * np.cos(m * phi)
            out[:, basis_index(l, -m)] = norm * plm * np.sin(m * phi)
    return out


def mpmath_sph_basis(points, band, digits=40):
    # oracle: each point's own angles at `digits` digits, and P_l^m from the
    # explicit derivative of P_l(t) = 2^-l sum_k (-1)^k C(l,k) C(2l-2k,l) t^(l-2k)
    out = np.empty((len(points), basis_size(band)))
    with mpmath.workdps(digits):
        for i, (x, y, z) in enumerate(points):
            x, y, z = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(z)
            r = mpmath.sqrt(x * x + y * y + z * z)
            st, ct, phi = mpmath.hypot(x, y) / r, z / r, mpmath.atan2(y, x)
            for l in range(band + 1):
                for m in range(l + 1):
                    deriv = sum((-1) ** k * comb(l, k) * comb(2 * l - 2 * k, l)
                                * factorial(l - 2 * k) // factorial(l - 2 * k - m)
                                * ct ** (l - 2 * k - m)
                                for k in range((l - m) // 2 + 1)) / 2 ** l
                    norm = mpmath.sqrt((2 if m else 1) * (2 * l + 1)
                                       * mpmath.mpf(factorial(l - m)) / factorial(l + m))
                    value = (-1) ** m * norm * deriv * st ** m
                    out[i, basis_index(l, m)] = float(value * mpmath.cos(m * phi))
                    if m:
                        out[i, basis_index(l, -m)] = float(value * mpmath.sin(m * phi))
    return out


def reference_great_circle_points(nu, count):
    # the former per-normal construction, one frame at a time
    nu = np.asarray(nu, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(nu)))] = 1.0
    e1 = np.cross(axis, nu)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nu, e1)
    t = 2.0 * np.pi * np.arange(count) / count
    return np.outer(np.cos(t), e1) + np.outer(np.sin(t), e2)


def _unit_points(count, seed, max_abs_z=1.0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts[np.abs(pts[:, 2]) <= max_abs_z]


def test_sph_basis_matches_lpmv_reference_away_from_poles():
    pts = _unit_points(2000, 11, max_abs_z=0.99)
    for band in range(17):
        assert np.max(np.abs(sph_basis(pts, band) - reference_sph_basis(pts, band))) < 1e-12
    # the oracle agrees with both away from the poles
    few = pts[:12]
    assert np.max(np.abs(mpmath_sph_basis(few, 16) - reference_sph_basis(few, 16))) < 1e-12


def _near_pole_circle_points():
    # great circles through a pole, from the grids of bands 4 and 16: here
    # z rounds to within 4e-16 of +-1 while x and y are about 1e-16
    chunks = []
    for grid_band in (4, 16):
        circles = np.concatenate([reference_great_circle_points(nu, 64)
                                  for nu in SphereGrid.build(grid_band).points])
        az = np.abs(circles[:, 2])
        chunks.append(circles[(az > 1.0 - 4e-16) & (az < 1.0)])
    assert all(len(c) >= 2 for c in chunks)
    return np.concatenate(chunks)


@pytest.mark.parametrize("band", [4, 16])
def test_sph_basis_near_poles_matches_mpmath(band):
    pts = _near_pole_circle_points()
    exact = mpmath_sph_basis(pts, band)
    assert np.max(np.abs(sph_basis(pts, band) - exact)) <= 1e-12
    # arccos-style evaluation loses half the digits at these points
    assert np.max(np.abs(reference_sph_basis(pts, band) - exact)) > 1e-8


def test_great_circles_match_per_circle_loop():
    for grid_band in (4, 8, 16):
        nus = SphereGrid.build(grid_band).points
        for count in (8, 64):
            loop = np.concatenate([reference_great_circle_points(nu, count) for nu in nus])
            assert np.max(np.abs(great_circle_points(nus, count) - loop)) <= 1e-15
        e1, e2 = great_circle_frame(nus)
        for a, b in ((e1, e1), (e2, e2), (e1, e2), (e1, nus), (e2, nus)):
            expected = 1.0 if a is b else 0.0
            assert np.max(np.abs(np.sum(a * b, axis=1) - expected)) < 1e-15
    nu = np.array([0.3, -0.4, np.sqrt(0.75)])
    assert great_circle_points(nu, 10).shape == (10, 3)
    assert great_circle_points(nu[None, :], 10).shape == (10, 3)


def test_degree_of_index_is_exact():
    assert [degree_of_index(i) for i in range(10)] == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]
    for k in (1, 7, 94_906_267, 10 ** 9, 2 ** 40 + 3):
        assert degree_of_index(k * k - 1) == k - 1
        assert degree_of_index(k * k) == k


def test_diagonal_eigenvalues_match_degree_loop():
    sp = funk_spectrum(3, 10)
    rng = np.random.default_rng(9)
    for band in (0, 1, 4, 10):
        coeffs = rng.normal(size=basis_size(band))
        coeffs[0] = 0.0
        lam = np.array([sp.lam[degree_of_index(i)] for i in range(len(coeffs))])
        assert np.array_equal(funk_apply(coeffs, sp), coeffs * lam)
        f = np.zeros_like(coeffs)
        f[1:] = coeffs[1:] / (1.0 - lam[1:] ** 2)
        assert np.array_equal(neumann_solve(coeffs, sp).f_coeffs, f)


def test_funk_apply_examples():
    sp = funk_spectrum(3, 4)
    const = np.zeros(basis_size(4))
    const[0] = 1.0
    assert np.allclose(funk_apply(const, sp), const)
    deg2 = np.zeros(basis_size(4))
    deg2[basis_index(2, 1)] = 1.0
    assert np.allclose(funk_apply(deg2, sp), -0.5 * deg2)
    odd = np.zeros(basis_size(4))
    odd[basis_index(3, -2)] = 1.0
    assert np.allclose(funk_apply(odd, sp), 0.0)


def test_funk_apply_band_limit_guard():
    with pytest.raises(ValueError):
        funk_apply(np.ones(basis_size(5)), funk_spectrum(3, 4))


def test_funk_apply_matches_circle_quadrature():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=basis_size(16))
    sp = funk_spectrum(3, 16)
    grid = SphereGrid.build(16)
    sample = grid.points[::11]
    direct = funk_apply_direct(coeffs, sample)
    spectral = synthesize_at(sample, funk_apply(coeffs, sp))
    assert np.max(np.abs(direct - spectral)) < 1e-8


def test_contraction_property():
    sp = funk_spectrum(3, 10)
    rng = np.random.default_rng(5)
    for _ in range(10):
        omega = rng.normal(size=basis_size(10))
        omega[0] = 0.0
        out = funk_apply(omega, sp)
        assert np.linalg.norm(out) <= np.linalg.norm(omega) / 2.0 + 1e-10
    deg2 = np.zeros(basis_size(10))
    deg2[basis_index(2, 0)] = 1.0
    assert abs(np.linalg.norm(funk_apply(deg2, sp))
               - np.linalg.norm(deg2) / 2.0) < 1e-14


def test_neumann_solve_examples():
    sp = funk_spectrum(3, 4)
    deg2 = np.zeros(basis_size(2))
    deg2[basis_index(2, 0)] = 1.0
    dec = neumann_solve(deg2, sp)
    assert abs(dec.f_coeffs[basis_index(2, 0)] - 4.0 / 3.0) < 1e-12
    odd = np.zeros(basis_size(3))
    odd[basis_index(3, 1)] = 1.0
    dec = neumann_solve(odd, sp)
    assert np.allclose(dec.f_coeffs, odd)
    zero = np.zeros(basis_size(2))
    dec = neumann_solve(zero, sp)
    assert np.allclose(dec.f_coeffs, 0.0)


def test_neumann_rejects_nonzero_mean():
    coeffs = np.zeros(basis_size(2))
    coeffs[0] = 1.0
    with pytest.raises(ValueError):
        neumann_solve(coeffs, funk_spectrum(3, 2))


def test_gamma_circle_means_vanish():
    rng = np.random.default_rng(7)
    omega = rng.normal(size=basis_size(8))
    omega[0] = 0.0
    dec = neumann_solve(omega, funk_spectrum(3, 8))
    for nu in SphereGrid.build(6).points[::5]:
        assert abs(dec.circle_mean(nu)) < 1e-10


def test_verify_repr_zero_input():
    sp = funk_spectrum(3, 4)
    zero = np.zeros(basis_size(4))
    dec = neumann_solve(zero, sp)
    grid = SphereGrid.build(8)
    f = np.zeros(basis_size(2))
    f[basis_index(2, 0)] = 1.0
    assert verify_repr(dec, zero, [f], grid) == [0.0]


def test_verify_repr_degree_two():
    sp = funk_spectrum(3, 4)
    omega = np.zeros(basis_size(2))
    omega[basis_index(2, 0)] = 1.0
    dec = neumann_solve(omega, sp)
    grid = SphereGrid.build(16)
    residuals = verify_repr(dec, omega, [omega], grid)
    assert residuals[0] < 1e-6


def reference_verify_repr(dec, omega_coeffs, test_coeffs, grid, circle_count=64):
    """`verify_repr` as it was, with one grid basis per synthesized function."""
    omega_vals = synthesize_at(grid.points, omega_coeffs)
    nus = grid.points
    circles = great_circle_points(nus, circle_count)
    max_band = max([degree_of_index(len(omega_coeffs) - 1)]
                   + [degree_of_index(len(fc) - 1) for fc in test_coeffs])
    circle_basis = sph_basis(circles, max_band)
    gamma_f = circle_basis[:, :len(dec.f_coeffs)] @ dec.f_coeffs
    tf_nu = synthesize_at(nus, dec.tf_coeffs)
    gamma_vals = gamma_f.reshape(len(nus), circle_count) - tf_nu[:, None]
    residuals = []
    for fc in test_coeffs:
        lhs = grid.integrate(synthesize_at(grid.points, fc) * omega_vals)
        f_vals = (circle_basis[:, :len(fc)] @ fc).reshape(len(nus), circle_count)
        rhs = grid.integrate((f_vals * gamma_vals).mean(axis=1))
        residuals.append(abs(lhs - rhs))
    return residuals


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("band, test_bands, grid_band, circle_count", [
    (4, (4, 4, 4), 8, 64), (4, (2, 6, 1), 8, 6), (6, (3, 6), 5, 8), (2, (0, 5), 4, 4)])
def test_verify_repr_matches_one_basis_per_function(seed, band, test_bands, grid_band,
                                                    circle_count):
    # coarse grids and circles leave residuals well above rounding, so the
    # comparison sees the sums and not only their floors
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=basis_size(band))
    omega[0] = 0.0
    tests = [rng.normal(size=basis_size(b)) for b in test_bands]
    dec = neumann_solve(omega, funk_spectrum(3, 8))
    grid = SphereGrid.build(grid_band)
    with mock.patch.object(rotations, "sph_basis", wraps=rotations.sph_basis) as evaluating:
        new = verify_repr(dec, omega, tests, grid, circle_count)
    assert evaluating.call_count == 2
    old = reference_verify_repr(dec, omega, tests, grid, circle_count)
    assert max(old) > 1e-3 or circle_count == 64
    assert all(abs(a - b) <= 1e-14 * max(1.0, b) for a, b in zip(new, old)), (new, old)


def _bump(lo, hi):
    def rho(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > lo) & (r < hi)
        out[inside] = (r[inside] - lo) ** 3 * (hi - r[inside]) ** 3
        return out
    return rho


def test_superposition_zero():
    zero = np.zeros(basis_size(2))
    ang = np.zeros(basis_size(2))
    ang[basis_index(2, 0)] = 1.0
    f = RadialTensorFunction(((_bump(0.5, 2.0), ang),), (0.5, 2.0))
    assert verify_superposition(zero, f, SphereGrid.build(8)) < 1e-14


def test_superposition_degree_two():
    omega = np.zeros(basis_size(2))
    omega[basis_index(2, 0)] = 1.0
    ang = np.zeros(basis_size(2))
    ang[basis_index(2, 0)] = 1.0
    f = RadialTensorFunction(((_bump(0.5, 2.0), ang),), (0.5, 2.0))
    assert verify_superposition(omega, f, SphereGrid.build(12)) < 1e-5


def test_superposition_purely_radial_test_function():
    omega = np.zeros(basis_size(2))
    omega[basis_index(2, -1)] = 0.8
    ang = np.zeros(1)
    ang[0] = 1.0   # constant angular part
    f = RadialTensorFunction(((_bump(0.5, 2.0), ang),), (0.5, 2.0))
    assert verify_superposition(omega, f, SphereGrid.build(12)) < 1e-10


def reference_superposition(omega_coeffs, f, grid, radial_count=48, circle_count=64):
    # oracle: both sides of the identity by polar quadrature, evaluating f
    # at every radial node on every great circle
    lo, hi = f.support
    r_nodes, r_weights = radial_log_quadrature(lo, hi, radial_count)
    omega_vals = synthesize_at(grid.points, omega_coeffs)
    lhs = 0.0
    for r, w in zip(r_nodes, r_weights):
        fv = f(r * grid.points)
        lhs += w * grid.integrate(fv * omega_vals)
    lhs *= 4.0 * np.pi

    spectrum = funk_spectrum(3, degree_of_index(len(omega_coeffs) - 1))
    dec = neumann_solve(omega_coeffs, spectrum)
    nus = grid.points
    tf_nu = synthesize_at(nus, dec.tf_coeffs)
    rhs = 0.0
    for i, nu in enumerate(nus):
        circle = great_circle_points(nu, circle_count)
        gamma_vals = synthesize_at(circle, dec.f_coeffs) - tf_nu[i]
        inner = 0.0
        for r, w in zip(r_nodes, r_weights):
            inner += w * float(np.mean(f(r * circle) * gamma_vals))
        rhs += grid.weights[i] * inner
    rhs *= 4.0 * np.pi
    return abs(lhs - rhs)


@pytest.mark.parametrize("grid_band,circle_count,radial_count,seed", [
    (3, 6, 8, 0), (4, 8, 10, 1), (3, 10, 12, 2), (4, 6, 12, 3), (5, 8, 8, 4),
])
def test_superposition_matches_per_circle_reference(grid_band, circle_count,
                                                    radial_count, seed):
    # under-resolved rules keep the residual O(1), so agreement is not trivial
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=basis_size(4))
    omega[0] = 0.0
    skewed = _bump(0.7, 1.6)
    f = RadialTensorFunction(
        ((_bump(0.5, 2.0), rng.normal(size=basis_size(2))),
         (lambda r: np.asarray(r) * skewed(r), rng.normal(size=basis_size(5)))),
        (0.5, 2.0))
    grid = SphereGrid.build(grid_band)
    new = verify_superposition(omega, f, grid, radial_count, circle_count)
    old = reference_superposition(omega, f, grid, radial_count, circle_count)
    assert old > 1e-3
    assert abs(new - old) <= 1e-8 * old


@pytest.mark.parametrize("seed", range(4))
def test_residual_floors(seed):
    # the small checks the benchmark runs: with exact rules both residuals
    # sit at rounding level
    rng = np.random.default_rng(seed)
    omega4 = rng.normal(size=basis_size(4))
    omega4[0] = 0.0
    tests = [rng.normal(size=basis_size(4)) for _ in range(5)]
    dec = neumann_solve(omega4, funk_spectrum(3, 4))
    assert max(verify_repr(dec, omega4, tests, SphereGrid.build(8))) < 1e-12
    omega2 = rng.normal(size=basis_size(2))
    omega2[0] = 0.0
    f = RadialTensorFunction(((_bump(0.5, 2.0), rng.normal(size=basis_size(2))),),
                             (0.5, 2.0))
    residual = verify_superposition(omega2, f, SphereGrid.build(4),
                                    radial_count=8, circle_count=8)
    assert residual < 1e-12


def test_radial_support_guard():
    ang = np.zeros(1)
    ang[0] = 1.0
    with pytest.raises(ValueError):
        RadialTensorFunction(((_bump(0.0, 1.0), ang),), (0.0, 1.0))
