"""Spectral machinery on the sphere.

The great-circle averaging transform T acts diagonally on spherical
harmonics; its eigenvalues are Gegenbauer ratios with a Gamma-function
closed form on even degrees.  This module evaluates both, inverts
1 - T^2 to decompose a mean-zero function on S^{d-1} into mean-zero
slice functions on great circles, and checks the resulting superposition
identity for homogeneous kernels at d = 3 by quadrature.

General d is exposed at the eigenvalue level; the full slice machinery
(real spherical harmonics, explicit circle quadrature) is d = 3 only.
The harmonics come from (x + iy)^m and the normalized Legendre recurrence
in z (Holmes and Featherstone, J. Geodesy 76, 2002): no angle or
sqrt(1 - z^2) is formed, so points next to a pole keep full precision.

Importing this module loads numpy and nothing of scipy: the Gauss-Legendre
rule (`_gauss_legendre`, shared with `numcheck`) is built here by Newton's
method.  TOLERANCES lives in `sblq.tolerances`, which needs no numpy, and
is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt, lgamma, pi, sqrt
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .tolerances import TOLERANCES


# -- Gegenbauer values and transform eigenvalues --------------------------------


def gegenbauer(n: int, k: float, t):
    """C_n^k(t) by the standard three-term recurrence.

    Matches the generating function (1 - 2rt + r^2)^{-k} = sum C_n^k(t) r^n.
    """
    if k <= 0:
        raise ValueError("Gegenbauer parameter must be positive")
    t = np.asarray(t, dtype=float)
    c_prev = np.ones_like(t)
    if n == 0:
        return c_prev if c_prev.shape else float(c_prev)
    c = 2.0 * k * t
    for m in range(2, n + 1):
        c, c_prev = (2.0 * t * (m + k - 1.0) * c - (m + 2.0 * k - 2.0) * c_prev) / m, c
    return c if c.shape else float(c)


def _eigenvalue_gamma_form(n: int, d: int) -> float:
    """Closed form on even degrees, with sign (-1)^{n/2}; zero on odd."""
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    log_abs = (lgamma(n / 2 + d / 2 - 1) + lgamma(n + 1) + lgamma(d - 2)
               - lgamma(n / 2 + 1) - lgamma(n + d - 2) - lgamma(d / 2 - 1))
    return (-1.0) ** (n // 2) * np.exp(log_abs)


def funk_eigenvalue(n: int, d: int) -> float:
    """Eigenvalue of the great-circle averaging transform on degree n.

    Returns the Gegenbauer ratio C_n^{(d-2)/2}(0) / C_n^{(d-2)/2}(1); for
    even n <= 40 the Gamma-function closed form is evaluated as well and
    the two are required to agree to 1e-10.
    """
    if d < 3:
        raise ValueError("averaging transform eigenvalues need dimension >= 3")
    if n % 2 == 1:
        return 0.0
    k = (d - 2) / 2.0
    ratio = gegenbauer(n, k, 0.0) / gegenbauer(n, k, 1.0)
    if n <= 40:
        closed = _eigenvalue_gamma_form(n, d)
        if abs(ratio - closed) > TOLERANCES["spectral"]:
            raise ArithmeticError(
                f"eigenvalue cross-check failed at n={n}, d={d}: "
                f"{ratio} vs {closed}")
    return ratio


@dataclass(frozen=True)
class FunkSpectrum:
    """Degree-indexed eigenvalues of the averaging transform."""

    d: int
    max_degree: int
    lam: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("dimension must be >= 3")
        if self.lam[0] != 1.0:
            raise AssertionError("lambda_0 must be 1")
        if any(self.lam[n] != 0.0 for n in range(1, self.max_degree + 1, 2)):
            raise AssertionError("odd eigenvalues must vanish")
        evens = np.abs(self.lam[2::2])
        if not np.all(np.diff(evens) < 0):
            raise AssertionError("even eigenvalue magnitudes must decrease")
        if self.max_degree >= 2 and \
                not abs(abs(self.lam[2]) - 1.0 / (self.d - 1)) <= TOLERANCES["spectral"]:
            raise AssertionError("|lambda_2| must equal 1/(d-1)")


def funk_spectrum(d: int, max_degree: int) -> FunkSpectrum:
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")
    lam = np.array([funk_eigenvalue(n, d) for n in range(max_degree + 1)])
    return FunkSpectrum(d, max_degree, lam)


def decay_exponent_fit(d: int, n_lo: int = 20, n_hi: int = 40) -> float:
    """Least-squares slope of log|lambda_n| against log n over even degrees."""
    ns = np.arange(n_lo, n_hi + 1, 2)
    vals = np.array([abs(funk_eigenvalue(int(n), d)) for n in ns])
    slope, _ = np.polyfit(np.log(ns), np.log(vals), 1)
    return float(slope)


# -- Gauss-Legendre rule -----------------------------------------------------------


def _legendre_and_slope(n: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], as read-only arrays.

    Newton's method on the recurrence, vectorised over the nonnegative
    nodes from cos(pi (i + 3/4) / (n + 1/2)), is O(n^2) (Hale and Townsend,
    SIAM J. Sci. Comput. 35, 2013); the negative half is the mirror image,
    so the rule is exactly symmetric.  One step after the steps fall below
    1e-10 polishes the nodes, and the weights 2 / ((1 - x^2) P_n'(x)^2) are
    read at the returned nodes.
    """
    if n < 1:
        raise ValueError(f"a Gauss rule needs at least one point, got {n}")
    x = np.cos(pi * (np.arange((n + 1) // 2) + 0.75) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0                  # P_n(0) = 0 exactly for odd n
    for _ in range(100):
        p, slope = _legendre_and_slope(n, x)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-10:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not converge")
    p, slope = _legendre_and_slope(n, x)
    x = x - p / slope
    _, slope = _legendre_and_slope(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# -- real spherical harmonics on S^2 ---------------------------------------------


def basis_size(band: int) -> int:
    return (band + 1) ** 2


def basis_index(l: int, m: int) -> int:
    return l * l + l + m


def degree_of_index(idx: int) -> int:
    return isqrt(idx)


def sph_basis(points: np.ndarray, band: int) -> np.ndarray:
    """Matrix of real spherical harmonics, orthonormal for the probability
    measure, evaluated at unit vectors (rows of `points`).

    Column basis_index(l, +-m) is N_l^m Q_l^m(z) times the real or imaginary
    part of (x + iy)^m = sin^m(theta) e^{im phi}, where Q_l^m = P_l^m / sin^m
    (Condon-Shortley sign) is a polynomial in z, from the three-term
    recurrence in l at fixed m.  It starts at the constant Q_m^m; the factor
    2 of the m > 0 normalization enters at m = 1, Q_1^1 = -sqrt(3).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, z = points.T
    out = np.empty((len(points), basis_size(band)))
    power = np.ones(len(points), dtype=complex)
    q_mm = 1.0
    for m in range(band + 1):
        if m:
            power = power * (x + 1j * y)
            q_mm *= -sqrt((2 * m + 1) / (2 * m if m > 1 else 1))
        q_prev, q = 0.0, np.full(len(points), q_mm)
        for l in range(m, band + 1):
            if l > m:
                a = sqrt((2 * l - 1) * (2 * l + 1) / ((l - m) * (l + m)))
                b = sqrt((2 * l + 1) * (l + m - 1) * (l - m - 1)
                         / ((l - m) * (l + m) * (2 * l - 3))) if l > m + 1 else 0.0
                q_prev, q = q, a * z * q - b * q_prev
            out[:, basis_index(l, m)] = q * power.real
            if m:
                out[:, basis_index(l, -m)] = q * power.imag
    return out


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature on S^2: Gauss-Legendre in the polar direction and
    uniform azimuth.  Weights are normalized to total mass one and the rule
    integrates spherical harmonics up to degree 2*band exactly."""

    band: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, band: int) -> "SphereGrid":
        nodes, glw = _gauss_legendre(band + 1)
        naz = 2 * band + 1
        phis = 2.0 * pi * np.arange(naz) / naz
        ct = np.repeat(nodes, naz)
        st = np.sqrt(1.0 - ct ** 2)
        ph = np.tile(phis, band + 1)
        pts = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
        w = np.repeat(glw / 2.0, naz) / naz
        return cls(band, pts, w)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def synthesize_at(points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    band = degree_of_index(len(coeffs) - 1)
    return sph_basis(points, band) @ coeffs


# -- the transform, its inverse problem, and slice functions --------------------


def _degree_lam(spectrum: FunkSpectrum, size: int) -> np.ndarray:
    """lam_l repeated over the 2l + 1 coefficients of each degree l."""
    band = degree_of_index(size - 1)
    if band > spectrum.max_degree:
        raise ValueError("band limit exceeds the tabulated spectrum")
    return np.repeat(spectrum.lam[:band + 1], 2 * np.arange(band + 1) + 1)[:size]


def funk_apply(coeffs: np.ndarray, spectrum: FunkSpectrum) -> np.ndarray:
    """Multiply each degree block by its eigenvalue."""
    return np.asarray(coeffs, dtype=float) * _degree_lam(spectrum, len(coeffs))


def great_circle_frame(nus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal frames (rows of e1, e2) spanning the planes
    orthogonal to the rows of nus."""
    nus = np.atleast_2d(np.asarray(nus, dtype=float))
    axis = np.zeros_like(nus)
    axis[np.arange(len(nus)), np.argmin(np.abs(nus), axis=1)] = 1.0
    e1 = np.cross(axis, nus)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(nus, e1)
    return e1, e2


def great_circle_points(nus: np.ndarray, count: int) -> np.ndarray:
    """count uniform points on the great circle orthogonal to each row of nus,
    circle after circle; the uniform rule is exact for band limit
    count/2 - 1.  A single nu gives shape (count, 3)."""
    e1, e2 = great_circle_frame(nus)
    t = 2.0 * pi * np.arange(count) / count
    pts = (np.cos(t)[None, :, None] * e1[:, None, :]
           + np.sin(t)[None, :, None] * e2[:, None, :])
    return pts.reshape(-1, 3)


def circle_quadrature_count(band: int) -> int:
    return 2 * (band + 1)


def funk_apply_direct(coeffs: np.ndarray, nus: np.ndarray,
                      count: Optional[int] = None) -> np.ndarray:
    """Great-circle averages computed by explicit quadrature at each nu."""
    band = degree_of_index(len(coeffs) - 1)
    count = count or circle_quadrature_count(band)
    nus = np.atleast_2d(nus)
    vals = synthesize_at(great_circle_points(nus, count), coeffs).reshape(len(nus), count)
    return vals.mean(axis=1)


@dataclass
class SliceDecomposition:
    """Slice functions Gamma(nu, theta) = F(theta) - (TF)(nu) realizing a
    mean-zero function as a superposition over great circles."""

    f_coeffs: np.ndarray
    tf_coeffs: np.ndarray
    spectrum: FunkSpectrum

    def circle_mean(self, nu: np.ndarray, count: int = 64) -> float:
        pts = great_circle_points(nu, count)
        vals = synthesize_at(pts, self.f_coeffs) - float(
            synthesize_at(np.atleast_2d(nu), self.tf_coeffs)[0])
        return float(vals.mean())


def neumann_solve(omega_coeffs: np.ndarray,
                  spectrum: FunkSpectrum) -> SliceDecomposition:
    """Solve (1 - T^2) F = Omega by diagonal division, cross-checked against
    the truncated Neumann series sum F = sum_l T^{2l} Omega."""
    omega = np.asarray(omega_coeffs, dtype=float).copy()
    if abs(omega[0]) > TOLERANCES["mean_zero"]:
        raise ValueError("input must have zero mean")
    omega[0] = 0.0  # below the mean-zero tolerance; 1 - lam_0^2 is singular there
    lam = _degree_lam(spectrum, len(omega))
    f = np.zeros_like(omega)
    f[1:] = omega[1:] / (1.0 - lam[1:] ** 2)
    series = np.zeros_like(omega)
    term = omega.copy()
    for _ in range(10_000):
        series += term
        term = term * lam ** 2
        if np.max(np.abs(term)) < TOLERANCES["neumann"]:
            break
    # remaining tail is below term/(1 - lam^2) <= 2e-14 in every entry
    if np.max(np.abs(series - f)) > 1e-12:
        raise ArithmeticError("Neumann series disagrees with diagonal inversion")
    return SliceDecomposition(f, funk_apply(f, spectrum), spectrum)


# -- verification drivers ---------------------------------------------------------


def verify_repr(dec: SliceDecomposition, omega_coeffs: np.ndarray,
                test_coeffs: Sequence[np.ndarray], grid: SphereGrid,
                circle_count: int = 64) -> List[float]:
    """Residuals of the superposition identity paired against test functions.

    For each f the residual is |<f, Omega> - int int f(theta)
    Gamma(nu, theta) dsigma_nu(theta) dsigma(nu)| with the outer integral on
    the grid and the inner one on explicit great circles, each from one basis.
    """
    nus = grid.points
    circles = great_circle_points(nus, circle_count)
    max_band = max(degree_of_index(len(c) - 1)
                   for c in (omega_coeffs, dec.f_coeffs, dec.tf_coeffs, *test_coeffs))
    grid_basis, circle_basis = sph_basis(nus, max_band), sph_basis(circles, max_band)
    omega_vals = grid_basis[:, :len(omega_coeffs)] @ omega_coeffs
    gamma_f = circle_basis[:, :len(dec.f_coeffs)] @ dec.f_coeffs
    tf_nu = grid_basis[:, :len(dec.tf_coeffs)] @ dec.tf_coeffs
    gamma_vals = gamma_f.reshape(len(nus), circle_count) - tf_nu[:, None]
    residuals = []
    for fc in test_coeffs:
        lhs = grid.integrate((grid_basis[:, :len(fc)] @ fc) * omega_vals)
        f_vals = (circle_basis[:, :len(fc)] @ fc).reshape(len(nus), circle_count)
        inner = (f_vals * gamma_vals).mean(axis=1)
        rhs = grid.integrate(inner)
        residuals.append(abs(lhs - rhs))
    return residuals


def radial_log_quadrature(lo: float, hi: float, count: int = 48):
    """Nodes and weights for int_lo^hi g(r) dr/r by Gauss-Legendre in log r."""
    nodes, w = _gauss_legendre(count)
    a, b = np.log(lo), np.log(hi)
    r = np.exp(0.5 * (b - a) * nodes + 0.5 * (a + b))
    return r, 0.5 * (b - a) * w


@dataclass(frozen=True)
class RadialTensorFunction:
    """Finite sum of (radial profile) x (band-limited angular part) terms.

    Radial profiles must be supported in [lo, hi] with lo > 0.
    """

    terms: Tuple[Tuple[Callable[[np.ndarray], np.ndarray], np.ndarray], ...]
    support: Tuple[float, float]

    def __post_init__(self):
        lo, hi = self.support
        if lo <= 0:
            raise ValueError("radial support must stay away from the origin")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        r = np.linalg.norm(x, axis=1)
        out = np.zeros(len(x))
        mask = r > 0
        unit = x[mask] / r[mask, None]
        for rho, ang in self.terms:
            out[mask] += rho(r[mask]) * synthesize_at(unit, ang)
        return out


def verify_superposition(omega_coeffs: np.ndarray, f: RadialTensorFunction,
                         grid: SphereGrid, radial_count: int = 48,
                         circle_count: int = 64) -> float:
    """Residual between int f K dx and its great-circle superposition, for the
    homogeneous kernel with spherical part Omega* = omega_coeffs (d = 3,
    no Dirac component).

    Both sides are linear in f = sum_t rho_t(r) Y_t(u) and integrate in r
    with the same rule, so the radial integral factors out: the residual is
    omega_2 = 4*pi times the `verify_repr` residual of the one angular
    function A = sum_t (sum_k w_k rho_t(r_k)) Y_t.
    """
    lo, hi = f.support
    r_nodes, r_weights = radial_log_quadrature(lo, hi, radial_count)
    band = max((degree_of_index(len(ang) - 1) for _, ang in f.terms), default=0)
    angular = np.zeros(basis_size(band))
    for rho, ang in f.terms:
        angular[:len(ang)] += float(np.dot(r_weights, rho(r_nodes))) * ang
    spectrum = funk_spectrum(3, degree_of_index(len(omega_coeffs) - 1))
    dec = neumann_solve(omega_coeffs, spectrum)
    return 4.0 * pi * verify_repr(dec, omega_coeffs, [angular], grid, circle_count)[0]
