import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from sympy.integrals.quadrature import gauss_hermite, gauss_legendre

from sblq.core import SBLDatum, random_equivalence
from sblq.fixtures import bht, fixture_datum
from sblq.linalg import Matrix
from sblq.numcheck import (
    ExtendedKernel, FormSpec, GaussianFunction, MikhlinGrid, MultiplierBump,
    NarrowGaussian, QuadSpec, TruncatedOdd, check_equivalence_invariance,
    delta_limit_check, eval_form, extend_kernel, normalized_kernel,
    verify_mikhlin,
)
from sblq.numcheck import (
    _HERMITE_MAX_POINTS, _gauss_hermite, _hermite_grid, _j0, _tensor_rule,
)
from sblq.rotations import _gauss_legendre


def identity_datum_1d():
    return SBLDatum(1, (1, 1, 1, 1), tuple(Matrix(1, 1, [1]) for _ in range(4)))


def gaussian_product_integral(weights, centers, kernel_scale):
    # closed form for int prod_i exp(-pi a_i (x - c_i)^2) * scale dx
    a = sum(weights)
    b = sum(w * c for w, c in zip(weights, centers))
    c = sum(w * cc * cc for w, cc in zip(weights, centers))
    return kernel_scale * math.sqrt(1.0 / a) * math.exp(-math.pi * (c - b * b / a))


def test_eval_form_matches_closed_form():
    d = identity_datum_1d()
    fs = (GaussianFunction.tensor([0], [1]),
          GaussianFunction.tensor([Fraction(1, 2)], [2]),
          GaussianFunction.tensor([-1], [1]))
    kernel = NarrowGaussian(1, 0.5)
    value, err = eval_form(FormSpec(d, kernel, fs), QuadSpec("tensor", points=64))
    closed = gaussian_product_integral(
        [1.0, 0.25, 1.0, 1.0 / 0.5 ** 2], [0.0, 0.5, -1.0, 0.0], 1.0 / 0.5)
    assert abs(value - closed) < 1e-6
    assert err >= 0


def test_eval_form_zero_function():
    d = identity_datum_1d()
    fs = (GaussianFunction.zero(1), GaussianFunction.tensor([0], [1]),
          GaussianFunction.tensor([0], [1]))
    value, _ = eval_form(FormSpec(d, NarrowGaussian(1, 1.0), fs),
                         QuadSpec("tensor", points=24))
    assert value == 0.0


def test_eval_form_kernel_only_direction_factorizes():
    # appending a kernel-only coordinate multiplies the value by the kernel mass
    base = SBLDatum(1, (0, 1, 1, 1),
                    (Matrix.zeros(0, 1), Matrix(1, 1, [1]),
                     Matrix(1, 1, [1]), Matrix(1, 1, [1])))
    fs = (GaussianFunction.tensor([0], [1]),
          GaussianFunction.tensor([Fraction(1, 3)], [1]),
          GaussianFunction.tensor([0], [2]))
    ref, _ = eval_form(FormSpec(base, None, fs), QuadSpec("tensor", points=64))
    extended = SBLDatum(2, (1, 1, 1, 1),
                        (Matrix(1, 2, [0, 1]), Matrix(1, 2, [1, 0]),
                         Matrix(1, 2, [1, 0]), Matrix(1, 2, [1, 0])))
    for mass in (1.0, 0.35):
        val, _ = eval_form(FormSpec(extended, NarrowGaussian(1, 0.9, scale=mass), fs),
                           QuadSpec("tensor", points=64))
        assert abs(val - mass * ref) < 1e-7


def test_trilinearity():
    d = bht()
    kernel = NarrowGaussian(1, 0.8)
    quad = QuadSpec("tensor", points=48)
    f2 = GaussianFunction.tensor([1], [1])
    f3 = GaussianFunction.tensor([0], [2])
    a = GaussianFunction.tensor([0], [1])
    b = GaussianFunction.tensor([Fraction(1, 2)], [1])
    va, _ = eval_form(FormSpec(d, kernel, (a, f2, f3)), quad)
    vb, _ = eval_form(FormSpec(d, kernel, (b, f2, f3)), quad)
    scaled = GaussianFunction(1, a.center, a.quad_form, 2.5)
    vs, _ = eval_form(FormSpec(d, kernel, (scaled, f2, f3)), quad)
    assert abs(vs - 2.5 * va) < 1e-9
    # additivity checked through amplitude-weighted pieces of a common form
    half = GaussianFunction(1, b.center, b.quad_form, 0.5)
    vhalf, _ = eval_form(FormSpec(d, kernel, (half, f2, f3)), quad)
    assert abs(vhalf + vhalf - vb) < 1e-9


def test_equivalence_invariance_identity_and_scaling():
    from sblq.core import EquivalenceMap
    d = bht()
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    spec = FormSpec(d, NarrowGaussian(1, 0.8), fs)
    quad = QuadSpec("tensor", points=48)
    ident = EquivalenceMap(Matrix.identity(2),
                           tuple(Matrix.identity(1) for _ in range(4)))
    residual, tol = check_equivalence_invariance(spec, ident, quad)
    assert residual == 0.0
    doubling = EquivalenceMap(Matrix.identity(2).scale(2),
                              tuple(Matrix.identity(1) for _ in range(4)))
    residual, tol = check_equivalence_invariance(spec, doubling, quad)
    assert residual <= tol


def test_equivalence_invariance_seeded_shears():
    d = bht()
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    spec = FormSpec(d, NarrowGaussian(1, 0.8), fs)
    quad = QuadSpec("tensor", points=56)
    for seed in (1, 2, 3):
        residual, tol = check_equivalence_invariance(
            spec, random_equivalence(d, seed), quad)
        assert residual <= tol


def test_mc_quadrature_deterministic():
    d = bht()
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    spec = FormSpec(d, NarrowGaussian(1, 0.8), fs)
    a = eval_form(spec, QuadSpec("mc", samples=120_000, seed=9))
    b = eval_form(spec, QuadSpec("mc", samples=120_000, seed=9))
    assert a == b
    tensor_val, _ = eval_form(spec, QuadSpec("tensor", points=64))
    assert abs(a[0] - tensor_val) < 5 * a[1] + 1e-4


def test_quadrature_dimension_limits():
    d = SBLDatum(5, (2, 1, 1, 1),
                 (Matrix.from_rows([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
                  Matrix(1, 5, [1, 0, 0, 0, 0]),
                  Matrix(1, 5, [0, 1, 0, 0, 0]),
                  Matrix(1, 5, [0, 0, 1, 0, 0])))
    fs = tuple(GaussianFunction.tensor([0], [1]) for _ in range(3))
    spec = FormSpec(d, NarrowGaussian(2, 1.0), fs)
    with pytest.raises(ValueError):
        eval_form(spec, QuadSpec("tensor", points=12))
    eval_form(spec, QuadSpec("mc", samples=2_000, seed=0))  # allowed


def test_delta_limit_no_kernel_directions():
    d = SBLDatum(1, (0, 1, 1, 1),
                 (Matrix.zeros(0, 1), Matrix(1, 1, [1]),
                  Matrix(1, 1, [1]), Matrix(1, 1, [1])))
    fs = tuple(GaussianFunction.tensor([0], [1]) for _ in range(3))
    residuals, _ = delta_limit_check(d, fs, points=24)
    assert residuals == [0.0, 0.0, 0.0]


def test_delta_limit_bht_decreasing():
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    residuals, _ = delta_limit_check(bht(), fs, points=48)
    assert residuals[0] > residuals[1] > residuals[2] > 0


def test_delta_limit_young_decreasing():
    d = fixture_datum("young")
    fs = tuple(GaussianFunction.tensor([0] * d.dims[i], [1] * d.dims[i])
               for i in (1, 2, 3))
    residuals, _ = delta_limit_check(d, fs, points=14)
    assert residuals[0] > residuals[1] > residuals[2]


def test_mikhlin_gaussian_passes_after_normalization():
    kernel = normalized_kernel(NarrowGaussian(1, 1.0))
    report = verify_mikhlin(kernel)
    assert report.passed and report.worst_constant <= 1.0 + 1e-9


def test_mikhlin_bump_kernel():
    report = verify_mikhlin(normalized_kernel(MultiplierBump(1, 0.5, 2.0)))
    assert report.passed


def test_mikhlin_scaling_is_linear():
    kernel = normalized_kernel(NarrowGaussian(1, 1.0))
    base = verify_mikhlin(kernel).worst_constant
    for c in (3.0, 100.0):
        worst = verify_mikhlin(kernel.scaled(c)).worst_constant
        assert abs(worst - c * base) < 1e-9 * c


def test_mikhlin_nan_bound_fails():
    # a NaN bound fails the check instead of reading as constant 0
    report = verify_mikhlin(NarrowGaussian(1, 1.0, float("nan")))
    assert not report.passed and math.isnan(report.worst_constant)
    assert all(math.isnan(bound) for _, bound in report.table)


def test_mikhlin_rejects_coarse_grid():
    with pytest.raises(ValueError):
        verify_mikhlin(NarrowGaussian(1, 1.0), grid=MikhlinGrid(step_rel=0.5))


def test_extended_kernel_formula_pointwise():
    base = TruncatedOdd()
    ext = ExtendedKernel(base, 1)
    xy = np.array([[0.7, 0.3], [1.5, -2.0], [0.1, 0.0]])
    vals = ext.spatial(xy)
    for (x, y), v in zip(xy, vals):
        expect = (abs(x) ** -1.0) * math.exp(-math.pi * y * y / (x * x)) \
            * base.spatial(np.array([[x]]))[0]
        assert abs(v - expect) < 1e-14
    # y = 0 plane reduces to |x|^{-1} K(x)
    on_axis = ext.spatial(np.array([[0.5, 0.0]]))[0]
    assert abs(on_axis - 2.0 * base.spatial(np.array([[0.5]]))[0]) < 1e-14


def test_extended_kernel_homogeneity_scaling():
    # |x|^{-1} exp(...) K(x) for K of degree -1 scales by 2^{-2} under x -> 2x
    base = TruncatedOdd(r_in=0.125, r_out=8.0)
    ext = ExtendedKernel(base, 1)
    pts = np.array([[0.5, 0.25], [1.0, -0.5]])
    v1 = ext.spatial(pts)
    v2 = ext.spatial(2.0 * pts)
    assert np.allclose(v2, v1 / 4.0)


def test_extended_kernel_oddness_preserved():
    ext = extend_kernel(TruncatedOdd(), 1)
    pts = np.array([[0.9, 0.4], [2.0, -1.0], [0.3, 0.1]])
    assert np.allclose(ext.spatial(pts), -ext.spatial(pts * np.array([-1.0, 1.0])))


def test_extended_kernel_mikhlin_pass_and_scaling():
    ext = extend_kernel(TruncatedOdd(), 1)
    report = verify_mikhlin(ext, max_order=2)
    assert report.passed
    worst100 = verify_mikhlin(ext.scaled(100.0)).worst_constant
    assert abs(worst100 - 100.0) / 100.0 < 0.05


def reference_hermite_grid(points, dim, scale=1.0, weighted=True):
    # the former construction: one unravel_index over all nodes per axis
    t_nodes, t_w = _gauss_hermite(points)
    if not weighted:
        t_w = t_w * np.exp(t_nodes * t_nodes)
    v_nodes = t_nodes / np.sqrt(math.pi)
    grids = np.meshgrid(*([v_nodes] * dim), indexing="ij")
    v_pts = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.full(len(v_pts), scale * math.pi ** (-dim / 2.0))
    for axis in range(dim):
        idx = np.unravel_index(np.arange(len(v_pts)), (points,) * dim)[axis]
        weights *= t_w[idx]
    return v_pts, weights


@pytest.mark.parametrize("points,dim", [(16, 4), (8, 4), (5, 3), (7, 2), (6, 1)])
def test_tensor_rules_match_unravel_reference(points, dim):
    for scale in (1.0, 0.37):
        for weighted in (True, False):
            new = _hermite_grid(points, dim, scale, weighted)
            old = reference_hermite_grid(points, dim, scale, weighted)
            assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])
    # the Legendre rule of the box fallback, weights from ones
    nodes, w = _gauss_legendre(points)
    pts, weights = _tensor_rule(3.0 * nodes, 3.0 * w, dim)
    old = np.ones(len(pts))
    for axis in range(dim):
        old = old * (3.0 * w)[np.unravel_index(np.arange(len(pts)), (points,) * dim)[axis]]
    assert np.array_equal(weights, old)
    assert np.array_equal(pts[:, -1], np.tile(3.0 * nodes, points ** (dim - 1)))


GAUSS_RULES = {"legendre": (_gauss_legendre, gauss_legendre, 2.0),
               "hermite": (_gauss_hermite, gauss_hermite, math.sqrt(math.pi))}


@pytest.mark.parametrize("kind", sorted(GAUSS_RULES))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 24])
def test_gauss_rules_match_sympy(kind, n):
    rule, exact, total = GAUSS_RULES[kind]
    nodes, weights = rule(n)
    ref_nodes, ref_weights = exact(n, 30)
    order = sorted(range(n), key=lambda i: ref_nodes[i])
    ref_nodes = np.array([float(ref_nodes[i]) for i in order])
    ref_weights = np.array([float(ref_weights[i]) for i in order])
    assert np.max(np.abs(nodes - ref_nodes)) <= 2e-15
    assert np.max(np.abs(weights / ref_weights - 1.0)) <= 1e-13
    # exactly symmetric, with the mass of the weight function
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert abs(weights.sum() - total) <= 1e-14


def mp_legendre_rule(n, x):
    # Newton's method on the recurrence at 40 digits, from a double node
    def value_and_slope(x):
        p_prev, p = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1)

    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        for _ in range(3):
            p, slope = value_and_slope(x)
            x -= p / slope
        _, slope = value_and_slope(x)
        return x, 2 / ((1 - x * x) * slope * slope)


@pytest.mark.parametrize("n", [665, 2396])
def test_gauss_legendre_matches_mpmath_at_the_mikhlin_sizes(n):
    # `numcheck mikhlin extended` builds these two rules.  A node has an
    # error of about one ulp; the weight moves with it by about
    # 2 |dx| / (1 - x^2), which is largest at the ends
    nodes, weights = _gauss_legendre(n)
    for i in (0, 1, 2, n // 2 - 1, n // 2, n - 1):
        x, w = mp_legendre_rule(n, nodes[i])
        assert abs(nodes[i] - x) <= 1.2e-16
        assert abs(weights[i] / w - 1) <= 1e-13 + 4e-16 / (1.0 - nodes[i] ** 2)


@pytest.mark.parametrize("rule", [_gauss_legendre, _gauss_hermite])
def test_gauss_rules_are_cached_read_only(rule):
    nodes, weights = rule(6)
    assert rule(6)[0] is nodes
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0
    for n in (0, -3):
        with pytest.raises(ValueError):
            rule(n)


def test_hermite_rule_is_sound_up_to_its_cap():
    nodes, weights = _gauss_hermite(_HERMITE_MAX_POINTS)
    assert abs(weights.sum() - math.sqrt(math.pi)) <= 1e-14
    divided = weights * np.exp(nodes * nodes)
    assert np.all(np.isfinite(divided)) and np.all(divided > 0)
    with pytest.raises(ValueError, match=f"limited to {_HERMITE_MAX_POINTS} points"):
        _gauss_hermite(_HERMITE_MAX_POINTS + 1)


def test_gaussian_function_matches_three_operand_einsum():
    rng = np.random.default_rng(4)
    for dim in (1, 3, 5):
        a = rng.normal(size=(dim, dim))
        f = GaussianFunction(dim, rng.normal(size=dim), a @ a.T + np.eye(dim), 1.5)
        u = rng.normal(size=(50, dim))
        d = u - f.center
        q = np.einsum("ij,jk,ik->i", d, f.quad_form, d)
        old = 1.5 * np.exp(-math.pi * q)
        # rounding in q moves the value by about pi * q ulps
        assert np.all(np.abs(f(u) - old) <= 1e-14 * (1.0 + math.pi * q) * old)


def test_j0_matches_scipy():
    # scipy, a test-only dependency, is the oracle for J0 and the 2-d bump profile
    from scipy.special import j0

    z = np.linspace(0.0, 300.0, 30_001)
    assert np.max(np.abs(_j0(z) - j0(z))) <= 1e-14
    small = np.array([[0.0, 1e-8], [2.404825557695773, 5.0]])
    assert _j0(small).shape == (2, 2)
    assert np.max(np.abs(_j0(small) - j0(small))) <= 1e-15
    bump = MultiplierBump(2, 0.5, 2.0)
    x = np.random.default_rng(3).normal(scale=4.0, size=(40, 2))
    nodes, w = _gauss_legendre(256)
    rho = 1.25 + 0.75 * nodes
    w = 0.75 * w * bump._profile(rho)
    r = np.linalg.norm(x, axis=1)
    want = 2.0 * math.pi * (j0(2.0 * math.pi * np.outer(r, rho)) @ (w * rho))
    assert np.max(np.abs(bump.spatial(x) - want)) <= 1e-15
