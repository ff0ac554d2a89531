import itertools
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.integrals.quadrature import gauss_legendre

from sblq.core import EquivalenceMap, SBLDatum, apply_equivalence, random_equivalence
from sblq.fixtures import SHIPPED_FIXTURES, bht, fixture_datum, shipped_fixture
from sblq.linalg import Matrix
from sblq.numcheck import (
    ExtendedKernel, FormSpec, GaussianFunction, MikhlinGrid, MultiplierBump,
    NarrowGaussian, QuadSpec, TruncatedOdd, check_equivalence_invariance,
    delta_limit_check, eval_form, extend_kernel, normalized_kernel,
    verify_mikhlin,
)
from sblq.numcheck import _j0
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
    value, err = eval_form(FormSpec(d, kernel, fs))
    closed = gaussian_product_integral(
        [1.0, 0.25, 1.0, 1.0 / 0.5 ** 2], [0.0, 0.5, -1.0, 0.0], 1.0 / 0.5)
    assert abs(value - closed) < 1e-15
    assert 0 < err < 1e-15


def test_eval_form_zero_function():
    d = identity_datum_1d()
    fs = (GaussianFunction.zero(1), GaussianFunction.tensor([0], [1]),
          GaussianFunction.tensor([0], [1]))
    value, _ = eval_form(FormSpec(d, NarrowGaussian(1, 1.0), fs))
    assert value == 0.0


def test_eval_form_kernel_only_direction_factorizes():
    # appending a kernel-only coordinate multiplies the value by the kernel mass
    base = SBLDatum(1, (0, 1, 1, 1),
                    (Matrix.zeros(0, 1), Matrix(1, 1, [1]),
                     Matrix(1, 1, [1]), Matrix(1, 1, [1])))
    fs = (GaussianFunction.tensor([0], [1]),
          GaussianFunction.tensor([Fraction(1, 3)], [1]),
          GaussianFunction.tensor([0], [2]))
    ref, _ = eval_form(FormSpec(base, None, fs))
    extended = SBLDatum(2, (1, 1, 1, 1),
                        (Matrix(1, 2, [0, 1]), Matrix(1, 2, [1, 0]),
                         Matrix(1, 2, [1, 0]), Matrix(1, 2, [1, 0])))
    for mass in (1.0, 0.35):
        val, _ = eval_form(FormSpec(extended, NarrowGaussian(1, 0.9, scale=mass), fs))
        assert abs(val - mass * ref) < 1e-15


def test_trilinearity():
    d = bht()
    kernel = NarrowGaussian(1, 0.8)
    f2 = GaussianFunction.tensor([1], [1])
    f3 = GaussianFunction.tensor([0], [2])
    a = GaussianFunction.tensor([0], [1])
    b = GaussianFunction.tensor([Fraction(1, 2)], [1])
    va, _ = eval_form(FormSpec(d, kernel, (a, f2, f3)))
    vb, _ = eval_form(FormSpec(d, kernel, (b, f2, f3)))
    scaled = GaussianFunction(1, a.center, a.quad_form, 2.5)
    vs, _ = eval_form(FormSpec(d, kernel, (scaled, f2, f3)))
    assert abs(vs - 2.5 * va) < 1e-9
    # additivity checked through amplitude-weighted pieces of a common form
    half = GaussianFunction(1, b.center, b.quad_form, 0.5)
    vhalf, _ = eval_form(FormSpec(d, kernel, (half, f2, f3)))
    assert abs(vhalf + vhalf - vb) < 1e-9


def test_equivalence_invariance_identity_and_scaling():
    d = bht()
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    spec = FormSpec(d, NarrowGaussian(1, 0.8), fs)
    ident = EquivalenceMap(Matrix.identity(2),
                           tuple(Matrix.identity(1) for _ in range(4)))
    residual, tol = check_equivalence_invariance(spec, ident)
    assert residual == 0.0
    doubling = EquivalenceMap(Matrix.identity(2).scale(2),
                              tuple(Matrix.identity(1) for _ in range(4)))
    residual, tol = check_equivalence_invariance(spec, doubling)
    assert residual <= tol


def test_equivalence_invariance_seeded_shears():
    d = bht()
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    spec = FormSpec(d, NarrowGaussian(1, 0.8), fs)
    for seed in (1, 2, 3):
        residual, tol = check_equivalence_invariance(spec, random_equivalence(d, seed))
        assert residual <= tol


def test_quad_is_accepted_and_passed_on_unread(monkeypatch):
    # perfbench's tracer unpacks eval_form's first two positional arguments
    # and reads quad.mode; check_equivalence_invariance must pass quad on
    import sblq.numcheck as numcheck
    spec = FormSpec(bht(), NarrowGaussian(1, 0.8),
                    tuple(GaussianFunction.tensor([0], [1]) for _ in range(3)))
    quad = QuadSpec("mc", samples=20_000, seed=3)
    assert eval_form(spec, quad) == eval_form(spec)
    seen = []
    real = numcheck.eval_form
    monkeypatch.setattr(numcheck, "eval_form", lambda *args: seen.append(args) or real(*args))
    check_equivalence_invariance(spec, random_equivalence(bht(), 1), quad)
    assert [args[1:] for args in seen] == [(quad,), (quad,)]


def test_equivalence_residuals_stay_small_where_the_bound_is_loose():
    # three_twisted's pulled-back weights have cond(Q') of 6e15 to 4e18, so
    # the tolerance exceeds the value; Q' is never formed, and the residual
    # stays below 1e-7 of the value (a value read off the formed Q' has no
    # digit left there, and Q' even rounds to an indefinite matrix)
    d = shipped_fixture("three_twisted")
    fs = tuple(GaussianFunction.tensor([0] * k, [1] * k) for k in d.dims[1:])
    spec = FormSpec(d, NarrowGaussian(5, 0.8), fs)
    value, _ = eval_form(spec)
    for seed in (0, 21, 22, 23):
        residual, tol = check_equivalence_invariance(spec, random_equivalence(d, seed))
        assert residual <= 1e-7 * value < tol


@pytest.mark.parametrize("quad", [QuadSpec("tensor"), QuadSpec("mc")])
def test_divergent_forms_are_refused(quad):
    # every map vanishes on e2, so no Gaussian weight bounds that direction
    # and the form diverges: the stacked maps have rank 1 < dim H = 2, and
    # whatever quad says, no value is reported
    d = SBLDatum(2, (1, 1, 1, 1), tuple(Matrix(1, 2, [1, 0]) for _ in range(4)))
    fs = tuple(GaussianFunction.tensor([0], [1]) for _ in range(3))
    with pytest.raises(ValueError, match="no nondegenerate Gaussian weight"):
        eval_form(FormSpec(d, NarrowGaussian(1, 0.8), fs), quad)


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def exact_gaussian_form(d, kernel_width, centers, widths):
    """The form with kernel NarrowGaussian(dims[0], kernel_width) and test
    functions of these rational centres and widths, from the datum's
    rationals alone: Q, b = sum P_i^T A_i c_i, det Q, Q^-1 b and the exponent
    are exact Fractions, and only the last exp and sqrt are taken, at 40
    digits."""
    n = d.dim_H
    slots = [(d.pi[0], [Fraction(0)] * d.dims[0], [kernel_width] * d.dims[0])]
    slots += list(zip(d.pi[1:], centers, widths))
    m = [[Fraction(0)] * (n + 1) for _ in range(n)]   # [Q | b]
    const = Fraction(0)
    for p, c, w in slots:
        for r in range(p.rows):
            a = 1 / w[r] ** 2
            row = [p[r, j] for j in range(n)] + [c[r]]
            const += a * c[r] ** 2
            for x in range(n):
                for y in range(n + 1):
                    m[x][y] += a * row[x] * row[y]
    b = [row[n] for row in m]
    det = Fraction(1)
    for k in range(n):   # Q is positive definite: no pivoting is needed
        det *= m[k][k]
        for r in range(n):
            if r != k:
                f = m[r][k] / m[k][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    exponent = const - sum(bk * m[k][n] / m[k][k] for k, bk in enumerate(b))
    with mpmath.workdps(40):
        return float(_mp(kernel_width) ** -d.dims[0]
                     * mpmath.exp(-mpmath.pi * _mp(exponent)) / mpmath.sqrt(_mp(det)))


FIXTURES_UP_TO_4 = [n for n in SHIPPED_FIXTURES if shipped_fixture(n).dim_H <= 4]
RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=8)
WIDTHS = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4),
                          Fraction(2)])


@st.composite
def gaussian_forms(draw):
    # a fixture scrambled by unit triangular L U with entries in {-1, 0, 1}
    def unimodular(k):
        lo, up = ([[Fraction(int(i == j)) if cmp(i, j) else Fraction(draw(st.integers(-1, 1)))
                    for j in range(k)] for i in range(k)]
                  for cmp in ((lambda i, j: i <= j), (lambda i, j: i >= j)))
        return Matrix.from_rows(lo, k) @ Matrix.from_rows(up, k)

    d = shipped_fixture(draw(st.sampled_from(FIXTURES_UP_TO_4)))
    d = apply_equivalence(d, EquivalenceMap(unimodular(d.dim_H),
                                            tuple(unimodular(k) for k in d.dims)))
    centers = [[draw(RATIONALS) for _ in range(k)] for k in d.dims[1:]]
    widths = [[draw(WIDTHS) for _ in range(k)] for k in d.dims[1:]]
    return d, draw(WIDTHS), centers, widths


@settings(max_examples=200, deadline=None)
@given(gaussian_forms())
def test_closed_form_matches_an_exact_rational_oracle(case):
    d, kernel_width, centers, widths = case
    fs = tuple(GaussianFunction.tensor(c, w) for c, w in zip(centers, widths))
    value, err = eval_form(FormSpec(d, NarrowGaussian(d.dims[0], float(kernel_width)), fs))
    exact = exact_gaussian_form(d, kernel_width, centers, widths)
    # within the rounding bound, and to 1e-11 relative: scrambled j2 forms
    # far off centre reach 1.1e-12 (bound 3.3e-9), the others stay below 1e-12
    assert abs(value - exact) <= err
    assert abs(value - exact) <= 1e-11 * exact


def test_wide_forms_evaluate():
    # scaling every width by s scales the bht form by s^(dim H - dim H_0) = s;
    # Q's eigenvalues are then about 1e-10 at s = 1e5 and 1e-16 at 1e8
    base, _ = eval_form(FormSpec(bht(), NarrowGaussian(1, 0.8),
                                 tuple(GaussianFunction.tensor([0], [1]) for _ in range(3))))
    for s in (1e4, 1e5, 1e8):
        fs = tuple(GaussianFunction.tensor([0], [s]) for _ in range(3))
        value, err = eval_form(FormSpec(bht(), NarrowGaussian(1, 0.8 * s), fs))
        assert abs(value - s * base) <= 1e-14 * s * base
        assert err < 1e-14 * value


@pytest.mark.parametrize("kernel", [TruncatedOdd(), ExtendedKernel(TruncatedOdd(), 1),
                                    MultiplierBump(1, 0.5, 2.0)])
def test_forms_refuse_kernels_without_a_gaussian_decay_form(kernel):
    d = bht() if kernel.dim == 1 else fixture_datum("coifman_meyer", n=1)
    fs = tuple(GaussianFunction.tensor([0] * k, [1] * k) for k in d.dims[1:])
    assert d.dims[0] == kernel.dim
    with pytest.raises(ValueError, match="has no Gaussian decay form"):
        FormSpec(d, kernel, fs)


def test_a_narrow_gaussian_is_the_slot_zero_gaussian():
    # amplitude scale w^-dim and form I/w^2; a GaussianFunction kernel is
    # taken as it is, and no kernel is the 0-dimensional one of amplitude 1
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    spec = FormSpec(bht(), NarrowGaussian(1, 0.5, 3.0), fs)
    assert spec.kernel.amplitude == 6.0 and np.array_equal(spec.kernel.quad_form, [[4.0]])
    assert spec.slots == (spec.kernel,) + fs
    same = FormSpec(bht(), GaussianFunction.tensor([0], [0.5], 6.0), fs)
    assert eval_form(same) == eval_form(spec)
    flat = SBLDatum(1, (0, 1, 1, 1), (Matrix.zeros(0, 1),) + (Matrix(1, 1, [1]),) * 3)
    kernel = FormSpec(flat, None, fs).kernel
    assert (kernel.dim, kernel.amplitude) == (0, 1.0)
    with pytest.raises(ValueError, match="kernel dimension must match"):
        FormSpec(bht(), GaussianFunction.tensor([0, 0], [1, 1]), fs)


def test_weights_that_round_to_an_indefinite_form_are_refused():
    # a test function whose quadratic form is indefinite: the rank test
    # passes, and the float check names the condition number
    fs = (GaussianFunction(1, np.zeros(1), np.array([[-1.0]])),
          GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([0], [1]))
    with pytest.raises(ValueError, match="not positive definite in float64 .*condition number"):
        eval_form(FormSpec(bht(), NarrowGaussian(1, 0.8), fs))


@pytest.mark.parametrize("name", SHIPPED_FIXTURES)
def test_delta_limit_decreases_on_every_fixture(name):
    d = shipped_fixture(name)
    fs = tuple(GaussianFunction.tensor([0] * k, [1] * k) for k in d.dims[1:])
    residuals, reference = delta_limit_check(d, fs)
    assert residuals[0] > residuals[1] > residuals[2] > 0 and reference > 0


def test_delta_limit_no_kernel_directions():
    d = SBLDatum(1, (0, 1, 1, 1),
                 (Matrix.zeros(0, 1), Matrix(1, 1, [1]),
                  Matrix(1, 1, [1]), Matrix(1, 1, [1])))
    fs = tuple(GaussianFunction.tensor([0], [1]) for _ in range(3))
    residuals, _ = delta_limit_check(d, fs)
    assert residuals == [0.0, 0.0, 0.0]


def test_delta_limit_with_an_injective_pi0():
    # ker Pi_0 = 0: the limit is the product of the functions at 0, here 1,
    # and the form at width w is 1 / sqrt(1 + 3 w^2)
    d = identity_datum_1d()
    fs = tuple(GaussianFunction.tensor([0], [1]) for _ in range(3))
    residuals, reference = delta_limit_check(d, fs)
    assert reference == 1.0
    for w, r in zip((0.25, 0.125, 0.0625), residuals):
        assert abs(r - (1 - (1 + 3 * w * w) ** -0.5)) < 1e-15


def test_delta_limit_bht_decreasing():
    fs = (GaussianFunction.tensor([0], [1]), GaussianFunction.tensor([1], [1]),
          GaussianFunction.tensor([0], [2]))
    residuals, _ = delta_limit_check(bht(), fs)
    assert residuals[0] > residuals[1] > residuals[2] > 0


def test_delta_limit_young_decreasing():
    d = fixture_datum("young")
    fs = tuple(GaussianFunction.tensor([0] * d.dims[i], [1] * d.dims[i])
               for i in (1, 2, 3))
    residuals, _ = delta_limit_check(d, fs)
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


def odd_symbol_by_si(kernel, xi):
    # -2i scale (Si(2 pi r_out xi) - Si(2 pi r_in xi)), at 30 digits
    with mpmath.workdps(30):
        return np.array([-2j * kernel.scale * float(
            mpmath.si(2 * mpmath.pi * kernel.r_out * x) - mpmath.si(2 * mpmath.pi * kernel.r_in * x))
            for x in xi])


def stencil_points(grid, dim):
    # the grid and every point of its +-step_rel difference stencils
    pts = grid.points(dim)
    h = grid.step_rel * np.linalg.norm(pts, axis=1)[:, None]
    return np.concatenate([pts + h * np.array(off)
                           for off in itertools.product((-1.0, 0.0, 1.0), repeat=dim)])


@pytest.mark.parametrize("kernel, grid", [
    (TruncatedOdd(), MikhlinGrid()),
    (TruncatedOdd(), MikhlinGrid(r_max=64.0)),
    (TruncatedOdd(0.125, 8.0, 3.0), MikhlinGrid()),
])
def test_odd_symbol_matches_the_sine_integral(kernel, grid):
    xi = stencil_points(grid, 1)
    want = odd_symbol_by_si(kernel, xi[:, 0])
    assert np.max(np.abs(kernel.symbol(xi) - want)) <= 1e-12 * np.max(np.abs(want))


def test_extended_symbol_at_eta_zero_is_the_odd_symbol():
    base = TruncatedOdd()
    ext = ExtendedKernel(base, 1, 2.5)
    xi = stencil_points(MikhlinGrid(), 1)
    want = base.symbol(xi)
    got = ext.symbol(np.concatenate([xi, np.zeros_like(xi)], axis=1))
    assert np.max(np.abs(got - 2.5 * want)) <= 1e-12 * np.max(np.abs(2.5 * want))


def extended_symbol_by_quadrature(ext, xi):
    # the transform of ext.spatial itself: a Gauss-Legendre rule in y on
    # [-6|x|, 6|x|] (the Gaussian is below e^{-36 pi} outside it) at every
    # node of one in x on each half of the support
    base = ext.base
    half = 0.5 * (base.r_out - base.r_in)
    nx, wx = _gauss_legendre(400)
    t = half * nx + base.r_in + half
    x = np.concatenate([-t, t])[:, None]
    ny, wy = _gauss_legendre(1500)
    y = 6.0 * np.abs(x) * ny
    weights = half * np.concatenate([wx, wx])[:, None] * 6.0 * np.abs(x) * wy
    samples = ext.spatial(np.stack(np.broadcast_arrays(x, y), axis=-1).reshape(-1, 2))
    samples = samples.reshape(y.shape) * weights
    return np.array([np.sum(samples * np.exp(-2j * math.pi * (a * x + b * y))) for a, b in xi])


def test_extended_symbol_matches_a_quadrature_in_y():
    ext = ExtendedKernel(TruncatedOdd(), 1, 0.5)
    xi = np.random.default_rng(7).uniform(-8.32, 8.32, size=(20, 2))
    xi[:3] = [[0.0, 8.32], [8.32, 0.0], [0.125, -8.32]]
    want = extended_symbol_by_quadrature(ext, xi)
    assert np.max(np.abs(ext.symbol(xi) - want)) <= 1e-12 * np.max(np.abs(want))


def test_extended_symbol_resolves_a_steep_damping():
    # with r_in = 0.01 the damping exp(-pi t^2 |eta|^2) is steep where the
    # integrand is not small, and |eta| sizes the rule as |xi| does; the
    # reference is mpmath's adaptive quadrature of the one-dimensional form
    base = TruncatedOdd(0.01, 4.0)
    xi = np.array([[0.125, 0.0], [0.001, 50.0], [0.1, 50.0], [0.001, 200.0], [0.1, 400.0]])

    def form(a, b):
        def f(t):
            return mpmath.sin(2 * mpmath.pi * t * a) * mpmath.exp(-mpmath.pi * (t * b) ** 2) / t
        return -2j * float(mpmath.quad(f, [0.01, 0.012, 0.015, 0.02, 0.05, 0.1, 4.0]))

    want = np.array([form(a, b) for a, b in xi])
    got = ExtendedKernel(base, 1).symbol(xi)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mikhlin_refuses_a_kernel_without_a_symbol():
    kernel = GaussianFunction.tensor([0], [1])
    with pytest.raises(ValueError, match="GaussianFunction has no symbol"):
        verify_mikhlin(kernel)


def test_only_kernels_with_the_damped_transform_extend():
    with pytest.raises(ValueError, match="NarrowGaussian has no damped"):
        ExtendedKernel(NarrowGaussian(1, 1.0), 1)
    with pytest.raises(ValueError, match="MultiplierBump has no damped"):
        extend_kernel(MultiplierBump(1, 0.5, 2.0), 1)


@pytest.mark.parametrize("kernel", [TruncatedOdd(), ExtendedKernel(TruncatedOdd(), 1)])
def test_symbol_calls_above_the_node_budget_are_refused_before_any_rule(kernel):
    # points x nodes of one symbol call stay within 2^24; the rule for
    # r_max = 1e9 would have 2^34 nodes and is neither built nor cached
    cached = _gauss_legendre.cache_info().currsize
    with pytest.raises(ValueError, match="exceeds the limit of 2\\^24"):
        verify_mikhlin(kernel, grid=MikhlinGrid(r_max=1e9))
    assert _gauss_legendre.cache_info().currsize == cached


def test_symbol_rules_above_the_node_cap_are_refused_before_any_rule():
    # r_max = 1e4 asks for 2^18 nodes on 26 points, within the 2^24 budget,
    # but an n-node rule takes O(n^2) time: it would run for minutes.  The
    # cap of 2^13 nodes refuses it at once and caches no rule
    cached = _gauss_legendre.cache_info().currsize
    started = time.perf_counter()
    with pytest.raises(ValueError, match="rule of 262144 nodes, above the limit of 2\\^13"):
        verify_mikhlin(TruncatedOdd(), grid=MikhlinGrid(r_max=1e4))
    assert time.perf_counter() - started < 0.5
    assert _gauss_legendre.cache_info().currsize == cached


GAUSS_RULES = {"legendre": (_gauss_legendre, gauss_legendre, 2.0)}


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


@pytest.mark.parametrize("n", [128, 665, 2396])
def test_gauss_legendre_matches_mpmath_at_the_mikhlin_sizes(n):
    # the Mikhlin symbols of the default odd kernel and its extension take
    # the 128-node rule; 665 and 2396 nodes check the rule well above the
    # sizes any shipped command builds.  A node has an
    # error of about one ulp; the weight moves with it by about
    # 2 |dx| / (1 - x^2), which is largest at the ends
    nodes, weights = _gauss_legendre(n)
    for i in (0, 1, 2, n // 2 - 1, n // 2, n - 1):
        x, w = mp_legendre_rule(n, nodes[i])
        assert abs(nodes[i] - x) <= 1.2e-16
        assert abs(weights[i] / w - 1) <= 1e-13 + 4e-16 / (1.0 - nodes[i] ** 2)


@pytest.mark.parametrize("rule", [_gauss_legendre])
def test_gauss_rules_are_cached_read_only(rule):
    nodes, weights = rule(6)
    assert rule(6)[0] is nodes
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0
    for n in (0, -3):
        with pytest.raises(ValueError):
            rule(n)


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
