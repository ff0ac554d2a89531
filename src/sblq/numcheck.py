"""Desk-scale numerical verification of the trilinear forms.

Evaluates a form against explicit test functions and kernels, checks that
equivalent data produce the same value after the Jacobian factor |det phi|,
extends kernels to more variables through the Gaussian-in-new-directions
formula, and samples Mikhlin symbol bounds on a logarithmic grid by central
finite differences.  Everything here is floating point; nothing feeds back
into the exact classification path.

Every form has a Gaussian kernel or none, so its integrand is one Gaussian
on H and the form is evaluated in closed form, at any dimension; a form
whose Gaussian weight leaves a direction unbounded diverges and is refused.
The windowed symbol transforms hold at most 2^24 nodes.

Importing this module loads numpy and nothing else: the Gauss-Legendre
rule comes from `rotations._gauss_legendre`, cached, and J0 for
`MultiplierBump.spatial` in dimension 2 from a periodic trapezoid rule
(`_j0`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, inf, pi, prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import EquivalenceMap, SBLDatum, apply_equivalence
from .linalg import Matrix, inverse, kernel_basis, rank, vstack
from .rotations import _gauss_legendre


_EPS = float(np.finfo(float).eps)


def _np(m: Matrix) -> np.ndarray:
    return np.array([float(x) for x in m.data],
                    dtype=float).reshape(m.rows, m.cols)


# -- test functions -------------------------------------------------------------


@dataclass(frozen=True)
class GaussianFunction:
    """amplitude * exp(-pi (u-c)^T A (u-c)); closed under linear pullback."""

    dim: int
    center: np.ndarray
    quad_form: np.ndarray
    amplitude: float = 1.0

    @classmethod
    def tensor(cls, centers: Sequence, widths: Sequence,
               amplitude: float = 1.0) -> "GaussianFunction":
        c = np.array([float(Fraction(x)) for x in centers], dtype=float)
        w = np.array([float(Fraction(x)) for x in widths], dtype=float)
        if np.any(w <= 0):
            raise ValueError("widths must be positive")
        return cls(len(c), c, np.diag(1.0 / w ** 2), amplitude)

    @classmethod
    def zero(cls, dim: int) -> "GaussianFunction":
        return cls(dim, np.zeros(dim), np.eye(dim), 0.0)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.full(len(np.atleast_2d(u)), self.amplitude)
        u = np.atleast_2d(u) - self.center
        return self.amplitude * np.exp(-pi * np.einsum("ij,ij->i", u @ self.quad_form, u))

    def pullback(self, m: np.ndarray) -> "GaussianFunction":
        """The function u -> f(m u) for invertible m."""
        if self.dim == 0:
            return self
        new_center = np.linalg.solve(m, self.center)
        return GaussianFunction(self.dim, new_center, m.T @ self.quad_form @ m,
                                self.amplitude)


# -- kernels ---------------------------------------------------------------------


class _Kernel:
    """Rescaling, shared by the kernels with a `scale`."""

    def scaled(self, c: float):
        return replace(self, scale=self.scale * c)


@dataclass(frozen=True)
class NarrowGaussian(_Kernel):
    """K(u) = scale * w^{-dim} exp(-pi |u|^2 / w^2); symbol exp(-pi w^2 |xi|^2).

    Integrates to `scale`; the Mikhlin bounds hold with constant 1 for
    orders up to 2 at scale 1.  The width must be finite and positive, with
    w^{-dim} and the decay form's w^{-2} finite floats.
    """

    dim: int
    width: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.width < inf:
            raise ValueError(f"kernel width must be positive and finite, got {self.width}")
        power = max(self.dim, 2)
        try:
            float(self.width) ** -power
        except OverflowError:
            raise ValueError(f"kernel width {self.width} is too small: "
                             f"width^-{power} overflows") from None

    def spatial(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        r2 = np.sum(x * x, axis=1)
        return self.scale * self.width ** (-self.dim) * np.exp(-pi * r2 / self.width ** 2)

    def symbol(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(xi)
        return self.scale * np.exp(-pi * self.width ** 2 * np.sum(xi * xi, axis=1))

    def decay_form(self) -> np.ndarray:
        """Quadratic form A with |K(u)| ~ exp(-pi u^T A u), a part of the
        Gaussian weight of every form with this kernel."""
        return np.eye(self.dim) / self.width ** 2

    def pullback(self, m: np.ndarray) -> "_PullbackKernel":
        return _PullbackKernel(self.dim, self, m)


@dataclass(frozen=True)
class MultiplierBump(_Kernel):
    """Kernel given by a smooth radial symbol bump supported on an annulus."""

    dim: int
    r_lo: float
    r_hi: float
    scale: float = 1.0

    def _profile(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        inside = (rho > self.r_lo) & (rho < self.r_hi)
        t = rho[inside]
        out[inside] = np.exp(-1.0 / ((t - self.r_lo) * (self.r_hi - t)))
        return out

    def symbol(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(xi)
        return self.scale * self._profile(np.linalg.norm(xi, axis=1))

    def spatial(self, x: np.ndarray) -> np.ndarray:
        # radial inverse transform by quadrature (dimensions 1 and 2)
        x = np.atleast_2d(x)
        nodes, w = _gauss_legendre(256)
        rho = 0.5 * (self.r_hi - self.r_lo) * nodes + 0.5 * (self.r_hi + self.r_lo)
        w = 0.5 * (self.r_hi - self.r_lo) * w * self._profile(rho)
        if self.dim == 1:
            return self.scale * 2.0 * (np.cos(2.0 * pi * np.outer(x[:, 0], rho)) @ w)
        if self.dim == 2:
            r = np.linalg.norm(x, axis=1)
            return self.scale * 2.0 * pi * (_j0(2.0 * pi * np.outer(r, rho)) @ (w * rho))
        raise NotImplementedError("spatial profile implemented for dim <= 2")


def _j0(z: np.ndarray) -> np.ndarray:
    """The Bessel function J0 at the entries z >= 0: the mean of
    cos(z sin t) over N equally spaced angles t in [0, 2 pi), N = ceil(1.2
    max z) + 40.  The periodic trapezoid rule is off by 2 times the sum of
    J_{kN}(z) over the even k N > 0, and every such J_{kN}(z) lies below
    rounding once N exceeds 1.2 z + 40."""
    z = np.asarray(z, dtype=float)
    n = ceil(1.2 * float(z.max(initial=0.0))) + 40
    return sum(np.cos(z * s) for s in np.sin(2.0 * pi * np.arange(n) / n)) / n


@dataclass(frozen=True)
class TruncatedOdd(_Kernel):
    """The odd homogeneous profile 1/t on r_in <= |t| <= r_out (dimension 1)."""

    r_in: float = 0.25
    r_out: float = 4.0
    scale: float = 1.0
    dim: int = 1

    def spatial(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)[:, 0]
        out = np.zeros_like(x)
        mask = (np.abs(x) >= self.r_in) & (np.abs(x) <= self.r_out)
        out[mask] = self.scale / x[mask]
        return out


@dataclass(frozen=True)
class ExtendedKernel(_Kernel):
    """K'(x, y) = scale * |x|^{-extra} exp(-pi |y|^2/|x|^2) K(x).

    Extends a spatially evaluable kernel on R^base_dim by `extra` Gaussian
    directions; the scale is what the Mikhlin pass chooses to make the
    sampled symbol bounds hold with constant 1.
    """

    base: object
    extra: int
    scale: float = 1.0

    @property
    def dim(self) -> int:
        return self.base.dim + self.extra

    def spatial(self, xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        x = xy[:, :self.base.dim]
        y = xy[:, self.base.dim:]
        rx = np.linalg.norm(x, axis=1)
        out = np.zeros(len(xy))
        mask = rx > 0
        ratio = np.sum(y[mask] ** 2, axis=1) / rx[mask] ** 2
        out[mask] = (self.scale * rx[mask] ** (-self.extra)
                     * np.exp(-pi * ratio) * self.base.spatial(x[mask]))
        return out


@dataclass(frozen=True)
class _PullbackKernel:
    """K(m u) for a Gaussian kernel K and an invertible matrix m; used by
    the equivalence check."""

    dim: int
    base: NarrowGaussian
    matrix: np.ndarray

    def spatial(self, x: np.ndarray) -> np.ndarray:
        return self.base.spatial(np.atleast_2d(x) @ self.matrix.T)

    def decay_form(self) -> np.ndarray:
        return self.matrix.T @ self.base.decay_form() @ self.matrix


def normalized_kernel(kernel):
    """Rescale a kernel so its sampled Mikhlin constant is exactly one."""
    return kernel.scaled(1.0 / verify_mikhlin(kernel).worst_constant)


def extend_kernel(kernel, extra: int) -> ExtendedKernel:
    """Extend a spatially evaluable kernel by Gaussian directions, rescaled
    so that the sampled Mikhlin constant of the extension equals one."""
    if getattr(kernel, "spatial", None) is None:
        raise ValueError("extension needs a spatially evaluable kernel")
    return normalized_kernel(ExtendedKernel(kernel, extra))


# -- Mikhlin symbol sampling ------------------------------------------------------


@dataclass(frozen=True)
class MikhlinGrid:
    r_min: float = 0.125
    r_max: float = 8.0
    radii: int = 13
    directions: int = 8
    step_rel: float = 0.02

    def points(self, dim: int) -> np.ndarray:
        rs = np.exp(np.linspace(np.log(self.r_min), np.log(self.r_max), self.radii))
        if dim == 1:
            dirs = np.array([[1.0], [-1.0]])
        elif dim == 2:
            ang = 2.0 * pi * np.arange(self.directions) / self.directions
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        else:
            raise NotImplementedError("symbol grids implemented for dim <= 2")
        return np.concatenate([r * dirs for r in rs])


@dataclass
class MikhlinReport:
    passed: bool
    worst_constant: float
    max_order: int
    table: List[Tuple[Tuple[int, ...], float]] = field(default_factory=list)

    def render(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return f"{verdict}: worst constant {self.worst_constant:.6g}"


def _multi_indices(dim: int, max_order: int):
    if dim == 1:
        return [(a,) for a in range(max_order + 1)]
    out = []
    for a in range(max_order + 1):
        for b in range(max_order + 1 - a):
            out.append((a, b))
    return out


def _stencil_offsets(alpha: Tuple[int, ...]):
    """Central-difference stencil: list of (coefficient, offset vector in h units)."""
    terms = [(1.0, ())]
    for axis, order in enumerate(alpha):
        if order == 0:
            new = [(c, off + (0,)) for c, off in terms]
        elif order == 1:
            new = []
            for c, off in terms:
                new.append((c * 0.5, off + (1,)))
                new.append((-c * 0.5, off + (-1,)))
        elif order == 2:
            new = []
            for c, off in terms:
                new.append((c, off + (1,)))
                new.append((-2.0 * c, off + (0,)))
                new.append((c, off + (-1,)))
        else:
            raise ValueError("orders above 2 are not sampled")
        terms = new
    return terms


_MAX_NODES = 2 ** 24


def _tensor_rule(rules):
    """Tensor product of one-dimensional rules, one (nodes, weights) pair per
    axis: nodes in C order, weights w_0[i_0] * ... * w_{d-1}[i_{d-1}]
    multiplied in axis order.  Grids above `_MAX_NODES` nodes are refused
    before any node is formed."""
    shape = tuple(len(nodes) for nodes, _ in rules)
    if prod(shape) > _MAX_NODES:
        raise ValueError(f"a quadrature grid of {prod(shape)} nodes exceeds the limit of 2^24")
    grids = np.meshgrid(*(nodes for nodes, _ in rules), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(shape)
    for axis, (_, w) in enumerate(rules):
        weights = weights * w.reshape((-1,) + (1,) * (len(rules) - 1 - axis))
    return pts, weights.ravel()


def _numeric_symbol_factory(kernel, max_freq: float):
    """Windowed discrete transform of a spatial sample, for 1-d kernels and
    their extension by one Gaussian direction.

    Each axis gets a Gauss-Legendre rule sized to the largest frequency the
    caller will sample: ten nodes per oscillation (at least 800) on the base
    window [-r_out, r_out], eight (at least 900) on the Gaussian one, 4.5
    times as wide.  One contraction of the weighted sample with the per-axis
    phases gives the symbol, complex valued (odd kernels have purely
    imaginary symbols).
    """
    base = getattr(kernel, "base", kernel)
    if base.dim != 1 or kernel.dim > 2:
        raise NotImplementedError("numeric symbols implemented for the shipped kernel kinds")
    r_out = getattr(base, "r_out", 4.0)
    rules = []
    for stretch, per_wave, least in ((1.0, 10, 800), (4.5, 8, 900))[:kernel.dim]:
        half = stretch * r_out
        nodes, w = _gauss_legendre(max(least, int(per_wave * max_freq * 2 * half)))
        rules.append((half * nodes, half * w))
    pts, weights = _tensor_rule(rules)
    samples = (kernel.spatial(pts) * weights).reshape([len(n) for n, _ in rules])
    axes = list(range(1, kernel.dim + 1))

    def symbol(xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(xi)
        phases = []
        for k, (nodes, _) in enumerate(rules):
            phases += [np.exp(-2j * pi * np.outer(xi[:, k], nodes)), [0, k + 1]]
        return np.einsum(*phases, samples, axes, [0], optimize=True)

    return symbol


def verify_mikhlin(kernel, max_order: int = 2,
                   grid: Optional[MikhlinGrid] = None) -> MikhlinReport:
    """Sample |xi|^{|alpha|} |d^alpha symbol(xi)| over a logarithmic grid.

    Derivatives are central finite differences with step tied to |xi|;
    passes iff the worst sampled constant is at most 1 (after whatever
    normalization the kernel carries), so a NaN bound fails.
    """
    if not 0 <= max_order <= 2:
        raise ValueError(f"sampled orders are limited to 0 <= |alpha| <= 2, got {max_order}")
    grid = grid or MikhlinGrid()
    if grid.step_rel >= 0.25:
        raise ValueError(f"grid too coarse: relative step {grid.step_rel} "
                         "exceeds a quarter of the sample radius")
    if getattr(kernel, "symbol", None) is not None:
        symbol = kernel.symbol
    else:
        max_freq = grid.r_max * (1.0 + 2.0 * grid.step_rel)
        symbol = _numeric_symbol_factory(kernel, max_freq)
    pts = grid.points(kernel.dim)
    alphas = _multi_indices(kernel.dim, max_order)
    # assemble every stencil sample in one batch per alpha
    table = []
    radii = np.linalg.norm(pts, axis=1)
    for alpha in alphas:
        order = sum(alpha)
        h = grid.step_rel * radii
        acc = np.zeros(len(pts), dtype=complex)
        for coeff, off in _stencil_offsets(alpha):
            shifted = pts + h[:, None] * np.array(off, dtype=float)
            acc = acc + coeff * np.asarray(symbol(shifted), dtype=complex)
        deriv = acc / h ** order
        bound = np.max(radii ** order * np.abs(deriv))
        table.append((alpha, float(bound)))
    # np.max keeps a NaN bound, which then fails the comparison
    worst = float(np.max([b for _, b in table]))
    return MikhlinReport(worst <= 1.0 + 1e-9, worst, max_order, table)


# -- form evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class FormSpec:
    """A form whose kernel, if any, has a Gaussian decay form: the integrand
    is then one Gaussian on H, and `eval_form` integrates it in closed
    form.  Other kernels (`TruncatedOdd`, `ExtendedKernel`,
    `MultiplierBump`) are refused."""

    datum: SBLDatum
    kernel: object
    functions: Tuple[GaussianFunction, GaussianFunction, GaussianFunction]

    def __post_init__(self):
        if self.kernel is None:
            if self.datum.dims[0] > 0:
                raise ValueError("a kernel is required when the distribution "
                                 "space is nontrivial")
        elif not hasattr(self.kernel, "decay_form"):
            raise ValueError(f"{type(self.kernel).__name__} has no Gaussian decay form; "
                             "forms are evaluated only with Gaussian kernels")
        elif self.kernel.dim != self.datum.dims[0]:
            raise ValueError("kernel dimension must match the distribution space")
        for i, f in enumerate(self.functions, start=1):
            if f.dim != self.datum.dims[i]:
                raise ValueError(f"function {i} has dimension {f.dim}, "
                                 f"datum wants {self.datum.dims[i]}")


@dataclass(frozen=True)
class QuadSpec:
    """Accepted by `eval_form` and `check_equivalence_invariance` and not
    read: every form is evaluated in closed form.  It stays only because
    perfbench builds it; the next benchmark change (ROADMAP item 10)
    removes it."""

    mode: str = "tensor"
    points: int = 48
    samples: int = 200_000
    seed: int = 0


def _product(maps, functions, x: np.ndarray) -> np.ndarray:
    vals = np.ones(len(x))
    for p, f in zip(maps, functions):
        vals = vals * f(x @ p.T)
    return vals


def _integrand(spec: FormSpec):
    pis = [_np(p) for p in spec.datum.pi]

    def f(x: np.ndarray) -> np.ndarray:
        vals = _product(pis[1:], spec.functions, x)
        if spec.datum.dims[0] > 0:
            vals = vals * spec.kernel.spatial(x @ pis[0].T)
        elif spec.kernel is not None:
            vals = vals * getattr(spec.kernel, "scale", 1.0)
        return vals

    return f


def _combined_form(spec: FormSpec):
    """`_whitening` of the whole integrand: the pulled-back test functions
    and the kernel's decay form.  Every slot of nonzero dimension carries a
    positive-definite Gaussian factor, so the form converges iff the
    stacked maps have full column rank; that is decided exactly, on the
    datum's rationals."""
    d = spec.datum
    if rank(vstack(*d.pi)) < d.dim_H:
        raise ValueError("the form has no nondegenerate Gaussian weight: the test "
                         "functions and the kernel's decay form leave a direction unbounded")
    decay = spec.kernel.decay_form() if d.dims[0] else np.zeros((0, 0))
    forms = [(decay, np.zeros(d.dims[0]))] + [(f.quad_form, f.center) for f in spec.functions]
    return _whitening([_np(p) for p in d.pi], forms)


def _whitening(maps, forms):
    """(x0, |det W|, bound) for the Gaussian product
    prod_i exp(-pi (P_i x - c_i)^T A_i (P_i x - c_i)) = exp(-pi E) exp(-pi (x-x0)^T Q (x-x0)),
    one (A_i, c_i) per map P_i (none for a slot of dimension 0), Q being the
    sum of the P_i^T A_i P_i.

    Q is not formed.  With A_i = S_i^T S_i (Cholesky), Q = F^T F for the
    stacked rows F = [S_i P_i], x0 is the least-squares solution of
    F x = g = [S_i c_i], E = |F x0 - g|^2, and the singular values s of F
    give W = V diag(1/s) with W^T Q W = I, so |det W| = det(Q)^(-1/2) =
    1/prod(s).  Rounding in Q and E moves exp(-pi E) |det W| by at most
    bound = eps dim (cond(Q) + pi E + 1) relative, to first order; see
    `eval_form`.  An A_i that rounds to a matrix that is not positive
    definite, or an F whose singular values round to 0, is refused with
    its condition number."""
    rows, targets = [], []
    for p, (a, c) in zip(maps, forms):
        if not len(a):
            continue
        try:
            s = np.linalg.cholesky(a).T
        except np.linalg.LinAlgError:
            _refuse(np.linalg.cond(a))
        rows.append(s @ p)
        targets.append(s @ c)
    f, g = np.vstack(rows), np.concatenate(targets)
    center, _, _, sv = np.linalg.lstsq(f, g, rcond=None)
    lo = sv.min(initial=inf)   # inf, and cond 0, on a space of dimension 0
    if not lo > 0:
        _refuse(inf)
    cond = float((sv.max(initial=0.0) / lo) ** 2)
    exponent = float(np.sum((f @ center - g) ** 2))
    return center, float(np.prod(1.0 / sv)), _EPS * len(sv) * (cond + pi * exponent + 1.0)


def _refuse(cond: float):
    raise ValueError(f"the form's Gaussian weight rounds to a quadratic form that is not "
                     f"positive definite in float64 (condition number {cond:.3g})")


def eval_form(spec: FormSpec, quad: Optional[QuadSpec] = None) -> Tuple[float, float]:
    """The trilinear form in closed form, with a rounding bound.

    The integrand is c exp(-pi (x-x0)^T Q (x-x0)), so the form equals the
    integrand at x0 times |det W| = det(Q)^(-1/2) (`_whitening`).  The
    error estimate is eps dim_H (cond(Q) + pi E + 1) |value|, eps = 2^-52
    and E the exponent at x0.  To first order it bounds
      - the change of det(Q)^(-1/2) under a symmetric dQ with
        ||dQ|| <= 2 eps ||Q||: half of |tr(Q^-1 dQ)| <= dim_H cond(Q) eps;
      - a relative error of dim_H eps in E, which moves exp(-pi E) by
        pi E dim_H eps, and dim_H eps more for the exponentials and
        products of the integrand.
    x0, where the integrand is stationary, moves the value only to second
    order.  `quad` is not read (see `QuadSpec`).
    """
    if spec.datum.dim_H == 0:
        return 0.0, 0.0
    center, vol, bound = _combined_form(spec)
    value = float(_integrand(spec)(center[None, :])[0]) * vol
    return value, bound * abs(value)


def check_equivalence_invariance(spec: FormSpec, e: EquivalenceMap,
                                 quad: Optional[QuadSpec] = None) -> Tuple[float, float]:
    """Residual of the change-of-variables identity under an equivalence.

    Evaluates the transformed datum against pulled-back functions and
    kernel, multiplies by the Jacobian factor |det phi|, taken in floating
    point like every value here, and returns (residual, tolerance) with
    tolerance three times the summed rounding bounds.  `quad` is passed on
    to `eval_form` unread.
    """
    d2 = apply_equivalence(spec.datum, e)
    jac = abs(float(np.linalg.det(_np(e.phi))))
    phi_inv = [_np(inverse(e.phi_i[i])) for i in range(4)]
    funcs2 = tuple(spec.functions[i - 1].pullback(phi_inv[i]) for i in (1, 2, 3))
    kernel2 = spec.kernel.pullback(phi_inv[0]) if spec.datum.dims[0] else spec.kernel
    spec2 = FormSpec(d2, kernel2, funcs2)
    v1, e1 = eval_form(spec, quad)
    v2, e2 = eval_form(spec2, quad)
    return abs(v2 - jac * v1), 3.0 * (e1 + e2 + 1e-12)


def delta_limit_check(d: SBLDatum, functions,
                      widths=(0.25, 0.125, 0.0625)) -> Tuple[List[float], float]:
    """Compare narrow-Gaussian-kernel values against the kernel-subspace form.

    Evaluates the form with kernel `NarrowGaussian(dims[0], w)` at each
    width w.  As w -> 0 it tends to the form on ker Pi_0 times the volume
    factor |det [K | Pi_0^+]| of the split of H into ker Pi_0 and a
    complement.  All are taken in closed form.  Returns the residuals
    against that limit, which must decrease as the width shrinks, and the
    limit.
    """
    functions = tuple(functions)
    values = [eval_form(FormSpec(d, NarrowGaussian(d.dims[0], w), functions))[0]
              for w in widths]
    pis = [_np(p) for p in d.pi]
    kmat = _np(kernel_basis(d.pi[0]).basis)
    right = pis[0].T @ np.linalg.inv(pis[0] @ pis[0].T)
    jac = abs(float(np.linalg.det(np.concatenate([kmat, right], axis=1))))
    center, vol, _ = _whitening([pis[i] @ kmat for i in (1, 2, 3)],
                                [(f.quad_form, f.center) for f in functions])
    reference = jac * float(_product(pis[1:], functions, (kmat @ center)[None, :])[0]) * vol
    return [abs(v - reference) for v in values], reference
