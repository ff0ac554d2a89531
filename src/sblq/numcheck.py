"""Desk-scale numerical verification of the trilinear forms.

Evaluates a form against explicit test functions and kernels, checks that
equivalent data produce the same value after the Jacobian factor |det phi|,
extends kernels to more variables through the Gaussian-in-new-directions
formula, and samples Mikhlin symbol bounds on a logarithmic grid by central
finite differences.  Everything here is floating point; nothing feeds back
into the exact classification path.

Forms are integrated only against their Gaussian weight (the test
functions and the kernel's decay form), whitened; a form without a
nondegenerate one diverges and is refused.  Tensor grids hold at most 2^24
nodes.

Importing this module loads numpy and nothing else: the Gauss-Legendre
rule comes from `rotations._gauss_legendre` and the Gauss-Hermite rule
from numpy's `hermgauss`, both cached, and J0 for `MultiplierBump.spatial`
in dimension 2 from a periodic trapezoid rule (`_j0`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import ceil, inf, pi, prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import EquivalenceMap, SBLDatum, apply_equivalence
from .linalg import Matrix, inverse, kernel_basis
from .rotations import _gauss_legendre


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
    """Rescaling and linear pullback, shared by the kernels with a `scale`."""

    def scaled(self, c: float):
        return replace(self, scale=self.scale * c)

    def pullback(self, m: np.ndarray) -> "_PullbackKernel":
        return _PullbackKernel(self.dim, self, m)


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
    """K(m u) for an invertible matrix m; used by the equivalence check."""

    dim: int
    base: object
    matrix: np.ndarray

    def spatial(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.dim == 0:
            return self.base.spatial(x)
        return self.base.spatial(x @ self.matrix.T)

    def decay_form(self) -> Optional[np.ndarray]:
        inner = getattr(self.base, "decay_form", None)
        if inner is None:
            return None
        return self.matrix.T @ inner() @ self.matrix


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
    datum: SBLDatum
    kernel: object
    functions: Tuple[GaussianFunction, GaussianFunction, GaussianFunction]

    def __post_init__(self):
        if self.kernel is None:
            if self.datum.dims[0] > 0:
                raise ValueError("a kernel is required when the distribution "
                                 "space is nontrivial")
        elif self.kernel.dim != self.datum.dims[0]:
            raise ValueError("kernel dimension must match the distribution space")
        for i, f in enumerate(self.functions, start=1):
            if f.dim != self.datum.dims[i]:
                raise ValueError(f"function {i} has dimension {f.dim}, "
                                 f"datum wants {self.datum.dims[i]}")


@dataclass(frozen=True)
class QuadSpec:
    mode: str = "tensor"          # "tensor" or "mc"
    points: int = 48              # per axis (tensor)
    samples: int = 200_000        # total (mc)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("tensor", "mc"):
            raise ValueError("quadrature mode must be 'tensor' or 'mc'")
        if min(self.points, self.samples) < 1:
            raise ValueError(f"quadrature needs points and samples >= 1, got {self}")


_MC_CHUNK = 65_536
_PROPOSAL_WIDTH = 2.0
_MAX_NODES = 2 ** 24


def _check_nodes(count: int) -> None:
    if count > _MAX_NODES:
        raise ValueError(f"a quadrature grid of {count} nodes exceeds the limit of 2^24")


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
    """`_whitening` of the integrand: the pulled-back test functions and the
    kernel, when it advertises a Gaussian decay form.  Every rule's nodes
    come from it."""
    extra = None
    decay = getattr(spec.kernel, "decay_form", None)
    a_kernel = decay() if decay is not None and spec.datum.dims[0] else None
    if a_kernel is not None:
        p = _np(spec.datum.pi[0])
        extra = p.T @ a_kernel @ p
    return _whitening([_np(spec.datum.pi[i]) for i in (1, 2, 3)], spec.functions, extra)


def _whitening(maps, functions, extra=None):
    """(x0, W, |det W|) with W^T Q W = I for the Gaussian product
    prod_i f_i(P_i x) = c exp(-pi (x-x0)^T Q (x-x0)), Q being the sum of the
    P_i^T A_i P_i and `extra`.  A degenerate Q leaves the form divergent
    and is refused."""
    dim = maps[0].shape[1]
    q = np.zeros((dim, dim))
    lin = np.zeros(dim)
    for p, f in zip(maps, functions):
        if f.dim == 0:
            continue
        q += p.T @ f.quad_form @ p
        lin += p.T @ f.quad_form @ f.center
    if extra is not None:
        q += extra
    eigval, eigvec = np.linalg.eigh(q)
    if eigval.min() <= 1e-9:
        raise ValueError("the form has no nondegenerate Gaussian weight: the test "
                         "functions and the kernel's decay form leave a direction unbounded")
    whiten = eigvec @ np.diag(1.0 / np.sqrt(eigval))
    center = np.linalg.solve(q, lin)
    return center, whiten, abs(float(np.linalg.det(whiten)))


def _tensor_rule(rules, scale: float = 1.0):
    """Tensor product of one-dimensional rules, one (nodes, weights) pair per
    axis: nodes in C order, weights scale * w_0[i_0] * ... * w_{d-1}[i_{d-1}]
    multiplied in axis order.  Grids above `_MAX_NODES` nodes are refused."""
    shape = tuple(len(nodes) for nodes, _ in rules)
    _check_nodes(prod(shape))
    grids = np.meshgrid(*(nodes for nodes, _ in rules), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.full(shape, scale)
    for axis, (_, w) in enumerate(rules):
        weights = weights * w.reshape((-1,) + (1,) * (len(rules) - 1 - axis))
    return pts, weights.ravel()


_HERMITE_MAX_POINTS = 370


@lru_cache(maxsize=None)
def _gauss_hermite(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Hermite rule for
    the weight exp(-t^2), as read-only arrays, from numpy's `hermgauss`.

    Its weights are sound up to 370 points.  At 371 their normalising sum
    overflows and every weight comes out 0; from 372 on they are NaN and
    e^{t^2} overflows at the outer nodes.  Larger counts are refused.
    """
    if n < 1:
        raise ValueError(f"a Gauss rule needs at least one point, got {n}")
    if n > _HERMITE_MAX_POINTS:
        raise ValueError(f"Gauss-Hermite quadrature is limited to "
                         f"{_HERMITE_MAX_POINTS} points per axis, got {n}")
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _hermite_grid(points: int, dim: int, scale: float = 1.0, weighted: bool = True):
    """Tensor Gauss-Hermite nodes for the weight exp(-pi |v|^2) on R^dim,
    and their weights times `scale`.  With weighted=False the weight is
    divided out on each axis, as w e^{t^2}, and the rule integrates g dv."""
    t, w = _gauss_hermite(points)
    if not weighted:
        w = w * np.exp(t * t)
    return _tensor_rule([(t / np.sqrt(pi), w)] * dim, scale * pi ** (-dim / 2.0))


def _whitened_rule(points: int, whitening):
    """The Hermite rule through a whitening, weight divided out: it integrates f dx."""
    center, whiten, vol = whitening
    v_pts, weights = _hermite_grid(points, whiten.shape[1], vol, weighted=False)
    return center + v_pts @ whiten.T, weights


def _tensor_value(spec: FormSpec, points: int) -> float:
    if spec.datum.dim_H > 4:
        raise ValueError("tensor quadrature is limited to total dimension 4")
    pts, weights = _whitened_rule(points, _combined_form(spec))
    return float(np.dot(weights, _integrand(spec)(pts)))


def _mc_value(spec: FormSpec, quad: QuadSpec) -> Tuple[float, float]:
    dim = spec.datum.dim_H
    if dim > 6:
        raise ValueError("Monte Carlo quadrature is limited to total dimension 6")
    f = _integrand(spec)
    # proposal matched to the Gaussian weight, widened a little
    center, whiten, _ = _combined_form(spec)
    shape = (_PROPOSAL_WIDTH / np.sqrt(2.0 * pi)) * whiten
    log_det = np.linalg.slogdet(shape)[1]
    total = 0.0
    total_sq = 0.0
    count = 0
    chunk_index = 0
    remaining = quad.samples
    while remaining > 0:
        n = min(_MC_CHUNK, remaining)
        rng = np.random.Generator(np.random.Philox(
            key=np.array([quad.seed, chunk_index], dtype=np.uint64)))
        xi = rng.standard_normal((n, dim))
        x = center + xi @ shape.T
        log_dens = (-0.5 * np.sum(xi * xi, axis=1)
                    - 0.5 * dim * np.log(2.0 * pi) - log_det)
        vals = f(x) * np.exp(-log_dens)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        count += n
        chunk_index += 1
        remaining -= n
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, float(np.sqrt(var / count))


def eval_form(spec: FormSpec, quad: QuadSpec) -> Tuple[float, float]:
    """Numerical value of the trilinear form with an error estimate.

    Tensor quadrature reports a Richardson-style difference against the
    half-resolution rule; Monte Carlo reports the standard error and is
    bitwise deterministic given the seed (counter-based streams reduced in
    fixed chunk order).
    """
    if spec.datum.dim_H == 0:
        return 0.0, 0.0
    if quad.mode == "tensor":
        value = _tensor_value(spec, quad.points)
        coarse = _tensor_value(spec, max(quad.points // 2, 4))
        return value, abs(value - coarse)
    return _mc_value(spec, quad)


def check_equivalence_invariance(spec: FormSpec, e: EquivalenceMap,
                                 quad: QuadSpec) -> Tuple[float, float]:
    """Residual of the change-of-variables identity under an equivalence.

    Evaluates the transformed datum against pulled-back functions and
    kernel, multiplies by the Jacobian factor |det phi|, taken in floating
    point like every value here, and returns (residual, tolerance) with
    tolerance three times the summed quadrature error estimates.
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


def delta_limit_check(d: SBLDatum, functions, widths=(0.25, 0.125, 0.0625),
                      points: int = 32) -> Tuple[List[float], float]:
    """Compare narrow-Gaussian-kernel values against the kernel-subspace form.

    Splits coordinates along ker Pi_0 and a complement, integrates the
    Gaussian directions on their own scaled rule, and reports the residual
    sequence against the exact-limit value (times the volume factor);
    the residuals must decrease as the width shrinks.  The product grid of
    points^dim_H nodes is held to the node budget before it is formed.
    """
    _check_nodes(points ** d.dim_H)
    k0 = kernel_basis(d.pi[0])
    b = k0.dim
    a = d.dim_H - b
    if a == 0:
        return [0.0] * len(widths), _tensor_value(FormSpec(d, None, tuple(functions)), points)

    pis = [_np(p) for p in d.pi]
    kmat = _np(k0.basis) if b else np.zeros((d.dim_H, 0))
    pi0 = pis[0]
    right = pi0.T @ np.linalg.inv(pi0 @ pi0.T)
    full = np.concatenate([kmat, right], axis=1)
    jac = abs(float(np.linalg.det(full)))

    # whiten the kernel-subspace coordinates against the combined Gaussian
    # form, so one modest tensor rule resolves even scrambled data.
    # Gauss-Hermite in the whitened coordinates: the combined Gaussian is the
    # weight, everything else is the smooth factor
    u_pts, u_weights = _whitened_rule(
        points, _whitening([pis[i] @ kmat for i in (1, 2, 3)], functions))
    base_u = u_pts @ kmat.T
    reference = jac * float(np.dot(u_weights, _product(pis[1:], functions, base_u)))

    # Gauss-Hermite for the scaled kernel directions as well; the factor
    # exp(-pi |t|^2) is the quadrature weight
    z_pts, z_weights = _hermite_grid(points, a)
    residuals = []
    for width in widths:
        shift = width * (z_pts @ right.T)
        x = (base_u[:, None, :] + shift[None, :, :]).reshape(-1, d.dim_H)
        vals = _product(pis[1:], functions, x).reshape(len(u_pts), len(z_pts))
        lam = jac * float(u_weights @ vals @ z_weights)
        residuals.append(abs(lam - reference))
    return residuals, reference
