"""Univariate polynomials over the rationals.

Coefficients are `fractions.Fraction` values stored lowest degree first.
Only the operations the classifier actually needs are provided: ring
arithmetic, exact division with remainder, monic gcd, squarefree part,
evaluation, and Sturm isolation of real roots.  There is deliberately no
general factorization; eigenvalue decisions elsewhere only ever test the
points 0 and 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Immutable rational polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Poly":
        p = cls.one()
        for r in roots:
            p = p * cls((-_frac(r), 1))
        return p

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out, base = Poly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lead = other.degree, other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    # -- analysis helpers -------------------------------------------------

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading()
        return self if lead == 1 else Poly([c / lead for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def squarefree_part(p: Poly) -> Poly:
    """p with repeated roots collapsed: p / gcd(p, p')."""
    if p.degree <= 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def format_poly(p: Poly, var: str = "t") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            mon = var if k == 1 else f"{var}^{k}"
            if c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{c}*{mon}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# -- Sturm isolation of real roots ---------------------------------------


def _sturm_chain(p: Poly) -> List[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_changes(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_root_bound(p: Poly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    lead = abs(p.leading())
    return 1 + max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0)) / lead


def sturm_real_roots(p: Poly, precision) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational isolating intervals for the distinct real roots.

    Each returned interval (lo, hi) has width <= precision, contains exactly
    one real root of p, and the intervals are pairwise disjoint.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    precision = _frac(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    q = squarefree_part(p)
    if q.degree < 1:
        return []
    chain = _sturm_chain(q)
    bound = cauchy_root_bound(q)
    # Endpoints of the initial bracket are not roots (strict Cauchy bound).
    out: List[Tuple[Fraction, Fraction]] = []

    def count(lo: Fraction, hi: Fraction) -> int:
        return _sign_changes(chain, lo) - _sign_changes(chain, hi)

    def refine(lo: Fraction, hi: Fraction) -> None:
        # exactly one root in (lo, hi]; q(lo) != 0
        while hi - lo > precision:
            mid = (lo + hi) / 2
            if q(mid) == 0:
                half = min(precision, hi - lo) / 2
                lo, hi = mid - half / 2, mid + half / 2
                break
            if count(lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        out.append((lo, hi))

    def split(lo: Fraction, hi: Fraction, n: int) -> None:
        if n == 0:
            return
        if n == 1:
            refine(lo, hi)
            return
        mid = (lo + hi) / 2
        while q(mid) == 0:
            mid = (lo + mid) / 2
        left = count(lo, mid)
        split(lo, mid, left)
        split(mid, hi, n - left)

    total = count(-bound, bound)
    split(-bound, bound, total)
    return sorted(out)
