"""Singular Brascamp-Lieb data, four-subspace modules, and their duality.

A datum is a tuple of five spaces and four surjective maps
(H; H_0..H_3; Pi_0..Pi_3); its dual object is a module: an ambient space
with four distinguished subspaces, here the column spans of the Pi_i
transposes.  Equivalence of data corresponds to isomorphism of modules,
and isomorphism is certified by an explicit invertible matrix mapping
each subspace span onto its counterpart, verified exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    Matrix, Subspace, block_diag, image_basis, inverse, is_invertible,
    kernel_basis, rank, solve_right,
)


class DatumFormatError(ValueError):
    """Raised for malformed datum files; message carries the field path."""


class DimVector(NamedTuple):
    total: int
    n0: int
    n1: int
    n2: int
    n3: int

    def __add__(self, other):  # componentwise, used for direct sums
        return DimVector(*(a + b for a, b in zip(self, other)))

    def render(self) -> str:
        return f"({self.total}; {self.n0},{self.n1},{self.n2},{self.n3})"


@dataclass(frozen=True)
class SBLDatum:
    """Five dimensions plus the four map matrices pi[i]: h_i x dim_H."""

    dim_H: int
    dims: Tuple[int, int, int, int]
    pi: Tuple[Matrix, Matrix, Matrix, Matrix]

    def __post_init__(self):
        if len(self.dims) != 4 or len(self.pi) != 4:
            raise DatumFormatError("datum needs exactly four maps")
        for i, (h, m) in enumerate(zip(self.dims, self.pi)):
            if m.rows != h or m.cols != self.dim_H:
                raise DatumFormatError(
                    f"pi[{i}] has shape {m.rows}x{m.cols}, expected {h}x{self.dim_H}")

    def kernel0(self) -> Subspace:
        return kernel_basis(self.pi[0])


@dataclass(frozen=True)
class FourModule:
    """Ambient dimension plus the four subspaces."""

    dim_M: int
    sub: Tuple[Subspace, Subspace, Subspace, Subspace]

    def __post_init__(self):
        for i, s in enumerate(self.sub):
            if s.ambient_dim != self.dim_M:
                raise ValueError(f"sub[{i}] lives in Q^{s.ambient_dim}, ambient is Q^{self.dim_M}")

    @property
    def dim_vector(self) -> DimVector:
        return DimVector(self.dim_M, *(s.dim for s in self.sub))


@dataclass(frozen=True)
class EquivalenceMap:
    """Invertible phi on H plus invertible phi_i on each H_i."""

    phi: Matrix
    phi_i: Tuple[Matrix, Matrix, Matrix, Matrix]

    def __post_init__(self):
        if not is_invertible(self.phi):
            raise ValueError("phi is singular")
        for i, m in enumerate(self.phi_i):
            if not is_invertible(m):
                raise ValueError(f"phi_{i} is singular")


@dataclass(frozen=True)
class ExponentTriple:
    """Reciprocal exponents q_i = 1/p_i, each in (0, 1]."""

    q: Tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        for qi in self.q:
            if not (0 < qi <= 1):
                raise ValueError("each 1/p_i must lie in (0, 1]")

    @property
    def sigma(self) -> Fraction:
        return sum(self.q, Fraction(0))


# -- validation ---------------------------------------------------------------


@dataclass
class ValidationReport:
    surjective: Tuple[bool, bool, bool, bool]
    warnings: List[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return all(self.surjective)

    def failures(self) -> List[int]:
        return [i for i, ok in enumerate(self.surjective) if not ok]


def validate_datum(d: SBLDatum) -> ValidationReport:
    """Check surjectivity of each map; zero-dimensional H_i (i>=1) only warns."""
    surj = tuple(rank(d.pi[i]) == d.dims[i] for i in range(4))
    warnings = [f"H_{i} is zero-dimensional" for i in (1, 2, 3) if d.dims[i] == 0]
    return ValidationReport(surjective=surj, warnings=warnings)


# -- duality ------------------------------------------------------------------


def datum_to_module(d: SBLDatum) -> FourModule:
    """Dual module: ambient Q^dim_H with subspaces spanned by the pi[i] rows."""
    subs = tuple(image_basis(d.pi[i].transpose()) for i in range(4))
    return FourModule(d.dim_H, subs)


def module_to_datum(m: FourModule) -> SBLDatum:
    """Dual datum: pi[i] is the transpose of the subspace basis."""
    pis = tuple(m.sub[i].basis.transpose() for i in range(4))
    return SBLDatum(m.dim_M, tuple(p.rows for p in pis), pis)


def apply_equivalence(d: SBLDatum, e: EquivalenceMap) -> SBLDatum:
    """New datum with pi'[i] = phi_i pi[i] phi^{-1}; intertwining holds by construction."""
    if e.phi.rows != d.dim_H:
        raise ValueError("phi acts on the wrong space")
    for i in range(4):
        if e.phi_i[i].rows != d.dims[i]:
            raise ValueError(f"phi_{i} acts on the wrong space")
    phi_inv = inverse(e.phi)
    new_pi = tuple(e.phi_i[i] @ d.pi[i] @ phi_inv for i in range(4))
    out = SBLDatum(d.dim_H, d.dims, new_pi)
    for i in range(4):
        if out.pi[i] @ e.phi != e.phi_i[i] @ d.pi[i]:
            raise AssertionError(f"map {i} does not intertwine")
    return out


def direct_sum(a: FourModule, b: FourModule) -> FourModule:
    """Block-diagonal bases; the dimension vector adds componentwise."""
    subs = []
    for i in range(4):
        ba, bb = a.sub[i].basis, b.sub[i].basis
        subs.append(Subspace._trusted(a.dim_M + b.dim_M, block_diag(ba, bb)))
    return FourModule(a.dim_M + b.dim_M, tuple(subs))


def direct_sum_all(mods: Sequence[FourModule]) -> FourModule:
    out = FourModule(0, tuple(Subspace.zero(0) for _ in range(4)))
    for m in mods:
        out = direct_sum(out, m)
    return out


# -- isomorphism certificates -------------------------------------------------


@dataclass(frozen=True)
class IsoSearch:
    """Outcome of a certificate search.

    verdict is one of 'isomorphic' (certificate attached), 'not-isomorphic'
    (dimension vectors differ: a definite negative), or 'inconclusive'
    (trials exhausted without a certificate).
    """

    verdict: str
    certificate: Optional[Matrix] = None
    trials_used: int = 0

    def __bool__(self) -> bool:
        return self.verdict == "isomorphic"


def module_hom_basis(a: FourModule, b: FourModule) -> List[Matrix]:
    """Basis of {psi : psi(sub_i(a)) contained in sub_i(b) for all i}.

    Constraints are N_i psi B_i = 0 where the rows of N_i annihilate the
    target span; the kernel is computed exactly.
    """
    m, mp = a.dim_M, b.dim_M
    if m == 0 or mp == 0:
        return [] if m or mp else [Matrix.zeros(0, 0)]
    rows: List[List[Fraction]] = []
    for i in range(4):
        B = a.sub[i].basis
        if B.cols == 0:
            continue
        ann = kernel_basis(b.sub[i].basis.transpose()).basis.transpose()  # (mp-k') x mp
        for p in range(ann.rows):
            nrow = ann.row(p)
            for q in range(B.cols):
                bcol = B.col(q)
                rows.append([nrow[r] * bcol[s] for r in range(mp) for s in range(m)])
    if not rows:
        return [Matrix(mp, m, [1 if (r * m + s) == k else 0 for r in range(mp) for s in range(m)])
                for k in range(mp * m)]
    ker = kernel_basis(Matrix.from_rows(rows, cols=mp * m))
    return [Matrix(mp, m, ker.basis.col(j)) for j in range(ker.dim)]


def _maps_spans_onto(psi: Matrix, a: FourModule, b: FourModule) -> bool:
    for i in range(4):
        if a.sub[i].dim != b.sub[i].dim:
            return False
        img = psi @ a.sub[i].basis
        if solve_right(b.sub[i].basis, img) is None:
            return False
    return True


def certificate_valid(psi: Matrix, a: FourModule, b: FourModule) -> bool:
    """Exact check: psi invertible and psi(sub_i(a)) = sub_i(b) for all i."""
    if psi.rows != b.dim_M or psi.cols != a.dim_M or a.dim_M != b.dim_M:
        return False
    return is_invertible(psi) and _maps_spans_onto(psi, a, b)


def module_isomorphic(a: FourModule, b: FourModule, trials: int = 32,
                      seed: int = 0) -> IsoSearch:
    """Search for an isomorphism certificate.

    A returned psi is a proof.  Absence after `trials` seeded random
    rational combinations of the hom-space basis is inconclusive, except
    when the dimension vectors differ (definite non-isomorphism).
    """
    if a.dim_vector != b.dim_vector:
        return IsoSearch("not-isomorphic")
    m = a.dim_M
    if m == 0:
        return IsoSearch("isomorphic", Matrix.zeros(0, 0))
    eye = Matrix.identity(m)
    if _maps_spans_onto(eye, a, b):
        return IsoSearch("isomorphic", eye)
    basis = module_hom_basis(a, b)
    if not basis:
        return IsoSearch("inconclusive", trials_used=0)
    for t in range(trials):
        rng = random.Random((seed << 24) ^ (t + 1))
        coeffs = [rng.randint(-9, 9) for _ in basis]
        psi = Matrix(m, m, [sum(c * bk.data[idx] for c, bk in zip(coeffs, basis))
                            for idx in range(m * m)])
        if is_invertible(psi) and _maps_spans_onto(psi, a, b):
            return IsoSearch("isomorphic", psi, trials_used=t + 1)
    return IsoSearch("inconclusive", trials_used=trials)


# -- seeded equivalence generation (used by tests and the round-trip audit) ---


def _unimodular(n: int, rng: random.Random, spread: int = 2) -> Matrix:
    if n == 0:
        return Matrix.zeros(0, 0)
    lo = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    up = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lo[i][j] = Fraction(rng.randint(-spread, spread))
            up[j][i] = Fraction(rng.randint(-spread, spread))
    return Matrix.from_rows(lo) @ Matrix.from_rows(up)


def random_equivalence(d: SBLDatum, seed: int) -> EquivalenceMap:
    """Seeded random equivalence with unimodular integer factors."""
    rng = random.Random(seed)
    phi = _unimodular(d.dim_H, rng)
    phis = tuple(_unimodular(h, rng) for h in d.dims)
    return EquivalenceMap(phi, phis)


# -- datum wire format --------------------------------------------------------


def _scalar_to_str(x: Fraction) -> str:
    return str(x)


def _parse_scalar(text, where: str) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise DatumFormatError(f"{where}: expected a rational string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise DatumFormatError(f"{where}: zero denominator in {text!r}") from None
    except ValueError:
        raise DatumFormatError(f"{where}: malformed rational {text!r}") from None


def datum_to_dict(d: SBLDatum) -> Dict:
    return {
        "dim_H": d.dim_H,
        "dims": list(d.dims),
        "pi": [[[_scalar_to_str(m[i, j]) for j in range(m.cols)]
                for i in range(m.rows)] for m in d.pi],
    }


def datum_from_dict(data: Dict) -> SBLDatum:
    if not isinstance(data, dict):
        raise DatumFormatError("datum: expected an object")
    try:
        dim_H = int(data["dim_H"])
        dims = [int(x) for x in data["dims"]]
        pis_raw = data["pi"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatumFormatError(f"datum: missing or malformed field ({exc})") from None
    if len(dims) != 4 or not isinstance(pis_raw, list) or len(pis_raw) != 4:
        raise DatumFormatError("datum: dims and pi must each have four entries")
    pis = []
    for i, rows in enumerate(pis_raw):
        if not isinstance(rows, list):
            raise DatumFormatError(f"pi[{i}]: expected a list of rows")
        if len(rows) != dims[i]:
            raise DatumFormatError(f"pi[{i}]: {len(rows)} rows, dims says {dims[i]}")
        flat = []
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim_H:
                raise DatumFormatError(f"pi[{i}][{r}]: expected {dim_H} entries")
            for c, cell in enumerate(row):
                flat.append(_parse_scalar(cell, f"pi[{i}][{r}][{c}]"))
        pis.append(Matrix(dims[i], dim_H, flat))
    return SBLDatum(dim_H, tuple(dims), tuple(pis))
