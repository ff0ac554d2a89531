"""Singular Brascamp-Lieb data, four-subspace modules, and their duality.

A datum is a tuple of five spaces and four surjective maps
(H; H_0..H_3; Pi_0..Pi_3); its dual object is a module: an ambient space
with four distinguished subspaces, here the column spans of the Pi_i
transposes.  Equivalence of data corresponds to isomorphism of modules.
The non-Hoelder matcher certifies an isomorphism by an explicit invertible
matrix drawn from the Hom space; `certificate_valid` checks exactly, over
the integers, that it maps each subspace span onto its counterpart.  The
reported certificate, the inverse of that matrix, is built only when read.
`module_hom_basis` solves the Hom space column by column: a source basis
vector along a coordinate axis confines that column of psi to a target
subspace, so only the remaining, coupled constraints go into one exact
kernel, on the coordinates of those confined columns.  Its basis is the
reduced one of the full system in the entries of psi, which depends on
the space alone, so the certificates drawn from it do not depend on how
it was solved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .linalg import (
    Matrix, Subspace, _echelon_key, _int_cols, _int_kernel, block_diag,
    image_basis, inverse, is_invertible, kernel_basis,
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

    @cached_property
    def kernel0(self) -> Subspace:
        return kernel_basis(self.pi[0])

    @cached_property
    def module(self) -> "FourModule":
        """The dual module, `datum_to_module(self)`, computed once."""
        return datum_to_module(self)


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

    @cached_property
    def _annihilators(self) -> Tuple[List[List[int]], ...]:
        """Per slot, integer rows whose common kernel is that subspace."""
        kers = [kernel_basis(s.basis.transpose()).basis for s in self.sub]
        return tuple(_int_cols(k) for k in kers)


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
    """Check surjectivity of each map, its rank being the dimension of its
    row span in `d.module`; zero-dimensional H_i (i>=1) only warns."""
    surj = tuple(s.dim == h for s, h in zip(d.module.sub, d.dims))
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


def module_hom_basis(a: FourModule, b: FourModule) -> List[Matrix]:
    """Basis of {psi : psi(sub_i(a)) contained in sub_i(b) for all i}.

    The constraints are N_i psi x = 0 for the basis columns x of sub_i(a),
    where the integer rows of N_i annihilate sub_i(b).  They are solved in
    two stages.  A basis column that is a multiple of e_j pins column j of
    psi into sub_i(b), so psi_j = P_j t_j with P_j a basis of the
    intersection of the subspaces pinning j: that subspace's own basis for
    one slot; for several, B s for the kernel vectors s of the other slots'
    annihilator rows times B, the first slot's basis; and all of Q^dim b
    for none (computed once per slot set).  The other basis columns x give
    the rows N_i sum_j x_j P_j t_j = 0, solved by one exact kernel on the
    sum of the dim P_j unknowns.

    The result is the reduced kernel basis of the whole system in the
    row-major entries of psi: one element per free entry f, equal to 1 at
    f and 0 at the other free entries.  That basis depends on the space
    alone: with the coordinates reversed it is the reduced row echelon
    form of the space, read off `_echelon_key`.
    """
    m, mp = a.dim_M, b.dim_M
    if m == 0 or mp == 0:
        return [] if m or mp else [Matrix.zeros(0, 0)]
    pinning: List[List[int]] = [[] for _ in range(m)]
    coupled: List[Tuple[int, List[int]]] = []
    for i in range(4):
        for x in _int_cols(a.sub[i].basis):
            support = [j for j, v in enumerate(x) if v]
            if len(support) == 1:
                pinning[support[0]].append(i)
            else:
                coupled.append((i, x))
    spans: Dict[Tuple[int, ...], List[List[int]]] = {}
    for slots in map(tuple, pinning):
        if slots in spans:
            continue
        if not slots:
            spans[slots] = [[int(r == c) for r in range(mp)] for c in range(mp)]
        elif len(slots) == 1:
            spans[slots] = _int_cols(b.sub[slots[0]].basis)
        else:
            first, *rest = slots
            basis = _int_cols(b.sub[first].basis)
            rows = [[sum(map(mul, n, col)) for col in basis]
                    for i in rest for n in b._annihilators[i]]
            spans[slots] = [[sum(map(mul, t, row)) for row in zip(*basis)]
                            for t in _int_cols(_int_kernel(rows, len(basis)).basis)]
    p = [spans[tuple(slots)] for slots in pinning]
    start = [0, *accumulate(map(len, p))]
    unknowns = start[-1]
    if unknowns == 0:
        return []
    system: List[List[int]] = []
    for i, x in coupled:
        for n in b._annihilators[i]:
            row = [0] * unknowns
            for j, xj in enumerate(x):
                if xj:
                    row[start[j]:start[j + 1]] = [xj * sum(map(mul, n, col)) for col in p[j]]
            system.append(row)
    # psi entry (r, j) sits at reversed coordinate size - 1 - (r m + j)
    size = mp * m
    vecs = []
    for t in _int_cols(_int_kernel(system, unknowns).basis):
        vec = [0] * size
        for j, pj in enumerate(p):
            for c, col in zip(t[start[j]:start[j + 1]], pj):
                if c:
                    for r, v in enumerate(col):
                        if v:
                            vec[size - 1 - r * m - j] += c * v
        vecs.append(vec)
    return [Matrix._ints(mp, m, row[::-1], next(v for v in row if v))
            for row in reversed(_echelon_key(vecs))]


def certificate_valid(psi: Matrix, a: FourModule, b: FourModule) -> bool:
    """Exact check: psi invertible and psi(sub_i(a)) = sub_i(b) for all i.

    Containment is N_i psi B_i = 0 over the integers, with psi over one
    common denominator and the same annihilator rows N_i as
    `module_hom_basis`; with equal slot dimensions and psi invertible it is
    equality.
    """
    if psi.rows != b.dim_M or psi.cols != a.dim_M or a.dim_vector != b.dim_vector:
        return False
    c = psi.cols
    prows = [psi.num[r * c:(r + 1) * c] for r in range(psi.rows)]
    for i in range(4):
        for bcol in _int_cols(a.sub[i].basis):
            image = [sum(map(mul, prow, bcol)) for prow in prows]
            if any(sum(map(mul, nrow, image)) for nrow in b._annihilators[i]):
                return False
    return is_invertible(psi)


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
