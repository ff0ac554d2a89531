"""Singular Brascamp-Lieb data, four-subspace modules, and their duality.

A datum is a tuple of five spaces and four surjective maps
(H; H_0..H_3; Pi_0..Pi_3); its dual object is a module: an ambient space
with four distinguished subspaces, here the column spans of the Pi_i
transposes.  Equivalence of data corresponds to isomorphism of modules.
The non-Hoelder matcher certifies an isomorphism by an explicit invertible
matrix drawn from the Hom space; `certificate_valid` checks exactly, over
the integers, that it maps each subspace span onto its counterpart.  It
works in `FourModule.reduced`, the module rewritten in the coordinates of
one reduced row echelon form of its stacked slot bases, cached on the
module, where slot columns are mostly unit columns with small entries, on
both sides of every Hom solve: the datum's module and each family it is
matched against.  Every exact read of `decompose` goes through that one
frame, so a datum caches its module and no kernel of its maps.  The
reported certificate, the inverse of that matrix carried back through both
frames, is built only when read.
`module_hom_basis` solves the Hom space column by column: a source basis
vector along a coordinate axis confines that column of psi to a target
subspace, and one exact kernel on the coordinates of the confined columns,
ordered by the entries of psi they pin, gives the reduced basis of the full
system in the entries of psi.  It depends on the space alone, so the
certificates drawn from it do not depend on how it was solved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .linalg import (
    Matrix, Subspace, _dots, _echelon_key, _int_cols, _int_rows, _kernel_vectors, _pivots, _rref,
    block_diag, hstack, image_basis, inverse, is_invertible,
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
    def reduced(self) -> Tuple[Matrix, "FourModule"]:
        """(g, M'): an invertible g and this module M in the coordinates of
        the reduced row echelon form R of its stacked slot bases
        [B0 | B1 | B2 | B3] (`linalg._rref`), with g M' = M.

        g is the stack's pivot columns, so the stack is g R and B_i = g R_i
        for R's block-i columns R_i, which are slot i of M'.  When the slots
        span less than Q^n, R has fewer than n rows: its columns are padded
        with zero rows, and g is completed by the unit columns off the
        pivots of g^T.  No inverse is needed, and as R is exact, g maps each
        slot of M' onto that of M.  Pivot columns of R are unit columns, so
        slot 0 of M' is [I; 0] and most other slot columns are unit columns
        too."""
        n = self.dim_M
        stack = hstack(*(s.basis for s in self.sub))
        width = stack.cols
        pivots, free, nums, d = _rref(_int_rows(stack), width)
        g = stack.submatrix(range(n), pivots)
        if len(pivots) < n:
            taken = set(_pivots(_int_rows(g.transpose()), n))
            g = hstack(g, Matrix.identity(n).submatrix(
                range(n), [j for j in range(n) if j not in taken]))
        k, rows = len(free), []
        for i, pc in enumerate(pivots):
            row = [0] * width
            row[pc] = d
            for f, v in zip(free, nums[i * k:(i + 1) * k]):
                row[f] = v
            rows.append(row)
        rows += [[0] * width] * (n - len(pivots))
        subs, lo = [], 0
        for s in self.sub:
            hi = lo + s.dim
            basis = Matrix._ints(n, s.dim, [v for row in rows for v in row[lo:hi]], d)
            subs.append(Subspace._trusted(n, basis))
            lo = hi
        return g, FourModule(n, tuple(subs))

    @cached_property
    def _annihilators(self) -> Tuple[List[List[int]], ...]:
        """Per slot, integer rows whose common kernel is that subspace."""
        return tuple(_kernel_vectors(_int_rows(s.basis.transpose()), self.dim_M)
                     for s in self.sub)


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
    moved = [e.phi_i[i] @ d.pi[i] for i in range(4)]
    out = SBLDatum(d.dim_H, d.dims, tuple(m @ phi_inv for m in moved))
    for i in range(4):
        if out.pi[i] @ e.phi != moved[i]:
            raise AssertionError(f"map {i} does not intertwine")
    return out


def direct_sum(a: FourModule, b: FourModule) -> FourModule:
    """Block-diagonal bases; the dimension vector adds componentwise."""
    return direct_sum_all([a, b])


def direct_sum_all(mods: Sequence[FourModule]) -> FourModule:
    """`direct_sum` of all of mods, each slot one `block_diag`."""
    n = sum(m.dim_M for m in mods)
    return FourModule(n, tuple(Subspace._trusted(n, block_diag(*[m.sub[i].basis for m in mods]))
                               for i in range(4)))


# -- isomorphism certificates -------------------------------------------------


def hom_solver(b: FourModule) -> Callable[[FourModule], List[Matrix]]:
    """`module_hom_basis(a, b)` as a function of a; the slot spans of b and
    their products with its annihilator rows live as long as it does."""
    mp, anns = b.dim_M, b._annihilators

    @lru_cache(maxsize=None)
    def span(slots: Tuple[int, ...]) -> List[Tuple[List[int], List[Tuple[int, int]]]]:
        # the reduced columns of P_slots, each with its nonzero (row, value) pairs
        first, *rest = slots or (None,)
        basis = _int_cols(b.sub[first].basis if slots else Matrix.identity(mp))
        if rest:  # B s for the kernel vectors s of the other slots' rows times B
            rows = _dots([n for i in rest for n in anns[i]], basis)
            basis = _dots(_kernel_vectors(rows, len(basis)), list(zip(*basis)))
        if slots:  # by increasing pivot row
            basis = [c[::-1] for c in reversed(_echelon_key([c[::-1] for c in basis]))]
        return [(c, [(r, v) for r, v in enumerate(c) if v]) for c in basis]

    @lru_cache(maxsize=None)
    def product(i: int, slots: Tuple[int, ...]) -> List[List[int]]:
        return _dots(anns[i], [c for c, _ in span(slots)])

    def solve(a: FourModule) -> List[Matrix]:
        m = a.dim_M
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
        slots = [tuple(s) for s in pinning]
        # unknown u = (j, k) scales column k of P_j in psi, ordered by the
        # position (pivot row) m + j it pins; P_j's pivots increase with k
        order = sorted((nz[-1][0] * m + j, j, k) for j, s in enumerate(slots)
                       for k, (_, nz) in enumerate(span(s)))
        index: List[List[int]] = [[] for _ in range(m)]
        for u, (_, j, _) in enumerate(order):
            index[j].append(u)
        system: List[List[int]] = []
        for i, x in coupled:
            parts = [(index[j], xj, product(i, slots[j])) for j, xj in enumerate(x) if xj]
            for q in range(len(anns[i])):
                row = [0] * len(order)
                for idx, xj, prod in parts:
                    for u, v in zip(idx, prod[q]):
                        row[u] = xj * v
                system.append(row)
        out = []
        for t in _kernel_vectors(system, len(order)):
            psi = [0] * (mp * m)
            for u, c in enumerate(t):
                if c:
                    pos, j, k = order[u]
                    for r, v in span(slots[j])[k][1]:
                        psi[r * m + j] += c * v
            out.append(Matrix._ints(mp, m, psi, psi[pos]))  # pos: the free unknown's
        return out

    return solve


def module_hom_basis(a: FourModule, b: FourModule) -> List[Matrix]:
    """Basis of {psi : psi(sub_i(a)) contained in sub_i(b) for all i}.

    The constraints are N_i psi x = 0 for the basis columns x of sub_i(a),
    where the integer rows of N_i annihilate sub_i(b).  A basis column that
    is a multiple of e_j pins column j of psi: psi_j = P_j t_j, P_j a basis
    of the intersection of the slots pinning j (Q^dim b for none).  The
    other columns x give the rows N_i sum_j x_j P_j t_j = 0 of one exact
    kernel on all the t_j.

    The result is the reduced kernel basis of the whole system in the
    row-major entries of psi: one element per free entry f, 1 at f, 0 at
    the other free entries and nonzero only before f.  It depends on the
    space alone and is read off the second kernel as it stands.  Column k
    of P_j, in reduced form, ends at its pivot row r_k, where the other
    columns are 0, so t_jk alone reaches entry (r_k, j) and every entry it
    reaches comes no later.  With the unknowns in the order of these
    entries, each kernel vector (its free unknown set, the other free
    unknowns 0, nonzero otherwise only before it) gives a psi that ends at
    its free unknown's entry and is 0 at every other one's: scaled to 1
    there, it is the reduced element.
    """
    return hom_solver(b)(a)


def certificate_valid(psi: Matrix, a: FourModule, b: FourModule) -> bool:
    """Exact check: psi invertible and psi(sub_i(a)) = sub_i(b) for all i.

    Containment is N_i psi B_i = 0 over the integers, with psi over one
    common denominator and the same annihilator rows N_i as
    `module_hom_basis`; with equal slot dimensions and psi invertible it is
    equality.  psi x is summed over the nonzero entries of each basis
    column x only: the candidates of the non-Hoelder matcher have unit or
    two-term slot columns.
    """
    if psi.rows != b.dim_M or psi.cols != a.dim_M or a.dim_vector != b.dim_vector:
        return False
    c = psi.cols
    pcols = [psi.num[j::c] for j in range(c)]
    for i in range(4):
        for bcol in _int_cols(a.sub[i].basis):
            support = [j for j, v in enumerate(bcol) if v]
            coeffs = [bcol[j] for j in support]
            image = [sum(map(mul, coeffs, entries))
                     for entries in zip(*[pcols[j] for j in support])]
            if any(sum(map(mul, nrow, image)) for nrow in b._annihilators[i]):
                return False
    return is_invertible(psi)


# -- seeded equivalence generation (used by tests and the round-trip audit) ---


def _unimodular(n: int, rng: random.Random, spread: int = 2) -> Matrix:
    """Unit lower times unit upper triangular, with integer entries in
    [-spread, spread] below and above the diagonal."""
    lo = [int(i == j) for i in range(n) for j in range(n)]
    up = lo[:]
    for i in range(n):
        for j in range(i):
            lo[i * n + j] = rng.randint(-spread, spread)
            up[j * n + i] = rng.randint(-spread, spread)
    return Matrix._ints(n, n, lo) @ Matrix._ints(n, n, up)


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
    if type(text) is int:
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
        dim_H, dims, pis_raw = data["dim_H"], data["dims"], data["pi"]
    except KeyError as exc:
        raise DatumFormatError(f"datum: missing field {exc}") from None
    if not (isinstance(dims, list) and isinstance(pis_raw, list)
            and len(dims) == len(pis_raw) == 4):
        raise DatumFormatError("datum: dims and pi must each have four entries")
    for where, n in [("dim_H", dim_H), *((f"dims[{i}]", x) for i, x in enumerate(dims))]:
        if type(n) is not int or n < 0:
            raise DatumFormatError(f"{where}: expected an integer >= 0, got {n!r}")
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
