"""Exact dense linear algebra over the rationals.

Everything rank- or kernel-shaped in the classifier runs through this
module: rank decisions are discontinuous, so no floating point is allowed
anywhere near them.  The elimination core clears denominators row-wise and
runs fraction-free (Bareiss) integer elimination; division-free growth is
then bounded by minor sizes, which is plenty for the matrix sizes that
occur here (a few hundred rows at most in homomorphism-space solves).

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .polynomials import Poly


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(_frac(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            c = len(rows[0])
            if any(len(r) != c for r in rows):
                raise ValueError("ragged rows")
        else:
            c = cols if cols is not None else 0
        return cls(len(rows), c, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def diag(cls, values: Sequence) -> "Matrix":
        n = len(values)
        return cls(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        return cls(len(values), 1, list(values))

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Tuple[Fraction, ...]:
        return self.data[j::self.cols]

    def row_lists(self) -> List[List[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix(self.rows, self.cols, [c * a for a in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        out = [Fraction(0)] * (n * m)
        orows = [other.row(t) for t in range(k)]
        for i in range(n):
            srow = self.row(i)
            acc = [Fraction(0)] * m
            for t in range(k):
                a = srow[t]
                if a == 0:
                    continue
                orow = orows[t]
                for j in range(m):
                    if orow[j] != 0:
                        acc[j] += a * orow[j]
            out[i * m:(i + 1) * m] = acc
        return Matrix(n, m, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(len(row_idx), len(col_idx),
                      [self[i, j] for i in row_idx for j in col_idx])

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def hstack(*ms: Matrix) -> Matrix:
    ms = [m for m in ms]
    rows = ms[0].rows
    if any(m.rows != rows for m in ms):
        raise ValueError("row count mismatch in hstack")
    data = []
    for i in range(rows):
        for m in ms:
            data.extend(m.row(i))
    return Matrix(rows, sum(m.cols for m in ms), data)


def vstack(*ms: Matrix) -> Matrix:
    cols = ms[0].cols
    if any(m.cols != cols for m in ms):
        raise ValueError("column count mismatch in vstack")
    data = []
    for m in ms:
        data.extend(m.data)
    return Matrix(sum(m.rows for m in ms), cols, data)


def block_diag(*ms: Matrix) -> Matrix:
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in ms:
        for i in range(m.rows):
            out[r0 + i][c0:c0 + m.cols] = list(m.row(i))
        r0 += m.rows
        c0 += m.cols
    return Matrix.from_rows(out, cols=cols)


# -- fraction-free elimination core ----------------------------------------


def _int_rows(m: Matrix) -> List[List[int]]:
    """Clear denominators row by row; preserves row space and kernel."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free (Bareiss) row echelon, in place.

    Returns the echelon rows and the list of pivot columns.  The update
    a_ij <- (p * a_ij - a_ic * a_rj) / prev is exact by the Sylvester
    identity; every intermediate entry is a minor of the input.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = None
        best = None
        for i in range(r, nr):
            v = rows[i][c]
            if v:
                a = abs(v)
                if best is None or a < best:
                    piv, best = i, a
                    if a == 1:
                        break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rrow = rows[r]
        for i in range(r + 1, nr):
            irow = rows[i]
            f = irow[c]
            if f:
                for j in range(c, nc):
                    irow[j] = (p * irow[j] - f * rrow[j]) // prev
            elif prev != 1 or p != 1:
                for j in range(c, nc):
                    irow[j] = (p * irow[j]) // prev
        prev = p
        pivots.append(c)
        r += 1
    return rows[:r] + [row for row in rows[r:] if any(row)], pivots


def _kernel_from_echelon(ech: List[List[int]], pivots: List[int], ncols: int) -> List[List[Fraction]]:
    """Basis vectors of the right kernel, one per free column, free var = 1."""
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            if pc > f:
                continue
            row = ech[r]
            s = sum((row[c] * x[c] for c in range(pc + 1, ncols) if x[c] != 0), Fraction(0))
            x[pc] = -s / row[pc]
        basis.append(x)
    return basis


def rank(m: Matrix) -> int:
    """Rank over the rationals (fraction-free Gaussian elimination)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots = _echelon(_int_rows(m))
    return len(pivots)


def kernel_basis(m: Matrix) -> "Subspace":
    """Basis of the right null space; rank + kernel dim = cols."""
    if m.cols == 0:
        return Subspace.zero(0)
    if m.rows == 0:
        return Subspace.full(m.cols)
    ech, pivots = _echelon(_int_rows(m))
    basis = _kernel_from_echelon(ech, pivots, m.cols)
    cols = [Matrix.column(b) for b in basis]
    return Subspace._trusted(m.cols, hstack(*cols) if cols else Matrix.zeros(m.cols, 0))


def image_basis(m: Matrix) -> "Subspace":
    """Column-span basis: the original columns at the pivot positions."""
    if m.rows == 0 or m.cols == 0:
        return Subspace(m.rows, Matrix.zeros(m.rows, 0))
    _, pivots = _echelon(_int_rows(m))
    return Subspace._trusted(m.rows, m.submatrix(range(m.rows), pivots))


def solve_right(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some X with a @ X = b, or None if inconsistent.

    Free variables are pinned to zero so the solution is reproducible
    byte for byte.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve_right")
    if a.cols == 0:
        return Matrix.zeros(0, b.cols) if b.is_zero else None
    aug = hstack(a, b)
    ech, pivots = _echelon(_int_rows(aug))
    pivots_a = [c for c in pivots if c < a.cols]
    if len(pivots_a) != len(pivots):
        return None  # a pivot landed in the b block: inconsistent
    out_cols = []
    n = a.cols
    for k in range(b.cols):
        x = [Fraction(0)] * n
        for r in range(len(pivots_a) - 1, -1, -1):
            pc = pivots_a[r]
            row = ech[r]
            s = Fraction(row[n + k])
            s -= sum((row[c] * x[c] for c in range(pc + 1, n) if x[c] != 0), Fraction(0))
            x[pc] = s / row[pc]
        out_cols.append(Matrix.column(x))
    # rows of a beyond the pivot count must be consistent; verify exactly
    x_full = hstack(*out_cols) if out_cols else Matrix.zeros(n, 0)
    if a @ x_full != b:
        return None
    return x_full


def inverse(a: Matrix) -> Matrix:
    if not a.is_square:
        raise ValueError("inverse of non-square matrix")
    x = solve_right(a, Matrix.identity(a.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def is_invertible(a: Matrix) -> bool:
    return a.is_square and rank(a) == a.rows


def det(a: Matrix) -> Fraction:
    """Determinant via fraction-free elimination."""
    if not a.is_square:
        raise ValueError("det of non-square matrix")
    n = a.rows
    if n == 0:
        return Fraction(1)
    rows = [list(a.row(i)) for i in range(n)]
    den = Fraction(1)
    sign = 1
    prev = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c]
            for j in range(c, n):
                rows[i][j] = (p * rows[i][j] - f * rows[c][j]) / prev
        prev = p
    return sign * rows[n - 1][n - 1]


# -- subspaces --------------------------------------------------------------


class Subspace:
    """A linear subspace of Q^ambient_dim, stored as a full-column-rank basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must equal ambient dimension")
        if basis.cols and rank(basis) != basis.cols:
            raise ValueError("basis columns are dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: Matrix) -> "Subspace":
        # Internal fast path for bases known full-rank by construction.
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        return self

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @classmethod
    def span_of_columns(cls, m: Matrix) -> "Subspace":
        return image_basis(m)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains_vector(self, v: Matrix) -> bool:
        return solve_right(self.basis, v) is not None if self.dim else v.is_zero

    def contains(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        return rank(hstack(self.basis, other.basis)) == self.dim

    def same_span(self, other: "Subspace") -> bool:
        return (self.ambient_dim == other.ambient_dim and self.dim == other.dim
                and self.contains(other))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v via the null space of [B_u | -B_v]."""
    _check_ambient(u, v)
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    ker = kernel_basis(hstack(u.basis, -v.basis))
    if ker.dim == 0:
        return Subspace.zero(u.ambient_dim)
    top = ker.basis.submatrix(range(u.dim), range(ker.dim))
    return image_basis(u.basis @ top)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return image_basis(hstack(u.basis, v.basis))


def is_direct_complement(u: Subspace, v: Subspace) -> bool:
    """True iff dim u + dim v = ambient and u ∩ v = {0}."""
    _check_ambient(u, v)
    if u.dim + v.dim != u.ambient_dim:
        return False
    return rank(hstack(u.basis, v.basis)) == u.ambient_dim


def extend_to_basis(sub: Subspace) -> Matrix:
    """An invertible matrix whose first dim(sub) columns are sub's basis."""
    n = sub.ambient_dim
    cols = sub.basis
    ext = image_basis(hstack(cols, Matrix.identity(n))).basis
    # image_basis keeps the original (independent) columns first
    if ext.cols != n:
        raise AssertionError("extension is not a basis")
    return ext


# -- operator-level utilities ------------------------------------------------


def companion_matrix(p: Poly) -> Matrix:
    """Companion matrix (ones on the subdiagonal) of a monic polynomial."""
    p = p.monic()
    n = p.degree
    if n < 1:
        raise ValueError("companion matrix needs degree >= 1")
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Fraction(1)
    for i in range(n):
        m[i][n - 1] = -p[i]
    return Matrix.from_rows(m)


def rank_power_sequence(m: Matrix, lam, kmax: int) -> List[int]:
    """Ranks of (m - lam*I)^k for k = 0..kmax.

    First differences count kernel growth; second differences give the
    number of Jordan blocks of each size at the eigenvalue lam.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    lam = _frac(lam)
    n = m.rows
    shifted = m - Matrix.identity(n).scale(lam)
    out = [n]
    power = Matrix.identity(n)
    for _ in range(kmax):
        power = power @ shifted
        out.append(rank(power))
    return out


def jordan_block_sizes(m: Matrix, lam) -> List[int]:
    """Multiset of Jordan block sizes at eigenvalue lam (possibly empty)."""
    n = m.rows
    seq = rank_power_sequence(m, lam, n)
    sizes = []
    for k in range(1, n + 1):
        prev2 = seq[k - 1] if k >= 1 else n
        nxt = seq[k + 1] if k + 1 <= n else seq[n]
        count = prev2 - 2 * seq[k] + nxt
        sizes.extend([k] * count)
    return sorted(sizes, reverse=True)


# -- invariant factors (Smith form of tI - m over Q[t]) ----------------------


def invariant_factors(m: Matrix) -> List[Poly]:
    """Nonconstant invariant factors d_1 | d_2 | ... of tI - m.

    Computed by exact Smith reduction of the characteristic matrix over
    Q[t]; their product is the characteristic polynomial.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    n = m.rows
    if n == 0:
        return []
    t = Poly.x()
    P: List[List[Poly]] = [[(t if i == j else Poly.zero()) - Poly((m[i, j],))
                            for j in range(n)] for i in range(n)]
    factors: List[Poly] = []
    for k in range(n):
        if not _smith_pivot(P, k, n):
            break
        factors.append(P[k][k].monic())
    factors = [f for f in factors if f.degree >= 1]
    return factors


def _smith_pivot(P: List[List[Poly]], k: int, n: int) -> bool:
    """Clear row/column k so P[k][k] divides the rest; False if submatrix is zero."""
    while True:
        # locate a minimal-degree nonzero entry in the trailing submatrix
        best = None
        for i in range(k, n):
            for j in range(k, n):
                if not P[i][j].is_zero and (best is None or P[i][j].degree < P[best[0]][best[1]].degree):
                    best = (i, j)
        if best is None:
            return False
        bi, bj = best
        if bi != k:
            P[k], P[bi] = P[bi], P[k]
        if bj != k:
            for row in P:
                row[k], row[bj] = row[bj], row[k]
        pivot = P[k][k]
        dirty = False
        for i in range(k + 1, n):
            if not P[i][k].is_zero:
                q = P[i][k] // pivot
                for j in range(k, n):
                    P[i][j] = P[i][j] - q * P[k][j]
                if not P[i][k].is_zero:
                    dirty = True  # remainder of lower degree surfaced
        if dirty:
            continue
        for j in range(k + 1, n):
            if not P[k][j].is_zero:
                q = P[k][j] // pivot
                for i in range(k, n):
                    P[i][j] = P[i][j] - q * P[i][k]
                if not P[k][j].is_zero:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry; if not, fold that row in
        offender = None
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                if not (P[i][j] % pivot).is_zero:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is None:
            return True
        for j in range(k, n):
            P[k][j] = P[k][j] + P[offender][j]
