"""Exact dense linear algebra over the rationals.

Everything rank- or kernel-shaped in the classifier runs through this
module: rank decisions are discontinuous, so no floating point is allowed
anywhere near them.  A `Matrix` stores integer numerators over one common
denominator, in canonical form, so every operation runs on Python ints:
products multiply the numerators and the denominators, sums and stacks
bring their operands over the least common denominator, and `Fraction`s
are built only when entries are read.  The elimination core takes the
numerator rows, each divided by its gcd, and has two routes, chosen by
size alone:
- `_rref` gives the reduced row echelon form as (pivots, free columns,
  numerators, d).  Kernels, solves, inverses and `_echelon_key` (the
  canonical key of a row span: the reduced rows made primitive) read
  their results off it.
- `_pivots` gives only the pivot columns, for `rank`, `image_basis`,
  `is_invertible` and `_int_rank`.
Integer systems with at least `_MODULAR_CELLS` cells, the one switch, are
reduced multi-modularly on both routes, since Bareiss pivots there grow far
beyond the entries of the result: the reduced form modulo 31-bit primes
(numpy int64, imported only then; residues, never floats), Chinese
remaindering and rational reconstruction of its free-column entries.  A
lift is returned only after an exact integer check that every kernel vector
it gives lies in the kernel (`_kernel_proven`).  That makes it equal to the
exact reduced form entry for entry, and its pivots the exact pivots; full
column rank modulo a prime proves itself at once.  Primes are drawn as
the proof needs them (`_prime`); only finitely many are bad, so the proof
always comes.  Below the switch both routes run one forward fraction-free
(Bareiss) integer elimination: `_pivots` stops at its echelon form, and
`_rref` reads the reduced form off the echelon rows by an exact
fraction-free back-substitution on the free columns.
`solve_right` reads X off the reduced form of [a | b] and runs the same
proof on the b columns, which is a @ X == b on integer rows, on either
path.  Callers that already hold integer rows use the private
integer entry points directly: `_int_kernel`, `_kernel_vectors` (the
kernel as primitive integer vectors, for the pencil and the Hom solver)
and `_int_rank`, `_echelon_key` and `_annihilator` (keys of row spans and
of their annihilators, for the necessity screen's subspace lattice),
`_pivots` (for the basis and rows of the pencil's finite core) and
`_dots`, the one product of integer rows with integer rows.
`invariant_factors` reads the invariant factors of a square matrix off
quotients by cyclic subspaces, in the matrix's own coordinates, with
`kernel_basis` alone, so it is exact by the same proofs.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from .polynomials import Poly, poly_gcd


_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Immutable dense rational matrix: integer numerators over one denominator.

    `num` is the row-major tuple of the rows * cols integer numerators and
    `den` > 0 their common denominator, kept canonical: gcd(den, *num) is 1,
    so a zero matrix has den 1.  Equal matrices therefore have equal
    (rows, cols, num, den), which is what `==` and `hash` compare.  The
    public reads `data`, `m[i, j]`, `row` and `col` give `Fraction`s, built
    once, on the first read.
    """

    __slots__ = ("rows", "cols", "num", "den", "_data")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(_frac(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        # the least common denominator of entries in lowest terms is canonical
        den = lcm(*[x.denominator for x in entries])
        self._set(rows, cols, tuple(x.numerator * (den // x.denominator) for x in entries), den)
        object.__setattr__(self, "_data", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def _set(self, rows: int, cols: int, num: Tuple[int, ...], den: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _ints(cls, rows: int, cols: int, num: Sequence[int], den: int = 1) -> "Matrix":
        # Internal constructor: rows * cols integer numerators over den != 0,
        # brought to the canonical form.
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [v // g for v in num]
            den //= g
        self = object.__new__(cls)
        self._set(rows, cols, tuple(num), den)
        return self

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
        return cls._ints(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        num = [0] * (n * n)
        num[::n + 1] = [1] * n
        return cls._ints(n, n, num)

    @classmethod
    def diag(cls, values: Sequence) -> "Matrix":
        n = len(values)
        return cls(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        return cls(len(values), 1, list(values))

    # -- access ----------------------------------------------------------

    @property
    def data(self) -> Tuple[Fraction, ...]:
        """The entries as `Fraction`s, row-major."""
        try:
            return self._data
        except AttributeError:
            pass
        den = self.den
        if den == 1:
            data = tuple(map(Fraction, self.num))
        else:
            data = tuple(Fraction(v, den) if v else _ZERO for v in self.num)
        object.__setattr__(self, "_data", data)
        return data

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Tuple[Fraction, ...]:
        return self.data[j::self.cols]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _num_over(self, den: int) -> Sequence[int]:
        """The numerators over den, a multiple of self.den."""
        f = den // self.den
        return self.num if f == 1 else [v * f for v in self.num]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        den = lcm(self.den, other.den)
        return Matrix._ints(self.rows, self.cols,
                            list(map(add, self._num_over(den), other._num_over(den))), den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        den = lcm(self.den, other.den)
        return Matrix._ints(self.rows, self.cols,
                            list(map(sub, self._num_over(den), other._num_over(den))), den)

    def __neg__(self) -> "Matrix":
        return Matrix._ints(self.rows, self.cols, [-v for v in self.num], self.den)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix._ints(self.rows, self.cols, [c.numerator * v for v in self.num],
                            c.denominator * self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        k, m = self.cols, other.cols
        a, b = self.num, other.num
        left = [a[i * k:(i + 1) * k] for i in range(self.rows)]
        right = [b[j::m] for j in range(m)]
        return Matrix._ints(self.rows, m, [sum(map(mul, r, c)) for r in left for c in right],
                            self.den * other.den)

    def transpose(self) -> "Matrix":
        c = self.cols
        return Matrix._ints(c, self.rows, [v for j in range(c) for v in self.num[j::c]], self.den)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        c, num = self.cols, self.num
        return Matrix._ints(len(row_idx), len(col_idx),
                            [num[i * c + j] for i in row_idx for j in col_idx], self.den)

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def hstack(*ms: Matrix) -> Matrix:
    rows = ms[0].rows
    if any(m.rows != rows for m in ms):
        raise ValueError("row count mismatch in hstack")
    den = lcm(*[m.den for m in ms])
    parts = [(m.cols, m._num_over(den)) for m in ms]
    num: List[int] = []
    for i in range(rows):
        for c, part in parts:
            num.extend(part[i * c:(i + 1) * c])
    return Matrix._ints(rows, sum(m.cols for m in ms), num, den)


def vstack(*ms: Matrix) -> Matrix:
    cols = ms[0].cols
    if any(m.cols != cols for m in ms):
        raise ValueError("column count mismatch in vstack")
    den = lcm(*[m.den for m in ms])
    num: List[int] = []
    for m in ms:
        num.extend(m._num_over(den))
    return Matrix._ints(sum(m.rows for m in ms), cols, num, den)


def block_diag(*ms: Matrix) -> Matrix:
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    den = lcm(*[m.den for m in ms])
    num = [0] * (rows * cols)
    r0 = c0 = 0
    for m in ms:
        part = m._num_over(den)
        for i in range(m.rows):
            start = (r0 + i) * cols + c0
            num[start:start + m.cols] = part[i * m.cols:(i + 1) * m.cols]
        r0 += m.rows
        c0 += m.cols
    return Matrix._ints(rows, cols, num, den)


# -- fraction-free elimination core ----------------------------------------


def _primitive(rows: Iterable[Sequence[int]]) -> List[List[int]]:
    """New integer rows, each divided by the gcd of its entries; preserves
    row space and kernel."""
    out = []
    for row in rows:
        g = gcd(*row)
        out.append([v // g for v in row] if g > 1 else list(row))
    return out


def _dots(xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]]) -> List[List[int]]:
    """The integer products x . y, one row per x and one entry per y."""
    return [[sum(map(mul, x, y)) for y in ys] for x in xs]


def _int_rows(m: Matrix) -> List[List[int]]:
    """The numerator rows, each divided by its gcd; preserves row space and kernel."""
    c, num = m.cols, m.num
    return _primitive(num[i * c:(i + 1) * c] for i in range(m.rows))


def _int_cols(m: Matrix) -> List[List[int]]:
    """Each column as integers over the least denominator of that column:
    its numerators divided by their gcd with den."""
    c, num, den = m.cols, m.num, m.den
    out = []
    for j in range(c):
        col = num[j::c]
        g = gcd(den, *col)
        out.append([v // g for v in col] if g > 1 else list(col))
    return out


def _echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free (Bareiss) row echelon, in place.

    Returns the echelon rows and the list of pivot columns.  The update
    a_ij <- (p * a_ij - a_ic * a_rj) / prev on the rows below the pivot is
    exact by the Sylvester identity; every intermediate entry is a minor of
    the input, and the last pivot is the rank-sized minor on the pivot rows
    and columns, up to sign.
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
        tail = rows[r][c + 1:]
        for i in range(r + 1, nr):
            irow = rows[i]
            # row r is zero left of c, and so are the rows below it
            f = irow[c]
            if f:
                irow[c] = 0
                if prev == 1:
                    irow[c + 1:] = [p * x - f * y for x, y in zip(irow[c + 1:], tail)]
                else:
                    irow[c + 1:] = [(p * x - f * y) // prev for x, y in zip(irow[c + 1:], tail)]
            elif p != prev:
                if prev == 1:
                    irow[c + 1:] = [p * x for x in irow[c + 1:]]
                else:
                    irow[c + 1:] = [p * x // prev for x in irow[c + 1:]]
        prev = p
        pivots.append(c)
        r += 1
    # the rows below the last pivot row are zero
    return rows[:r], pivots


def _echelon_key(rows: List[List[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Canonical key of the row span of integer rows (consumed).

    The reduced row echelon rows, each scaled to a primitive integer row
    with a positive pivot.  The reduced form is unique per span, so two
    row sets have equal keys exactly when they span the same subspace.
    """
    cols = len(rows[0]) if rows else 0
    pivots, free, nums, d = _rref(rows, cols)
    k = len(free)
    out = []
    for r, pc in enumerate(pivots):
        part = nums[r * k:(r + 1) * k]
        g = gcd(d, *part)
        g = g if d > 0 else -g
        row = [0] * cols
        row[pc] = d // g
        for f, v in zip(free, part):
            row[f] = v // g
        out.append(tuple(row))
    return tuple(out)


def _annihilator(key: Tuple[Tuple[int, ...], ...], n: int) -> Tuple[Tuple[int, ...], ...]:
    """Key of the annihilator {x in Q^n : k . x = 0 for every key row k},
    written with the n coordinates in reverse order.

    Read off the free columns of the key, with no elimination: free column
    f gives the vector with x_f = L and x_p = -k_f L / k_p on the pivot
    column p of each key row k, L the least common multiple of those k_p.
    Its last nonzero entry is x_f and no other such vector is nonzero at
    f, so reversed and made primitive these vectors, by decreasing f, are
    the reduced echelon key of the reversed annihilator.  Reversal commutes
    with taking annihilators, so `_annihilator(_annihilator(key, n), n)`
    is `key` again.
    """
    pivots = [next(c for c, v in enumerate(row) if v) for row in key]
    pivset = set(pivots)
    out = []
    for f in range(n - 1, -1, -1):
        if f in pivset:
            continue
        hits = [(row[f], row[p], p) for row, p in zip(key, pivots) if row[f]]
        big = lcm(*[kp for _, kp, _ in hits])
        x = [0] * n
        x[f] = big
        for kf, kp, p in hits:
            x[p] = -kf * (big // kp)
        g = gcd(*x)
        out.append(tuple(v // g for v in reversed(x)))
    return tuple(out)


def rank(m: Matrix) -> int:
    """Rank over the rationals."""
    return _int_rank(_int_rows(m), m.cols)


def kernel_basis(m: Matrix) -> "Subspace":
    """Basis of the right null space; rank + kernel dim = cols.

    One vector per free column, with that free variable 1 and the others 0,
    read off the reduced echelon form.
    """
    return _int_kernel(_int_rows(m), m.cols)


def _int_kernel(rows: List[List[int]], cols: int) -> "Subspace":
    """`kernel_basis` of the matrix with these integer rows (consumed) of
    length cols; scaling a row does not change the result."""
    pivots, free, nums, d = _rref(rows, cols)
    k = len(free)
    out = [0] * (cols * k)
    for j, f in enumerate(free):
        out[f * k + j] = d
        for r, pc in enumerate(pivots):
            if pc > f:
                break
            out[pc * k + j] = -nums[r * k + j]
    return Subspace._trusted(cols, Matrix._ints(cols, k, out, d))


def _kernel_vectors(rows: List[List[int]], cols: int) -> List[List[int]]:
    """The kernel of these integer rows (consumed) of length cols as
    primitive integer vectors, one per free column f, each positive at f:
    the columns of `_int_kernel`'s basis, each over its least denominator.
    The vector of f is d at f and minus the numerators of column f on the
    pivot columns; d, the last Bareiss pivot, can be negative, so the gcd
    taken out carries its sign."""
    pivots, free, nums, d = _rref(rows, cols)
    k = len(free)
    out = []
    for j, f in enumerate(free):
        x = [0] * cols
        x[f] = d
        for r, pc in enumerate(pivots):
            if pc > f:
                break
            x[pc] = -nums[r * k + j]
        g = gcd(*x) if d > 0 else -gcd(*x)
        out.append([v // g for v in x])
    return out


def _int_rank(rows: List[List[int]], cols: int) -> int:
    """`rank` of the matrix with these integer rows (consumed) of length cols.

    A wide matrix is ranked by its transpose: full column rank modulo a
    prime then proves the rank without a lift.
    """
    if len(rows) < cols:
        rows, cols = [list(c) for c in zip(*rows)], len(rows)
    return len(_pivots(rows, cols))


def _pivots(rows: List[List[int]], cols: int) -> List[int]:
    """Pivot columns of the integer rows (consumed) of length cols: from
    `_MODULAR_CELLS` cells up those of the proven `_rref`, below those of
    one non-reduced Bareiss pass, which is cheaper."""
    if rows and len(rows) * cols >= _MODULAR_CELLS:
        return _rref(rows, cols)[0]
    return _echelon(rows)[1]


def _rref(rows: List[List[int]], cols: int) -> Tuple[List[int], List[int], List[int], int]:
    """(pivots, free columns, numerators, d) of the reduced row echelon form
    of the integer rows (consumed) of length cols: the entry of pivot row r
    at the k-th free column is nums[r * len(free) + k] / d.

    Systems of at least `_MODULAR_CELLS` cells take the proven
    `_modular_kernel`; the others take one forward Bareiss pass and
    back-substitution on the free columns.  With d the last pivot, p_i and
    e_i the pivot and the row of echelon row i and pc_j the pivot columns,
    the numerators x_i = d * (reduced entry of row i at f) satisfy

        x_i = (d * e_i[f] - sum over j > i of e_i[pc_j] * x_j) / p_i,

    as e_i is the combination of the reduced rows with the coefficients
    e_i[pc_j].  The division is exact: by Cramer's rule x_i is a minor of
    the input.  Rows whose pivot lies right of f have x_i = 0.
    """
    if rows and len(rows) * cols >= _MODULAR_CELLS:
        return _modular_kernel(rows, cols)
    ech, pivots = _echelon(rows)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    d = ech[-1][pivots[-1]] if pivots else 1
    k = len(free)
    # each echelon row's entries at the pivot columns right of its own
    right = [[row[pc] for pc in pivots[i + 1:]] for i, row in enumerate(ech)]
    nums = [0] * (len(pivots) * k)
    for j, f in enumerate(free):
        xs: List[int] = []  # x_{i+1}, x_{i+2}, ... of the rows pivoting left of f
        for i in range(bisect(pivots, f) - 1, -1, -1):
            row = ech[i]
            x = (d * row[f] - sum(map(mul, right[i], xs))) // row[pivots[i]]
            xs.insert(0, x)
            nums[i * k + j] = x
    return pivots, free, nums, d


# -- multi-modular kernel with an exact proof ---------------------------------

# Integer systems with at least this many cells (rows x cols) go modular
# first: below it one Bareiss pass is cheaper than a modular pass plus the
# proof (measured crossover between 200 and 300 cells).
_MODULAR_CELLS = 256

def _is_prime(n: int) -> bool:
    """Primality of n < 3215031751: no composite below that bound is a strong
    probable prime to the bases 2, 3, 5 and 7 (Pomerance, Selfridge and
    Wagstaff, Math. Comp. 35, 1980; Jaeschke, Math. Comp. 61, 1993)."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


_primes: List[int] = []  # the primes drawn so far, largest first


def _prime(i: int) -> int:
    """The i-th largest prime below 2**31, counting from 0, drawn once:
    products of two residues stay below 2**62, so row updates stay in int64."""
    while len(_primes) <= i:
        n = _primes[-1] - 2 if _primes else 2 ** 31 - 1
        while not _is_prime(n):
            n -= 2
        _primes.append(n)
    return _primes[i]


def _rref_mod(a, p: int) -> List[int]:
    """Reduce the int64 array a (entries in [0, p)) in place to its reduced
    row echelon form modulo the prime p < 2**31; returns the pivot columns.
    The first len(pivots) rows of a are the pivot rows."""
    nr, nc = a.shape
    pivots: List[int] = []
    for c in range(nc):
        r = len(pivots)
        hits = a[r:, c].nonzero()[0]
        if not hits.size:
            continue
        i = r + int(hits[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        rest = col.nonzero()[0]
        if rest.size:
            a[rest, c:] = (a[rest, c:] - col[rest, None] * a[r, c:]) % p
        pivots.append(c)
        if r + 1 == nr:
            break
    return pivots


def _ratrecon(u: int, m: int, bound: int) -> Optional[Tuple[int, int]]:
    """(n, d) with n = d * u mod m, |n| <= bound and 0 < d <= bound, found by
    the half-extended Euclidean algorithm (Wang 1981), or None."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(residues: List[int], m: int) -> Optional[Tuple[List[int], int]]:
    """Numerators over one common denominator d with each residue equal to
    numerator / d modulo m, or None when some residue has no rational
    reconstruction.  Entries of one reduced form share most of their
    denominator, so each residue is first multiplied by the denominator
    found so far and read as an integer when that one is small enough."""
    bound = isqrt(m >> 1)
    nums: List[int] = []
    d = 1
    for u in residues:
        y = u * d % m
        if y > m - y:
            y -= m
        if -bound <= y <= bound:
            nums.append(y)
            continue
        if (nd := _ratrecon(y, m, bound)) is None:
            return None
        n, e = nd
        nums = [v * e for v in nums]
        nums.append(n)
        d *= e
    return nums, d


def _kernel_proven(rows: List[List[int]], pivots: List[int], free: List[int],
                   nums: List[int], d: int) -> bool:
    """Exact integer check that each free column f gives a kernel vector:
    x_f = d, and x_pc = -(numerator of pivot row r at f) on the pivot
    column pc of each pivot row r, zero elsewhere."""
    k = len(free)
    numcols = [nums[j::k] for j in range(k)]
    for row in rows:
        left = [row[pc] for pc in pivots]
        for f, numcol in zip(free, numcols):
            if sum(map(mul, left, numcol)) != d * row[f]:
                return False
    return True


def _modular_kernel(rows: List[List[int]], cols: int):
    """(pivots, free columns, numerators, d) of the reduced row echelon form
    of the integer rows (read, not consumed), with the entry of pivot row r
    at the k-th free column equal to nums[r * len(free) + k] / d.

    Each prime `_prime(i)` gives the reduced form modulo p.  A bad prime
    can only lower the rank or move a pivot right, so the primes kept are
    those with the largest rank and, among them, the earliest pivot
    columns; a better prime restarts the Chinese remaindering.  After each
    prime the free-column entries are read back by rational reconstruction,
    and a candidate is returned only if `_kernel_proven` holds: its
    cols - rank_p vectors then lie in the kernel, are independent, and
    rank_p <= rank, so they are the kernel basis, each free column is a
    true free column, and the entries are those of the exact reduced form.
    rank_p = cols proves a zero kernel at once.  The loop ends: every bad
    prime divides one nonzero minor of the rows (on the true pivot
    columns), so the kept primes are soon all good, and once their product
    m has isqrt(m // 2) >= d and every |numerator| of the exact form, the
    reconstruction is that form and the proof holds.
    """
    import numpy as np

    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:  # entries beyond int64 stay Python ints in one object array
        a = np.array(rows, dtype=object)
    best = None
    for i in count():
        p = _prime(i)
        m = (a % p).astype(np.int64, copy=False)
        pivots = _rref_mod(m, p)
        if len(pivots) == cols:
            return pivots, [], [], 1
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        pivset = set(pivots)
        free = [c for c in range(cols) if c not in pivset]
        new = m[:len(pivots)][:, free].ravel().tolist()
        if best is None or key < best:
            best, res, modulus = key, new, p
        else:
            inv = pow(modulus % p, -1, p)
            res = [x + modulus * ((r - x) * inv % p) for x, r in zip(res, new)]
            modulus *= p
        lifted = _lift(res, modulus)
        if lifted is not None and _kernel_proven(rows, pivots, free, *lifted):
            return (pivots, free) + lifted


def image_basis(m: Matrix) -> "Subspace":
    """Column-span basis: the original columns at the pivot positions."""
    if m.rows == 0 or m.cols == 0:
        return Subspace(m.rows, Matrix.zeros(m.rows, 0))
    pivots = _pivots(_int_rows(m), m.cols)
    return Subspace._trusted(m.rows, m.submatrix(range(m.rows), pivots))


def solve_right(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some X with a @ X = b, or None if inconsistent.

    Read off the reduced form of [a | b]: the system is consistent exactly
    when no pivot lands in the b block, and then the b columns are the last
    free columns and hold X over d on the pivot rows.  Free variables are
    pinned to zero so the solution is reproducible byte for byte.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve_right")
    if a.cols == 0:
        return Matrix.zeros(0, b.cols) if b.is_zero else None
    n, k = a.cols, b.cols
    rows = _int_rows(hstack(a, b))
    pivots, free, nums, d = _rref([list(row) for row in rows], n + k)
    if pivots and pivots[-1] >= n:
        return None
    # the b columns as kernel vectors of [a | b] prove a @ nums == d * b exactly
    width = len(free)
    numb = [v for r in range(len(pivots)) for v in nums[(r + 1) * width - k:(r + 1) * width]]
    if not _kernel_proven(rows, pivots, free[width - k:], numb, d):
        return None
    x = [0] * (n * k)
    for r, pc in enumerate(pivots):
        x[pc * k:(pc + 1) * k] = numb[r * k:(r + 1) * k]
    return Matrix._ints(n, k, x, d)


def _solve_invertible(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """a^-1 b for a square a, or None unless a is invertible: the reduced
    form of [a | b] is [I | a^-1 b] exactly when its first a.cols columns
    all pivot.  Unlike `solve_right`, a consistent singular system gives None."""
    n, k = a.cols, b.cols
    pivots, _, nums, d = _rref(_int_rows(hstack(a, b)), n + k)
    return Matrix._ints(n, k, nums, d) if pivots == list(range(n)) else None


def inverse(a: Matrix) -> Matrix:
    if not a.is_square:
        raise ValueError("inverse of non-square matrix")
    x = solve_right(a, Matrix.identity(a.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def is_invertible(a: Matrix) -> bool:
    """Full rank over Q."""
    return a.is_square and rank(a) == a.rows


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

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        return rank(hstack(self.basis, other.basis)) == self.dim

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


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


# -- invariant factors (quotients by cyclic subspaces) ----------------------


def invariant_factors(m: Matrix) -> List[Poly]:
    """Nonconstant invariant factors d_1 | d_2 | ... of tI - m, read off
    quotients of Q^n by sums of cyclic subspaces, all in m's own coordinates
    (Giesbrecht, SIAM J. Comput. 24, 1995; Storjohann, ISSAC 1998).

    W, the span of the cyclic summands found so far, is m-invariant, and x
    lies in W exactly when ann @ x = 0 for its annihilator rows ann.  Over
    the PID Q[t], a vector v whose minimal polynomial f modulo W is the
    exponent of Q^n / W generates a direct summand of that quotient, so f
    is the largest invariant factor left and the quotient by W + span(v,
    mv, ..., m^{d-1} v), d = deg f, has the others.  That sum is again
    m-invariant, as f(m) v lies in W.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    chain: List[Poly] = []
    w, ann = Matrix.zeros(m.rows, 0), Matrix.identity(m.rows)
    while ann.rows:
        f, v = _maximal_vector(m, ann)
        chain.append(f)
        if f.degree == ann.rows:
            break
        w = hstack(w, *_krylov(m, v, f.degree))
        ann = kernel_basis(w.transpose()).basis.transpose()
    return chain[::-1]


def _maximal_vector(m: Matrix, ann: Matrix) -> Tuple[Poly, Matrix]:
    """The exponent f of Q^n / W and a vector v with minimal polynomial f
    modulo W, x in W exactly when ann @ x = 0: each unit vector e_j with
    f(m) e_j not in W is merged into v.  With g its minimal polynomial
    modulo W, lcm(f, g) = a b with a | f, b | g coprime, and (f/a)(m) v +
    (g/b)(m) e_j has minimal polynomial a b modulo W.  The test reads
    column j of ann @ f(m), built once per f by Horner's rule on the rows
    (as f(m^T) ann^T, whose row j it is)."""
    n, k = m.rows, ann.rows
    units = Matrix.identity(n)
    v = units.submatrix(range(n), [0])
    f, mt, annt, rows = _min_poly(m, v, ann), m.transpose(), ann.transpose(), None
    for j in range(1, n):
        if f.degree == k:
            break
        rows = rows or _poly_apply(f, mt, annt).num
        if not any(rows[j * k:(j + 1) * k]):
            continue
        e = units.submatrix(range(n), [j])
        g = _min_poly(m, e, ann)
        a, b = f, g // poly_gcd(f, g)
        while (h := poly_gcd(a, b)).degree > 0:
            a, b = a // h, b * h
        v = _poly_apply(f // a, m, v) + _poly_apply(g // b, m, e)
        f, rows = a * b, None
    return f, v


def _min_poly(m: Matrix, v: Matrix, ann: Matrix) -> Poly:
    """The minimal polynomial of v under m modulo W, x in W exactly when
    ann @ x = 0: the first dependency among v, mv, m^2 v, ... modulo W, the
    first kernel vector of ann times their matrix, whose width doubles
    until it has one."""
    width = 2
    while not (ker := kernel_basis(ann @ hstack(*_krylov(m, v, width)))).dim:
        width = min(2 * width, ann.rows + 1)
    return Poly(ker.basis.col(0))


def _krylov(m: Matrix, v: Matrix, k: int) -> List[Matrix]:
    """The columns v, mv, ..., m^{k-1} v."""
    out = [v]
    while len(out) < k:
        out.append(m @ out[-1])
    return out


def _poly_apply(p: Poly, m: Matrix, v: Matrix) -> Matrix:
    """p(m) v by Horner's rule."""
    acc = v.scale(p.leading())
    for c in reversed(p.coeffs[:-1]):
        acc = m @ acc + v.scale(c)
    return acc
