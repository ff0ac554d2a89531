import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors as smith_invariant_factors
from sympy.ntheory.primetest import mr

import sblq
from sblq import linalg
from sblq.linalg import (
    Matrix, Subspace, _annihilator, _echelon, _echelon_key, _int_kernel,
    _modular_kernel, _rref_mod, block_diag,
    companion_matrix, hstack,
    image_basis, inverse, invariant_factors, kernel_basis, rank, solve_right,
    vstack,
)
from sblq.polynomials import Poly

from spans import same_span, subspace_intersect, subspace_sum


def jordan0(n):
    return Matrix(n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.data])


def random_matrix(rng, rows, cols, scale=6):
    return Matrix(rows, cols, [Fraction(rng.randint(-scale, scale),
                                        rng.randint(1, 3)) for _ in range(rows * cols)])


def test_rank_examples():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 3)) == 0
    assert rank(jordan0(2)) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(2)).dim == 0
    k = kernel_basis(Matrix(1, 2, [1, 1]))
    assert k.dim == 1
    assert same_span(k, Subspace(2, Matrix.column([1, -1])))
    assert kernel_basis(Matrix.zeros(2, 2)).dim == 2


def test_image_examples():
    assert image_basis(Matrix.identity(3)).dim == 3
    assert image_basis(Matrix.zeros(2, 3)).dim == 0
    assert image_basis(jordan0(2)).dim == 1


def test_subspace_intersect_examples():
    e1 = Subspace(2, Matrix.column([1, 0]))
    e2 = Subspace(2, Matrix.column([0, 1]))
    assert subspace_intersect(e1, e2).dim == 0
    u = Subspace(3, Matrix.from_rows([[1, 0], [2, 1], [0, 3]]))
    assert same_span(subspace_intersect(u, u), u)
    full = Subspace.full(2)
    diag = Subspace(2, Matrix.column([1, 1]))
    assert same_span(subspace_intersect(full, diag), diag)


def test_subspace_sum_examples():
    e1 = Subspace(2, Matrix.column([1, 0]))
    e2 = Subspace(2, Matrix.column([0, 1]))
    assert subspace_sum(e1, e2).dim == 2
    u = Subspace(3, Matrix.from_rows([[1, 0], [2, 1], [0, 3]]))
    assert same_span(subspace_sum(u, u), u)
    diag = Subspace(2, Matrix.column([1, 1]))
    assert subspace_sum(Subspace.full(2), diag).dim == 2


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))
    with pytest.raises(ValueError):
        subspace_intersect(Subspace.full(2), Subspace.full(3))


# Solves and kernels share `_rref`: the default switch, under which these small
# systems take the Bareiss pass, and 0, under which every system with rows
# takes the modular path.
_SWITCHES = (linalg._MODULAR_CELLS, 0)


def test_solve_right_examples():
    b = Matrix.from_rows([[2], [5]])
    for cells in _SWITCHES:
        with mock.patch.object(linalg, "_MODULAR_CELLS", cells):
            assert solve_right(Matrix.identity(2), b) == b
            assert solve_right(Matrix.zeros(2, 2), b) is None
            x = solve_right(Matrix(1, 2, [1, 1]), Matrix(1, 1, [2]))
            assert x == Matrix.from_rows([[2], [0]])  # free variable pinned to zero
            # 0-row and 0-column systems
            assert solve_right(Matrix.zeros(0, 3), Matrix.zeros(0, 2)) == Matrix.zeros(3, 2)
            assert solve_right(Matrix.identity(2), Matrix.zeros(2, 0)) == Matrix.zeros(2, 0)
            assert solve_right(Matrix.zeros(2, 0), Matrix.zeros(2, 1)) == Matrix.zeros(0, 1)
            assert solve_right(Matrix.zeros(2, 0), b) is None
            assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)


def test_solve_right_underdetermined_deterministic():
    a = Matrix.from_rows([[1, 2, 3], [0, 0, 1]])
    b = Matrix.from_rows([[6], [1]])
    x = solve_right(a, b)
    assert a @ x == b
    assert x == solve_right(a, b)


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        if rank(m) < n:
            continue
        assert m @ inverse(m) == Matrix.identity(n)


def _sympy_invariant_factors(m):
    # independent oracle: gcd of k x k minors of tI - m
    t = sympy.Symbol("t")
    sm = t * sympy.eye(m.rows) - to_sympy(m)
    n = m.rows
    d_prev = sympy.Integer(1)
    out = []
    for k in range(1, n + 1):
        g = sympy.Integer(0)
        for ris in itertools.combinations(range(n), k):
            for cis in itertools.combinations(range(n), k):
                g = sympy.gcd(g, sympy.Matrix(sm).extract(ris, cis).det())
        g = sympy.Poly(g, t).monic().as_expr() if g != 0 else g
        out.append(sympy.simplify(g / d_prev))
        d_prev = g
    return [sympy.Poly(f, t) for f in out if f != 0 and sympy.Poly(f, t).degree() >= 1]


def _poly_to_sympy(p):
    t = sympy.Symbol("t")
    return sympy.Poly(sum(sympy.Rational(c) * t ** k for k, c in enumerate(p.coeffs)), t)


# -- the Smith reduction of tI - m over Q[t], kept as the oracle --------------


def reference_invariant_factors(m):
    """Nonconstant invariant factors d_1 | d_2 | ... of tI - m by exact
    Smith reduction of the characteristic matrix over Q[t]."""
    n = m.rows
    t = Poly([0, 1])
    P = [[(t if i == j else Poly.zero()) - Poly((m[i, j],)) for j in range(n)]
         for i in range(n)]
    factors = []
    for k in range(n):
        if not _smith_pivot(P, k, n):
            break
        factors.append(P[k][k].monic())
    return [f for f in factors if f.degree >= 1]


def _smith_pivot(P, k, n):
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


def test_invariant_factors_examples():
    tm1 = Poly([-1, 1])
    assert invariant_factors(Matrix.identity(2)) == [tm1, tm1]
    p23 = Poly([-2, 1]) * Poly([-3, 1])
    assert invariant_factors(companion_matrix(p23)) == [p23]
    m = Matrix.diag([2, 2, 3])
    got = invariant_factors(m)
    assert got == [Poly([-2, 1]), p23]
    oracle = _sympy_invariant_factors(m)
    assert [_poly_to_sympy(p) for p in got] == oracle


def test_invariant_factors_pinned_cases():
    t = Poly([0, 1])
    assert invariant_factors(Matrix.zeros(0, 0)) == [] == reference_invariant_factors(Matrix.zeros(0, 0))
    for m, want in ((Matrix.zeros(3, 3), [t] * 3), (Matrix.identity(3), [t - Poly.one()] * 3)):
        assert invariant_factors(m) == want == reference_invariant_factors(m)
        assert [_poly_to_sympy(p) for p in want] == _sympy_invariant_factors(m)
    # e_1 has minimal polynomial t - 2 and e_2 is not killed by it: merged
    m = Matrix.diag([2, 3])
    with mock.patch.object(linalg, "poly_gcd", wraps=linalg.poly_gcd) as merge:
        got = invariant_factors(m)
    assert merge.called
    assert got == [Poly.from_roots([2, 3])] == reference_invariant_factors(m)
    with pytest.raises(ValueError):
        invariant_factors(Matrix.zeros(2, 3))


def test_invariant_factors_divisibility_and_charpoly():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, scale=2)
        fs = invariant_factors(m)
        for a, b in zip(fs, fs[1:]):
            assert (b % a).is_zero
        prod = Poly([1])
        for f in fs:
            prod = prod * f
        assert prod.degree == n
        cp = sympy.Poly(to_sympy(m).charpoly().as_expr(), sympy.Symbol("lambda"))
        assert [sympy.Rational(c) for c in prod.coeffs] == list(reversed(cp.all_coeffs()))


# t - 2, t + 1 and the irreducible quadratics t^2 + 1 and t^2 + t - 1
_IRREDUCIBLES = (Poly([-2, 1]), Poly([1, 1]), Poly([1, 0, 1]), Poly([-1, 1, 1]))


def _elementary(n, i, j, c):
    """The identity plus c at (i, j), i != j."""
    return Matrix(n, n, [int(r == s) + (c if (r, s) == (i, j) else 0)
                         for r in range(n) for s in range(n)])


@st.composite
def companion_sums(draw):
    """Block-diagonal companion matrices of products of powers of a few
    irreducibles, each block drawing its own exponents, so repeated roots
    and quadratics come with partitions that differ between factors; at
    most 8 rows, under a random unimodular similarity."""
    primes = draw(st.lists(st.sampled_from(_IRREDUCIBLES), min_size=1, max_size=3,
                           unique=True))
    blocks, n = [], 0
    for _ in range(draw(st.integers(1, 4))):
        p = Poly.one()
        for q in primes:
            p = p * q ** draw(st.integers(0, 2))
        if 1 <= p.degree <= 8 - n:
            blocks.append(companion_matrix(p))
            n += p.degree
    if not blocks:
        blocks, n = [companion_matrix(primes[0])], primes[0].degree
    u, v = Matrix.identity(n), Matrix.identity(n)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i != j:
            u, v = u @ _elementary(n, i, j, c), _elementary(n, i, j, -c) @ v
    return u @ block_diag(*blocks) @ v


@st.composite
def int_matrices(draw):
    n = draw(st.integers(1, 8))
    return Matrix(n, n, draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(companion_sums(), int_matrices()))
@example(block_diag(companion_matrix(Poly([1, 0, 1]) ** 2), companion_matrix(Poly([1, 0, 1])),
                    companion_matrix(Poly([-2, 1]) ** 2)))
def test_invariant_factors_match_smith_reference(m):
    assert invariant_factors(m) == reference_invariant_factors(m)


def _similar(blocks, seed, dense):
    """block_diag of the companion matrices of blocks under a seeded
    similarity u: dense, u = L U with L unit lower and U upper triangular,
    entries in [-2, 2] and diagonal entries +-1, +-2; otherwise a
    permutation, which keeps unit vectors inside single blocks, so the
    maximal vector is merged from several of them."""
    b = block_diag(*[companion_matrix(p) for p in blocks])
    n, rng = b.rows, random.Random(seed)
    if not dense:
        order = list(range(n))
        rng.shuffle(order)
        u = Matrix(n, n, [int(j == order[i]) for i in range(n) for j in range(n)])
        return u @ b @ u.transpose()
    lower = Matrix(n, n, [1 if i == j else (rng.randint(-2, 2) if i > j else 0)
                          for i in range(n) for j in range(n)])
    upper = Matrix(n, n, [rng.choice((-2, -1, 1, 2)) if i == j else
                          (rng.randint(-2, 2) if i < j else 0)
                          for i in range(n) for j in range(n)])
    u = lower @ upper
    return u @ b @ inverse(u)


@st.composite
def repeated_companion_sums(draw):
    """2-6 copies each of one to three of the blocks (t-a)(t-b)^2, t^2 + 1
    and (t-a)^2, at most 18 rows, under a dense or a permutation similarity:
    many equal invariant factors, each with a repeated root or no rational
    one."""
    a, b = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
    kinds = (Poly.from_roots([a, b, b]), Poly([1, 0, 1]), Poly.from_roots([a, a]))
    blocks = []
    for k in draw(st.lists(st.sampled_from(range(3)), min_size=1, max_size=3, unique=True)):
        room = (18 - sum(p.degree for p in blocks)) // kinds[k].degree
        if room >= 2:
            blocks += [kinds[k]] * draw(st.integers(2, min(6, room)))
    return _similar(blocks, draw(st.integers(0, 2 ** 32)), draw(st.booleans()))


def _sympy_smith_invariant_factors(m):
    # sympy's own Smith form of tI - m over Q[t]; the minors oracle above
    # takes seconds per 8 x 8 input with four equal factors
    t = sympy.Symbol("t")
    sm = t * sympy.eye(m.rows) - to_sympy(m)
    return [sympy.Poly(f, t).monic().as_expr()
            for f in smith_invariant_factors(sm, domain=sympy.QQ[t])
            if sympy.Poly(f, t).degree() >= 1]


@settings(max_examples=30, deadline=None)
@given(repeated_companion_sums())
@example(_similar([Poly.from_roots([2, 3, 3])] * 6, 0, True))
def test_invariant_factors_with_many_equal_factors(m):
    got = invariant_factors(m)
    assert got == reference_invariant_factors(m)
    if m.rows <= 8:
        assert [_poly_to_sympy(p).as_expr() for p in got] == _sympy_smith_invariant_factors(m)
    if m.rows <= 4:
        assert [_poly_to_sympy(p) for p in got] == _sympy_invariant_factors(m)


def test_rank_transpose_property():
    rng = random.Random(42)
    for _ in range(200):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, r, c, scale=4)
        assert rank(m) == rank(m.transpose())


def test_dimension_formula_property():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 6)
        u = image_basis(random_matrix(rng, n, rng.randint(0, n)))
        v = image_basis(random_matrix(rng, n, rng.randint(0, n)))
        lhs = subspace_intersect(u, v).dim + subspace_sum(u, v).dim
        assert lhs == u.dim + v.dim


def test_stack_helpers():
    a = Matrix.identity(2)
    b = Matrix.zeros(2, 1)
    assert hstack(a, b).cols == 3
    assert vstack(a, Matrix.zeros(1, 2)).rows == 3
    assert block_diag(a, Matrix.identity(1)) == Matrix.identity(3)


# -- reference Fraction kernels -------------------------------------------------
#
# The Fraction inner loops the integer kernels replaced: a row-times-row
# product, and back-substitution through the plain Bareiss echelon.


def _ref_int_rows(m):
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


def ref_matmul(a, b):
    n, k, m = a.rows, a.cols, b.cols
    out = [Fraction(0)] * (n * m)
    brows = [b.row(t) for t in range(k)]
    for i in range(n):
        arow = a.row(i)
        acc = [Fraction(0)] * m
        for t in range(k):
            x = arow[t]
            if x == 0:
                continue
            brow = brows[t]
            for j in range(m):
                if brow[j] != 0:
                    acc[j] += x * brow[j]
        out[i * m:(i + 1) * m] = acc
    return Matrix(n, m, out)


def ref_kernel(m):
    """Kernel basis matrix, one column per free column with free var = 1."""
    if m.cols == 0:
        return Matrix.zeros(0, 0)
    if m.rows == 0:
        return Matrix.identity(m.cols)
    ech, pivots = _echelon(_ref_int_rows(m))
    ncols = m.cols
    free = [c for c in range(ncols) if c not in set(pivots)]
    cols = []
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
        cols.append(Matrix.column(x))
    return hstack(*cols) if cols else Matrix.zeros(ncols, 0)


def ref_solve(a, b):
    """Solution with free variables 0, or None when inconsistent."""
    if a.cols == 0:
        return Matrix.zeros(0, b.cols) if b.is_zero else None
    ech, pivots = _echelon(_ref_int_rows(hstack(a, b)))
    n = a.cols
    if any(c >= n for c in pivots):
        return None
    cols = []
    for k in range(b.cols):
        x = [Fraction(0)] * n
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = ech[r]
            s = Fraction(row[n + k])
            s -= sum((row[c] * x[c] for c in range(pc + 1, n) if x[c] != 0), Fraction(0))
            x[pc] = s / row[pc]
        cols.append(Matrix.column(x))
    x_full = hstack(*cols) if cols else Matrix.zeros(n, 0)
    return x_full if ref_matmul(a, x_full) == b else None


_entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def matrices(draw, rows=None, cols=None):
    """Rational matrices with 0..6 rows/cols, sparse, full or rank-deficient."""
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 6)) if cols is None else cols
    kind = draw(st.sampled_from(("dense", "sparse", "low-rank")))
    if kind == "low-rank" and r and c:
        k = draw(st.integers(0, min(r, c) - 1))
        left = Matrix(r, k, draw(st.lists(_entries, min_size=r * k, max_size=r * k)))
        right = Matrix(k, c, draw(st.lists(_entries, min_size=k * c, max_size=k * c)))
        return ref_matmul(left, right)
    cell = st.one_of(st.just(Fraction(0)), _entries) if kind == "sparse" else _entries
    return Matrix(r, c, draw(st.lists(cell, min_size=r * c, max_size=r * c)))


@st.composite
def products(draw):
    a = draw(matrices())
    return a, draw(matrices(rows=a.cols))


@st.composite
def systems(draw):
    """(a, b): b either arbitrary (often inconsistent) or a @ x (consistent)."""
    a = draw(matrices())
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return a, draw(matrices(rows=a.rows, cols=k))
    return a, ref_matmul(a, draw(matrices(rows=a.cols, cols=k)))


@settings(max_examples=300, deadline=None)
@given(products())
def test_matmul_matches_reference(ab):
    a, b = ab
    assert (a @ b).data == ref_matmul(a, b).data


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_matches_reference(m):
    got = kernel_basis(m).basis
    want = ref_kernel(m)
    assert (got.rows, got.cols, got.data) == (want.rows, want.cols, want.data)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_right_matches_reference(ab):
    a, b = ab
    want = ref_solve(a, b)
    for cells in _SWITCHES:
        with mock.patch.object(linalg, "_MODULAR_CELLS", cells):
            got = solve_right(a, b)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.rows, got.cols, got.data) == (want.rows, want.cols, want.data)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_inverse_matches_reference(m):
    want = ref_solve(m, Matrix.identity(m.rows))
    for cells in _SWITCHES:
        with mock.patch.object(linalg, "_MODULAR_CELLS", cells):
            if want is None:
                with pytest.raises(ValueError):
                    inverse(m)
            else:
                assert inverse(m).data == want.data


# -- integer storage ------------------------------------------------------------
#
# A Matrix holds integer numerators over one canonical denominator; every
# operation must give the entries that plain Fraction arithmetic gives.


def _ref_int_cols(m):
    """Each column times the least common denominator of its entries."""
    out = []
    for j in range(m.cols):
        col = m.col(j)
        den = 1
        for x in col:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in col])
    return out


def _ref_block_diag(*ms):
    cols = sum(m.cols for m in ms)
    out, c0 = [], 0
    for m in ms:
        for i in range(m.rows):
            out.extend([Fraction(0)] * c0 + list(m.row(i)) + [Fraction(0)] * (cols - c0 - m.cols))
        c0 += m.cols
    return out


def _canonical(m):
    return (len(m.num) == m.rows * m.cols and m.den > 0 and gcd(m.den, *m.num) == 1
            and all(type(v) is int for v in m.num))


@st.composite
def operands(draw):
    """A matrix a with one partner for each operation: b of its shape, a
    right factor e, c with its rows, d with its columns, a scalar and row
    and column index lists (repeats allowed)."""
    a = draw(matrices())
    b = draw(matrices(rows=a.rows, cols=a.cols))
    e = draw(matrices(rows=a.cols))
    c = draw(matrices(rows=a.rows))
    d = draw(matrices(cols=a.cols))
    s = draw(st.one_of(st.just(Fraction(0)), _entries, st.builds(lambda x: -x, _entries)))
    ri = draw(st.lists(st.integers(0, a.rows - 1), max_size=6)) if a.rows else []
    ci = draw(st.lists(st.integers(0, a.cols - 1), max_size=6)) if a.cols else []
    return a, b, e, c, d, s, ri, ci


@settings(max_examples=300, deadline=None)
@given(operands())
def test_storage_ops_match_fraction_reference(drawn):
    a, b, e, c, d, s, ri, ci = drawn
    n = a.cols
    cases = [
        (a @ e, ref_matmul(a, e).data),
        (a + b, [x + y for x, y in zip(a.data, b.data)]),
        (a - b, [x - y for x, y in zip(a.data, b.data)]),
        (a.scale(s), [s * x for x in a.data]),
        (-a, [-x for x in a.data]),
        (a.transpose(), [a.data[i * n + j] for j in range(n) for i in range(a.rows)]),
        (a.submatrix(ri, ci), [a.data[i * n + j] for i in ri for j in ci]),
        (hstack(a, c), [x for i in range(a.rows) for x in a.row(i) + c.row(i)]),
        (vstack(a, d), a.data + d.data),
        (block_diag(a, d, c), _ref_block_diag(a, d, c)),
    ]
    for got, want in cases:
        want = tuple(want)
        assert got.data == want
        assert _canonical(got)
        # a matrix built from the same Fractions is the same matrix
        fresh = Matrix(got.rows, got.cols, want)
        assert (fresh.num, fresh.den) == (got.num, got.den)
        assert fresh == got and hash(fresh) == hash(got)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_equality_and_hash_follow_the_entries(m, data):
    # a sparse partner of the same shape often shares entries, sometimes all
    other = data.draw(st.sampled_from([m, m.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
                                       m + Matrix.zeros(m.rows, m.cols), -(-m),
                                       m.transpose().transpose(), Matrix.zeros(m.rows, m.cols),
                                       data.draw(matrices(rows=m.rows, cols=m.cols))]))
    assert _canonical(m) and _canonical(other)
    assert (m == other) == (m.data == other.data)
    if m == other:
        assert hash(m) == hash(other)
    assert linalg._int_rows(m) == _ref_int_rows(m)
    assert linalg._int_cols(m) == _ref_int_cols(m)


def test_canonical_form_examples():
    m = Matrix(1, 3, [Fraction(1, 2), Fraction(-1, 3), 2])
    assert (m.num, m.den) == ((3, -2, 12), 6)
    assert (m.scale(6).num, m.scale(6).den) == ((3, -2, 12), 1)
    assert Matrix(1, 1, [Fraction(2, 4)]).num == (1,)
    zero = m.scale(0)
    assert (zero.num, zero.den) == ((0, 0, 0), 1) and zero == Matrix.zeros(1, 3)
    assert m - m == Matrix.zeros(1, 3) and (m - m).den == 1
    assert Matrix.zeros(0, 4).den == 1 and Matrix.identity(0) == Matrix.zeros(0, 0)
    assert m != m.transpose() and Matrix.zeros(2, 3) != Matrix.zeros(3, 2)
    with pytest.raises(AttributeError):
        m.den = 2


# [[1, 2], [3, 4]] is the smallest system whose last Bareiss pivot is
# negative: (1 * 4 - 3 * 2) / 1 = -2.  Results are read off the reduced form
# over that pivot, so their sign must be normalized.
_NEGATIVE_PIVOT = Matrix.from_rows([[1, 2, 1], [3, 4, 1]])


def test_negative_last_pivot():
    with mock.patch.object(linalg, "_MODULAR_CELLS", float("inf")):
        pivots, free, nums, d = linalg._rref(linalg._int_rows(_NEGATIVE_PIVOT), 3)
        assert (pivots, free, d) == ([0, 1], [2], -2)
        ker = kernel_basis(_NEGATIVE_PIVOT)
        assert ker.basis == ref_kernel(_NEGATIVE_PIVOT) == Matrix.column([1, -1, 1])
        a = _NEGATIVE_PIVOT.submatrix(range(2), range(2))
        x = solve_right(a, Matrix.column([1, 1]))
        assert x == Matrix.column([-1, 1]) and a @ x == Matrix.column([1, 1])
        inv = inverse(a)
        assert inv == Matrix.from_rows([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
        assert (inv.num, inv.den) == ((-4, 2, 3, -1), 2)
        rows = linalg._int_rows(_NEGATIVE_PIVOT)
        assert _echelon_key(rows) == ((1, 0, -1), (0, 1, 1))
        assert linalg._kernel_vectors(linalg._int_rows(_NEGATIVE_PIVOT), 3) == [[1, -1, 1]]


def test_is_invertible_modular_screen():
    # from _MODULAR_CELLS cells the rank is read off the proven modular form,
    # which returns at the first prime of full rank; a forced small prime
    # makes a matrix of det 5 singular there, and the next prime decides.
    # No 16 x 16 case reaches the Bareiss pass, a 2 x 2 one does
    n = 16
    assert n * n >= linalg._MODULAR_CELLS
    twin = Matrix.identity(n).submatrix([0] + list(range(n - 1)), range(n))
    fifth = Matrix.diag([Fraction(1, 5)] + [1] * (n - 1))  # numerators diag(1, 5, ..., 5)
    real = _echelon
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    with _drawn_first(5), mock.patch.object(linalg, "_echelon", counting):
        assert linalg.is_invertible(Matrix.identity(n))
        assert linalg.is_invertible(Matrix.diag([5] + [1] * (n - 1)))
        assert linalg.is_invertible(fifth)
        assert not linalg.is_invertible(twin)
        assert not linalg.is_invertible(Matrix.zeros(n, n + 1))
        assert calls == []
        assert linalg.is_invertible(Matrix.diag([5, 1])) and calls == [2]


# -- canonical span keys -------------------------------------------------------


@st.composite
def row_spans(draw):
    """Integer rows of a matrix, the rows of a second matrix with as many
    columns, and a seed for mixing."""
    a = draw(matrices())
    b = draw(matrices(cols=a.cols))
    return _ref_int_rows(a), _ref_int_rows(b), a.cols, draw(st.integers(0, 2 ** 20))


def _mixed(rows, n, rng):
    """Another spanning set of the same span: an invertible integer change
    of rows, each row scaled, plus a dependent row."""
    r = len(rows)
    while True:
        t = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        if rank(Matrix.from_rows(t, cols=r)) == r:
            break
    scales = [rng.choice((-2, 1, 3)) for _ in range(r)]
    out = [[scales[i] * sum(t[i][k] * rows[k][j] for k in range(r)) for j in range(n)]
           for i in range(r)]
    if r:
        out.append([sum(row[j] for row in rows) for j in range(n)])
    return out


def _span_rank(rows, n):
    return rank(Matrix.from_rows(rows, cols=n)) if rows else 0


@settings(max_examples=300, deadline=None)
@given(row_spans())
def test_echelon_key_is_canonical(drawn):
    rows, other, n, seed = drawn
    for cells in _SWITCHES:
        with mock.patch.object(linalg, "_MODULAR_CELLS", cells):
            key = _echelon_key([list(r) for r in rows])
            assert _echelon_key(_mixed(rows, n, random.Random(seed))) == key
            assert len(key) == _span_rank(rows, n)
            # the key is the reduced row echelon form up to a positive scale per row
            rref = to_sympy(Matrix.from_rows(rows, cols=n)).rref()[0] if key else None
            for i, row in enumerate(key):
                lead = next(v for v in row if v)
                assert lead > 0 and gcd(*row) == 1
                assert [sympy.Rational(v, lead) for v in row] == list(rref.row(i))
            same = _span_rank(rows, n) == _span_rank(other, n) == _span_rank(rows + other, n)
            assert (_echelon_key([list(r) for r in other]) == key) == same


@settings(max_examples=300, deadline=None)
@given(row_spans())
def test_annihilator_key_spans_the_annihilator(drawn):
    rows, _, n, _ = drawn
    key = _echelon_key([list(r) for r in rows])
    ann = _annihilator(key, n)
    assert len(key) + len(ann) == n
    for a in ann:
        assert all(sum(x * y for x, y in zip(k, reversed(a))) == 0 for k in key)
    # a canonical key of the reversed annihilator, and an involution
    assert _echelon_key([list(a) for a in ann]) == ann
    assert _annihilator(ann, n) == key


# -- multi-modular kernel --------------------------------------------------------
#
# The Bareiss pass is the oracle: with the switch at 0 every nonempty system
# takes the modular path, and its basis must equal the Bareiss one entry for
# entry.


def _bareiss_kernel(rows, cols):
    with mock.patch.object(linalg, "_MODULAR_CELLS", float("inf")):
        return _int_kernel([list(r) for r in rows], cols)


def _switched_kernel(rows, cols):
    with mock.patch.object(linalg, "_MODULAR_CELLS", 0):
        return _int_kernel([list(r) for r in rows], cols)


def _same_kernel(got, want):
    return (got.dim, got.basis.rows, got.basis.data) == (want.dim, want.basis.rows, want.basis.data)


_small = st.integers(-9, 9)
_huge = st.one_of(_small, st.integers(2 ** 62, 2 ** 70), st.integers(-2 ** 70, -2 ** 62))
_tall_height = st.integers(-2 ** 40, 2 ** 40)


@st.composite
def int_systems(draw):
    """Integer rows and a column count: dense, sparse, rank-deficient,
    tall (mostly full column rank, so a zero kernel), entries at or beyond
    2**62, and wide systems whose kernel needs several primes."""
    kind = draw(st.sampled_from(("dense", "sparse", "low-rank", "tall", "huge", "height")))
    c = draw(st.integers(1, 7))
    r = draw(st.integers(c, c + 3) if kind == "tall" else st.integers(1, 7))
    if kind == "height":
        r = max(c - 1, 1)

    def grid(nr, nc, cell):
        return [draw(st.lists(cell, min_size=nc, max_size=nc)) for _ in range(nr)]

    if kind == "low-rank":
        k = draw(st.integers(0, min(r, c) - 1))
        left, right = grid(r, k, _small), grid(k, c, _small)
        return [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(c)]
                for row in left], c
    cell = {"sparse": st.one_of(st.just(0), _small), "huge": _huge,
            "height": _tall_height}.get(kind, _small)
    return grid(r, c, cell), c


@settings(max_examples=300, deadline=None)
@given(int_systems())
def test_modular_kernel_matches_bareiss(drawn):
    rows, cols = drawn
    assert _modular_kernel(rows, cols) is not None  # proven, no fallback
    assert _same_kernel(_switched_kernel(rows, cols), _bareiss_kernel(rows, cols))


@st.composite
def kernel_systems(draw):
    """Integer rows and a column count: `int_systems`, no rows or rows of
    width 0, rows led by [[1, 2], [3, 4]] (a last Bareiss pivot of -2)
    beside zero rows, and wide systems, some of low rank, of at least
    `_MODULAR_CELLS` cells."""
    kind = draw(st.sampled_from(("drawn", "empty", "negative", "large")))
    if kind == "drawn":
        return draw(int_systems())
    if kind == "empty":
        c = draw(st.integers(0, 4))
        return [[0] * c for _ in range(draw(st.integers(0, 3)))], c
    if kind == "negative":
        c = draw(st.integers(2, 6))
        rows = [[1, 2] + draw(st.lists(_small, min_size=c - 2, max_size=c - 2)),
                [3, 4] + draw(st.lists(_small, min_size=c - 2, max_size=c - 2))]
        return rows + [[0] * c for _ in range(draw(st.integers(0, 2)))], c
    c = draw(st.integers(17, 22))
    r = draw(st.integers(-(-linalg._MODULAR_CELLS // c), c - 1))
    k = draw(st.integers(1, r))
    left = [draw(st.lists(_small, min_size=k, max_size=k)) for _ in range(r)]
    right = [draw(st.lists(_small, min_size=c, max_size=c)) for _ in range(k)]
    return [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(c)]
            for row in left], c


@settings(max_examples=200, deadline=None)
@given(kernel_systems())
def test_kernel_vectors_are_the_kernel_basis_columns_over_their_denominators(drawn):
    rows, cols = drawn
    want = linalg._int_cols(_int_kernel([list(r) for r in rows], cols).basis)
    assert linalg._kernel_vectors([list(r) for r in rows], cols) == want


def reference_reduced_echelon(rows):
    """Fraction-free Gauss-Jordan on integer rows (consumed): the Bareiss
    update of `linalg._echelon` run on the rows above the pivot as well, so
    every pivot row has zeros in the other pivot columns and the last pivot
    d in its own, and the reduced row echelon form is the rows over d.
    Returns the nonzero rows, the pivot columns and the row swap sign."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots, sign, prev, r = [], 1, 1, 0
    for c in range(nc):
        if r >= nr:
            break
        hits = [i for i in range(r, nr) if rows[i][c]]
        if not hits:
            continue
        piv = min(hits, key=lambda i: abs(rows[i][c]))  # the first of least size
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p, rrow = rows[r][c], rows[r]
        for i in range(nr):
            if i == r:
                continue
            # rows above are zero left of their own pivot, rows below left of c
            lo = pivots[i] if i < r else c
            f = rows[i][c]
            rows[i][lo:] = [(p * x - f * y) // prev for x, y in zip(rows[i][lo:], rrow[lo:])]
        prev = p
        pivots.append(c)
        r += 1
    return rows[:r], pivots, sign


def reference_rref(rows, cols):
    """`linalg._rref`'s (pivots, free columns, numerators, d), read off
    `reference_reduced_echelon` of a copy of the rows."""
    ech, pivots, _ = reference_reduced_echelon([list(r) for r in rows])
    free = [c for c in range(cols) if c not in pivots]
    d = ech[-1][pivots[-1]] if pivots else 1
    return pivots, free, [row[f] for row in ech for f in free], d


def _bareiss_key(rows):
    """The span key as the reduced Bareiss rows made primitive, pivots positive."""
    ech, pivots, _ = reference_reduced_echelon([list(r) for r in rows])
    out = []
    for row, pc in zip(ech, pivots):
        g = gcd(*row)
        g = g if row[pc] > 0 else -g
        out.append(tuple(v // g for v in row))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(int_systems())
def test_pivots_match_reference(drawn):
    # rank, image_basis and _echelon_key read off `linalg._pivots` and
    # `_rref`, on either side of the switch
    rows, cols = drawn
    m = Matrix.from_rows(rows)
    ref, ref_pivots = to_sympy(m).rref()
    want_key = _bareiss_key(rows)
    for cells in _SWITCHES:
        with mock.patch.object(linalg, "_MODULAR_CELLS", cells):
            assert rank(m) == len(ref_pivots) == to_sympy(m).rank()
            assert image_basis(m).basis == m.submatrix(range(m.rows), ref_pivots)
            assert _echelon_key([list(r) for r in rows]) == want_key


# -- the reduced form by back-substitution ---------------------------------------
#
# Below the switch `_rref` back-substitutes the reduced form from one forward
# Bareiss pass; the Gauss-Jordan pass it replaced is the oracle, entry for entry.


def _bareiss_rref(rows, cols):
    with mock.patch.object(linalg, "_MODULAR_CELLS", float("inf")):
        return linalg._rref([list(r) for r in rows], cols)


@settings(max_examples=300, deadline=None)
@given(int_systems())
def test_rref_matches_gauss_jordan_reference(drawn):
    rows, cols = drawn
    assert _bareiss_rref(rows, cols) == reference_rref(rows, cols)


@pytest.mark.parametrize("rows, cols, want", [
    # rank 0, with and without rows
    ([[0, 0, 0], [0, 0, 0]], 3, ([], [0, 1, 2], [], 1)),
    ([], 2, ([], [0, 1], [], 1)),
    # zero and dependent rows below the rank
    ([[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 0, 1]], 3, ([0, 1], [2], [-2, -2], -2)),
    # the negative last pivot of [[1, 2], [3, 4]]
    ([[1, 2, 1], [3, 4, 1]], 3, ([0, 1], [2], [2, -2], -2)),
    # wide: free columns left of, between and right of the pivots
    ([[0, 3, 1, 1, 2], [0, 6, 2, 5, 1]], 5, ([1, 3], [0, 2, 4], [0, 3, 9, 0, 0, -9], 9)),
    # tall, of full column rank: no free column
    ([[2, 1], [4, 3], [6, 5], [1, 1]], 2, ([0, 1], [], [], -1)),
    # prev == 1 on the first step; p == prev on the later ones, with rows
    # that are zero in the pivot column left as they are
    ([[2, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], 4, ([0, 1, 2], [3], [1, 2, 2], 2)),
])
def test_rref_pinned_cases(rows, cols, want):
    assert _bareiss_rref(rows, cols) == reference_rref(rows, cols) == want


def test_echelon_prev_and_equal_pivot_steps():
    # the pivots 2, 2, 2: after the first step every update divides by 2 and
    # a row with a zero in the pivot column is already scaled by p / prev = 1
    assert _echelon([[2, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]) == \
        ([[2, 0, 0, 1], [0, 2, 0, 2], [0, 0, 2, 2]], [0, 1, 2])
    # a pivot of 1 first: no division, and the eliminated entry set to 0
    assert _echelon([[3, 4, 5], [1, 2, 3]]) == ([[1, 2, 3], [0, -2, -4]], [0, 1])


# The 64 largest primes below 2**31, the modular core's fixed table before
# primes were drawn on demand: every system it lifted keeps its primes.
_OLD_TABLE = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921, 2147482877, 2147482873, 2147482867, 2147482859,
    2147482819, 2147482817, 2147482811, 2147482801, 2147482763, 2147482739,
    2147482697, 2147482693, 2147482681, 2147482663, 2147482661, 2147482621,
    2147482591, 2147482583, 2147482577, 2147482507, 2147482501, 2147482481,
    2147482417, 2147482409, 2147482367, 2147482361, 2147482349, 2147482343,
    2147482327, 2147482291, 2147482273, 2147482237,
)


def _drawn_first(*small):
    """Patch the prime source to draw `small` first and then the real
    primes; the real source's cache never sees the small ones."""
    real = linalg._prime
    return mock.patch.object(
        linalg, "_prime", lambda i: small[i] if i < len(small) else real(i - len(small)))


def test_modular_primes_are_distinct_31_bit_primes():
    drawn = [linalg._prime(i) for i in range(64)]
    assert tuple(drawn) == _OLD_TABLE
    assert len(set(drawn)) == len(drawn)
    assert all(p < 2 ** 31 and sympy.isprime(p) for p in drawn)


def test_is_prime_matches_sympy():
    for n in itertools.chain(range(2000), range(2 ** 31 - 20000, 2 ** 31)):
        assert linalg._is_prime(n) == sympy.isprime(n), n
    # a strong pseudoprime to the bases 2, 3 and 5: base 7 rejects it
    assert mr(25326001, [2, 3, 5]) and not sympy.isprime(25326001)
    assert not linalg._is_prime(25326001)


def test_prime_source_is_the_prevprime_chain():
    p = 2 ** 31
    for i in range(2000):
        p = sympy.prevprime(p)
        assert linalg._prime(i) == p, i


def _primes_seen(seen):
    """Patch `_rref_mod` to record the prime of each call in `seen`."""
    real = _rref_mod
    return mock.patch.object(linalg, "_rref_mod", lambda a, p: seen.append(p) or real(a, p))


def _reduced(rref):
    """Pivots, free columns and the reduced form's entries as Fractions: the
    modular d and the Bareiss d may differ in sign."""
    pivots, free, nums, d = rref
    return pivots, free, [Fraction(v, d) for v in nums]


# 3 divides the leading entries, so modulo 3 the first pivot moves right;
# modulo 7 the second does.  The reduced form has entries -13/21 and -5/7.
_BAD_PRIME_ROWS = [[3, -1, -4, -1], [-3, 1, -3, -4]]


def test_modular_kernel_skips_bad_primes():
    true = reference_reduced_echelon([list(r) for r in _BAD_PRIME_ROWS])[1]
    assert true == [0, 2]
    seen = []

    def recording(a, p):
        pivots = real(a, p)
        seen.append((p, pivots))
        return pivots

    real = _rref_mod
    with _drawn_first(3, 5, 7, 11, 13), mock.patch.object(linalg, "_rref_mod", recording):
        assert _reduced(_modular_kernel(_BAD_PRIME_ROWS, 4)) == \
            _reduced(reference_rref(_BAD_PRIME_ROWS, 4))
        got = _switched_kernel(_BAD_PRIME_ROWS, 4)
    # 3 is kept until 5 restarts the remaindering; 7 is skipped
    assert seen[:5] == [(3, [1, 2]), (5, true), (7, [0, 3]), (11, true), (13, true)]
    assert _same_kernel(got, _bareiss_kernel(_BAD_PRIME_ROWS, 4))
    assert got.basis.col(0)[2] == 0 and Fraction(-13, 21) in got.basis.data


def test_modular_kernel_draws_past_bad_primes():
    # 5 * 11 cannot reconstruct -13/21, so the lift goes on to the 31-bit
    # primes and proves the reduced form there
    seen = []
    with _drawn_first(3, 5, 7, 11), _primes_seen(seen):
        assert _reduced(_modular_kernel(_BAD_PRIME_ROWS, 4)) == \
            _reduced(reference_rref(_BAD_PRIME_ROWS, 4))
        got = _switched_kernel(_BAD_PRIME_ROWS, 4)
    assert seen[:5] == [3, 5, 7, 11, 2 ** 31 - 1]
    assert _same_kernel(got, _bareiss_kernel(_BAD_PRIME_ROWS, 4))
    # the patched source left the real one's cache alone
    assert linalg._prime(0) == 2 ** 31 - 1 and min(linalg._primes) > 2 ** 30


def test_modular_kernel_lifts_past_the_old_table():
    # a 24 x 25 system with 60-bit entries: the reduced form has a 1459-bit
    # d, which takes 95 primes, more than the 64 of the old table
    rng = random.Random(0)
    rows = [[rng.randrange(-2 ** 60, 2 ** 60) for _ in range(25)] for _ in range(24)]
    seen = []
    with _primes_seen(seen):
        got = _modular_kernel(rows, 25)
    assert len(seen) > len(_OLD_TABLE) and got[3].bit_length() == 1459
    assert _reduced(got) == _reduced(_bareiss_rref(rows, 25))
    assert _same_kernel(_int_kernel([list(r) for r in rows], 25), _bareiss_kernel(rows, 25))


PERTURBED_LIFT = """
import random, sys
from sblq import linalg

if not sys.flags.optimize:
    sys.exit("not running under -O")
real, perturbed = linalg._lift, []

def perturbing(residues, m):
    # the first three candidates come back one entry off
    out = real(residues, m)
    if out is None or len(perturbed) == 3:
        return out
    perturbed.append(m)
    nums, d = out
    return [nums[0] + 1] + nums[1:], d

rng = random.Random(5)
rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(9)]
square = linalg.Matrix(9, 9, [v for r in rows for v in r[:9]])
linalg._MODULAR_CELLS = float("inf")
want = linalg._int_kernel([list(r) for r in rows], 12)
want_inv = linalg.inverse(square)
linalg._lift = perturbing
linalg._MODULAR_CELLS = 0
got = linalg._int_kernel([list(r) for r in rows], 12)
print("basis:", len(perturbed), got.basis.data == want.basis.data and got.dim == want.dim == 3)
perturbed.clear()
inv = linalg.inverse(square)
print("inverse:", len(perturbed), inv.data == want_inv.data)
"""


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sblq.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_modular_kernel_proof_survives_optimize():
    # lifts one entry off must be caught by the proof, and the lift must go on
    # to the exact answer, for a kernel and for an inverse
    proc = _run("-O", "-c", PERTURBED_LIFT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["basis: 3 True", "inverse: 3 True"]


def test_import_does_not_load_numpy():
    proc = _run("-c", "import sblq, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


NUMERIC_STACK = """
import sys

def numeric_stack():
    return sorted(m for m in ("numpy", "scipy") if sys.modules.get(m) is not None)
"""

EXACT_COMMANDS = NUMERIC_STACK + """
import contextlib, io
from importlib import resources

if sys.argv[1:] == ["blocked"]:
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import sblq.cli
from sblq.fixtures import FIXTURE_NAMES, SHIPPED_FIXTURES

print("import:", numeric_stack())
runs = [["fixtures", "--list"]] + [["fixtures", name] for name in FIXTURE_NAMES]
for name in SHIPPED_FIXTURES:
    path = str(resources.files("sblq").joinpath(f"fixtures/{name}.json"))
    runs += [["validate", path, "--report", "json"]]
    runs += [[command, path, "--report", "json", *extra]
             for command in ("classify", "decompose")
             for extra in ((), ("--certificates",))]
failed = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        if sblq.cli.main(argv) != 0:
            failed.append(argv)
print("runs:", len(runs), "failed:", failed)
print("after:", numeric_stack())
"""


@pytest.mark.parametrize("scipy", ["importable", "blocked"])
def test_exact_commands_leave_the_numeric_stack_unloaded(scipy):
    # importing the CLI and running every exact command on every shipped
    # fixture needs neither numpy nor scipy, and works without scipy at all
    proc = _run("-c", EXACT_COMMANDS, scipy)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import: []", "runs: 66 failed: []", "after: []"]


NUMERIC_COMMANDS = NUMERIC_STACK + """
import contextlib, io
from importlib import resources

sys.modules["scipy.special"] = None  # any import of scipy.special now raises ImportError
import sblq.cli

path = str(resources.files("sblq").joinpath("fixtures/bht.json"))
codes = []
for argv in (["rotations", "verify"], ["numcheck", "eval", path],
             ["numcheck", "equiv", path], ["numcheck", "mikhlin", "bump"],
             ["numcheck", "mikhlin", "extended"], ["numcheck", "delta", path]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(sblq.cli.main(argv))
print("codes:", codes)
print("after:", numeric_stack())

from sblq.numcheck import MultiplierBump

del sys.modules["scipy.special"]
MultiplierBump(1, 0.5, 2.0).spatial([[0.3]])
print("bump 1:", "scipy.special" in sys.modules)
MultiplierBump(2, 0.5, 2.0).spatial([[0.3, 0.4]])
print("bump 2:", "scipy.special" in sys.modules)
"""


def test_numeric_commands_never_load_scipy_special():
    # every numeric command runs on numpy alone; the one use of scipy left is
    # J0 in the spatial profile of a two-dimensional multiplier bump
    proc = _run("-c", NUMERIC_COMMANDS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "codes: [0, 0, 0, 0, 0, 0]", "after: ['numpy']",
        "bump 1: False", "bump 2: True"]
