import random
from fractions import Fraction

import pytest
import sympy

from sblq.linalg import (
    Matrix, Subspace, block_diag, companion_matrix, det, hstack, image_basis,
    inverse, invariant_factors, is_direct_complement, jordan_block_sizes,
    kernel_basis, rank, rank_power_sequence, solve_right, subspace_intersect,
    subspace_sum, vstack,
)
from sblq.polynomials import Poly


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
    assert k.same_span(Subspace(2, Matrix.column([1, -1])))
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
    assert subspace_intersect(u, u).same_span(u)
    full = Subspace.full(2)
    diag = Subspace(2, Matrix.column([1, 1]))
    assert subspace_intersect(full, diag).same_span(diag)


def test_subspace_sum_examples():
    e1 = Subspace(2, Matrix.column([1, 0]))
    e2 = Subspace(2, Matrix.column([0, 1]))
    assert subspace_sum(e1, e2).dim == 2
    u = Subspace(3, Matrix.from_rows([[1, 0], [2, 1], [0, 3]]))
    assert subspace_sum(u, u).same_span(u)
    diag = Subspace(2, Matrix.column([1, 1]))
    assert subspace_sum(Subspace.full(2), diag).dim == 2


def test_is_direct_complement():
    e1 = Subspace(2, Matrix.column([1, 0]))
    e2 = Subspace(2, Matrix.column([0, 1]))
    assert is_direct_complement(e1, e2)
    assert not is_direct_complement(e1, e1)
    assert is_direct_complement(Subspace.full(2), Subspace.zero(2))


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))
    with pytest.raises(ValueError):
        subspace_intersect(Subspace.full(2), Subspace.full(3))


def test_solve_right_examples():
    b = Matrix.from_rows([[2], [5]])
    assert solve_right(Matrix.identity(2), b) == b
    assert solve_right(Matrix.zeros(2, 2), b) is None
    x = solve_right(Matrix(1, 2, [1, 1]), Matrix(1, 1, [2]))
    assert x == Matrix.from_rows([[2], [0]])  # free variable pinned to zero


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


def test_det_matches_sympy():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert sympy.Rational(det(m)) == to_sympy(m).det()


def test_rank_power_sequence_examples():
    assert rank_power_sequence(jordan0(2), 0, 2) == [2, 1, 0]
    assert rank_power_sequence(Matrix.identity(2), 1, 2) == [2, 0, 0]
    m = block_diag(jordan0(2), jordan0(1))
    # oracle: sympy ranks of powers of the shifted matrix
    sm = to_sympy(m)
    expected = [3] + [(sm ** k).rank() for k in (1, 2)]
    assert expected == [3, 1, 0]
    assert rank_power_sequence(m, 0, 2) == expected
    assert jordan_block_sizes(m, 0) == [2, 1]


def test_rank_power_sequence_differences_nonincreasing():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 6)
        m = random_matrix(rng, n, n, scale=2)
        for lam in (0, 1):
            seq = rank_power_sequence(m, lam, n)
            drops = [seq[k] - seq[k + 1] for k in range(n)]
            assert all(a >= b for a, b in zip(drops, drops[1:]))


def _sympy_invariant_factors(m):
    # independent oracle: gcd of k x k minors of tI - m
    t = sympy.Symbol("t")
    sm = t * sympy.eye(m.rows) - to_sympy(m)
    n = m.rows
    d_prev = sympy.Integer(1)
    out = []
    for k in range(1, n + 1):
        minors = sympy.Matrix(sm).minor_submatrix  # noqa: just to assert api exists
        import itertools
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


def test_invariant_factors_divisibility_and_charpoly():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, scale=2)
        fs = invariant_factors(m)
        for a, b in zip(fs, fs[1:]):
            assert a.divides(b)
        prod = Poly([1])
        for f in fs:
            prod = prod * f
        assert prod.degree == n
        cp = sympy.Poly(to_sympy(m).charpoly().as_expr(), sympy.Symbol("lambda"))
        assert [sympy.Rational(c) for c in prod.coeffs] == list(reversed(cp.all_coeffs()))


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
