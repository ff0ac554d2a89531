import random
from fractions import Fraction

import pytest

from sblq.linalg import Matrix, block_diag, companion_matrix, is_invertible
from sblq.pencil import kronecker_blocks
from sblq.polynomials import Poly
from sblq.tables import arrow_down, arrow_left, arrow_right, arrow_up, eye, jordan, zeros


def random_invertible(rng, n, spread=3):
    while True:
        m = Matrix(n, n, [Fraction(rng.randint(-spread, spread),
                                   rng.randint(1, 2)) for _ in range(n * n)])
        if is_invertible(m):
            return m


def scrambled(a2, a3, rng):
    p = random_invertible(rng, a2.rows)
    q = random_invertible(rng, a2.cols)
    return p @ a2 @ q, p @ a3 @ q


BLOCK_KINDS = ("wide", "tall", "j0", "j1", "jinf", "reg")
# singular kinds drawn twice as often, so that pencils hold several of them
DRAWN_KINDS = BLOCK_KINDS + ("wide", "tall")
REGULAR_ROOTS = [Fraction(-3), Fraction(-2), Fraction(-1), Fraction(1, 2),
                 Fraction(3, 2), Fraction(2), Fraction(3), Fraction(-1, 2)]


def canonical_pencil(blocks):
    """Direct sum of canonical blocks, given as (kind, size, root), plus its expected block data."""
    expected = {kind: [] for kind in BLOCK_KINDS}
    a2s, a3s = [], []
    for kind, n, lam in blocks:
        if kind == "wide":
            a2s.append(arrow_left(n)), a3s.append(arrow_right(n))
        elif kind == "tall":
            a2s.append(arrow_up(n)), a3s.append(arrow_down(n))
        elif kind == "j0":
            a2s.append(eye(n)), a3s.append(jordan(n, 0))
        elif kind == "j1":
            a2s.append(eye(n)), a3s.append(jordan(n, 1))
        elif kind == "jinf":
            a2s.append(jordan(n, 0)), a3s.append(eye(n))
        else:
            poly = Poly.from_roots([lam] * n)
            a2s.append(eye(n)), a3s.append(companion_matrix(poly))
        expected[kind].append(poly if kind == "reg" else n)
    return block_diag(*a2s), block_diag(*a3s), expected


def random_pencil(rng, max_size, max_total):
    """Random direct sum of canonical blocks of size <= max_size, plus its expected block data."""
    blocks = []
    total = 0
    while total < 2 or (total < max_total and rng.random() < 0.8):
        kind = rng.choice(DRAWN_KINDS)
        n = rng.randint(0 if kind in ("wide", "tall") else 1, max_size)
        blocks.append((kind, n, rng.choice(REGULAR_ROOTS)))
        total += max(n, 1)
    return canonical_pencil(blocks)


def oracle_pencils(rng):
    for _ in range(25):
        yield random_pencil(rng, max_size=4, max_total=16)
    # distinct wide indices and distinct tall indices >= 2 side by side
    yield canonical_pencil([("wide", 0, None), ("wide", 1, None), ("wide", 3, None),
                            ("tall", 0, None), ("tall", 2, None), ("j0", 2, None),
                            ("jinf", 1, None), ("reg", 1, Fraction(3, 2))])


def test_kronecker_blocks_random_oracle():
    rng = random.Random(2024)
    for a2, a3, expected in oracle_pencils(rng):
        blocks = kronecker_blocks(*scrambled(a2, a3, rng))
        assert sorted(blocks.wide) == sorted(expected["wide"])
        assert sorted(blocks.tall) == sorted(expected["tall"])
        assert sorted(blocks.jordan_at_0) == sorted(expected["j0"])
        assert sorted(blocks.jordan_at_1) == sorted(expected["j1"])
        assert sorted(blocks.jordan_at_inf) == sorted(expected["jinf"])
        # regular content at invariant-factor granularity
        got = Poly.one()
        for f in blocks.regular_factors:
            got = got * f
        want = Poly.one()
        for f in expected["reg"]:
            want = want * f
        assert got == want
        assert blocks.size_check()


def test_zero_pencil_is_one_wide_one_tall_per_dimension():
    blocks = kronecker_blocks(zeros(2, 3), zeros(2, 3))
    assert sorted(blocks.wide) == [0, 0, 0]
    assert sorted(blocks.tall) == [0, 0]
    assert blocks.size_check()


def test_empty_pencil():
    blocks = kronecker_blocks(zeros(0, 0), zeros(0, 0))
    assert blocks.size_check()
    assert not any((blocks.wide, blocks.tall, blocks.jordan_at_0,
                    blocks.jordan_at_1, blocks.jordan_at_inf,
                    blocks.regular_factors))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        kronecker_blocks(zeros(1, 2), zeros(2, 1))


def test_normalizing_prime_skips_eigenvalues():
    # lambda = -2 makes mu = 2 singular: mu*I + J(-2) at mu = 2 is nilpotent
    a2 = eye(2)
    a3 = jordan(2, -2)
    blocks = kronecker_blocks(a2, a3)
    assert blocks.mu != 2
    assert blocks.regular_factors == (Poly.from_roots([-2, -2]),)
