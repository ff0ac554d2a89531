from fractions import Fraction

import pytest

from sblq.polynomials import (
    Poly, format_poly, poly_gcd, squarefree_part,
    sturm_real_roots,
)


def P(*coeffs):
    return Poly(coeffs)


def test_ring_arithmetic():
    p = P(1, 2)          # 1 + 2t
    q = P(-1, 0, 1)      # t^2 - 1
    assert (p + q) == P(0, 2, 1)
    assert (p * q) == P(-1, -2, 1, 2)
    assert (q - q).is_zero
    assert (p ** 3) == p * p * p
    assert q(2) == 3
    assert q(Fraction(1, 2)) == Fraction(-3, 4)


def test_divmod_and_gcd():
    a = P(-2, 0, 1) * P(-3, 1)          # (t^2-2)(t-3)
    q, r = a.divmod(P(-3, 1))
    assert r.is_zero and q == P(-2, 0, 1)
    g = poly_gcd(a, P(-3, 1) * P(5, 1))
    assert g == P(-3, 1)


def test_squarefree_part():
    p = P(-1, 1) ** 3 * P(2, 1)
    assert squarefree_part(p) == (P(-1, 1) * P(2, 1)).monic()


def test_format_poly_examples():
    want = ["0", "5", "t - 1", "t^3 - 2*t^2 + 1/3", "-t"]
    ps = [P(0), P(5), P(-1, 1), P(Fraction(1, 3), 0, -2, 1), P(0, -1)]
    assert [format_poly(p) for p in ps] == want


def _bisect_root(p, lo, hi, prec):
    # independent bisection oracle: sign change bracketing
    flo = p(lo)
    while hi - lo > prec:
        mid = (lo + hi) / 2
        fm = p(mid)
        if fm == 0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def test_sturm_sqrt2():
    p = P(-2, 0, 1)
    prec = Fraction(1, 10 ** 6)
    ivs = sturm_real_roots(p, prec)
    assert len(ivs) == 2
    pos = _bisect_root(p, Fraction(1), Fraction(2), prec)
    neg = -pos
    (l1, h1), (l2, h2) = ivs
    assert l1 <= neg <= h1 and l2 <= pos <= h2
    assert h1 - l1 <= prec and h2 - l2 <= prec
    assert h1 < l2


def test_sturm_no_real_roots():
    assert sturm_real_roots(P(1, 0, 1), Fraction(1, 100)) == []


def test_sturm_root_at_zero():
    ivs = sturm_real_roots(P(0, 1), Fraction(1, 100))
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert lo <= 0 <= hi


def test_sturm_repeated_and_clustered_roots():
    p = P(-1, 1) ** 2 * P(-Fraction(101, 100), 1)
    ivs = sturm_real_roots(p, Fraction(1, 10 ** 4))
    assert len(ivs) == 2
    assert all(hi - lo <= Fraction(1, 10 ** 4) for lo, hi in ivs)
    assert ivs[0][1] < ivs[1][0]


def test_sturm_rejects_zero_poly():
    with pytest.raises(ValueError):
        sturm_real_roots(Poly.zero(), Fraction(1, 10))
