import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import count

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from sblq.linalg import (
    Matrix, Subspace, block_diag, companion_matrix, hstack, image_basis, inverse,
    is_invertible, kernel_basis, rank, solve_right,
)
from sblq import pencil
from sblq.pencil import PencilBlocks, _image_chain, kronecker_blocks
from sblq.polynomials import Poly
from sblq.tables import arrow_down, arrow_left, arrow_right, arrow_up, eye, jordan, zeros

from spans import subspace_intersect
from test_linalg import reference_invariant_factors


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


def test_every_preimage_is_taken_under_the_pencil_itself(monkeypatch):
    """The Wong steps run on A2 and A3 alone, a x b, given by their integer
    columns: no step runs on a transposed or a quotient pencil."""
    a2, a3, _ = canonical_pencil([("wide", 1, None), ("tall", 2, None), ("tall", 0, None),
                                  ("j0", 1, None), ("jinf", 2, None)])
    rng = random.Random(4)
    p, q = (Matrix.from_rows([[int(i == j) + (rng.randint(-2, 2) if i < j else 0)
                               for j in range(n)] for i in range(n)])
            @ Matrix.from_rows([[int(i == j) + (rng.randint(-2, 2) if i > j else 0)
                                 for j in range(n)] for i in range(n)])
            for n in (a2.rows, a2.cols))
    a2, a3 = p @ a2 @ q, p @ a3 @ q
    own = [[list(m.col(j)) for j in range(m.cols)] for m in (a2, a3)]
    seen = []
    real = pencil._preimage
    monkeypatch.setattr(pencil, "_preimage",
                        lambda m, s, *within: seen.append(m) or real(m, s, *within))
    blocks = kronecker_blocks(a2, a3)
    assert (blocks.wide, blocks.tall) == ((1,), (0, 2))
    assert seen and all(m in own for m in seen)


DROPPED_WONG_VECTOR = textwrap.dedent("""
    import sys
    from sblq import pencil
    from sblq.core import direct_sum_all, module_to_datum
    from sblq.decompose import holder_normal_form
    from sblq.tables import FamilyTag, build

    if not sys.flags.optimize:
        sys.exit("not running under -O")
    form = holder_normal_form(module_to_datum(direct_sum_all(
        [build(FamilyTag(f, n)) for f, n in (("T", 2), ("C", 2), ("J3", 2), ("J1", 1))])))
    pencil.kronecker_blocks(form.a2, form.a3)  # passes unperturbed
    real = getattr(pencil, sys.argv[1])
    if sys.argv[1] == "_meet":
        pencil._meet = lambda cut, w: real(cut, w)[1:]
    else:
        pencil._preimage = lambda m, s, *within: (lambda x, rows: (x[1:], rows))(
            *real(m, s, *within))
    try:
        blocks = pencil.kronecker_blocks(form.a2, form.a3)
    except AssertionError as exc:
        print("raised:", exc)
    else:
        print("returned:", blocks)
""")


@pytest.mark.parametrize("step", ["_meet", "_preimage"])
def test_pencil_checks_survive_optimize(step):
    # `python -O` strips assert statements; a Wong step that loses one
    # vector of T_2 + C_2 + J3_2 + J1_1 must still be caught by an explicit check
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pencil.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", DROPPED_WONG_VECTOR, step],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: "), proc.stdout


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        kronecker_blocks(zeros(1, 2), zeros(2, 1))


def test_remainder_keeps_a_jordan_block_off_0_and_1():
    # a finite block at lambda = -2: no block at 0, 1 or infinity, and the
    # remainder's one invariant factor is (t + 2)^2
    blocks = kronecker_blocks(eye(2), jordan(2, -2))
    assert not (blocks.jordan_at_0 or blocks.jordan_at_1 or blocks.jordan_at_inf)
    assert blocks.regular_factors == (Poly.from_roots([-2, -2]),)


# -- the regular-core reading before image chains, kept as the oracle --------


def rank_power_sequence(m, lam, kmax):
    """Ranks of (m - lam*I)^k for k = 0..kmax, padded once two agree."""
    n = m.rows
    shifted = m - Matrix.identity(n).scale(Fraction(lam))
    out = [n]
    power = Matrix.identity(n)
    while len(out) <= kmax:
        if len(out) > 1 and out[-1] == out[-2]:
            return out + [out[-1]] * (kmax + 1 - len(out))
        power = power @ shifted
        out.append(rank(power))
    return out


def jordan_block_sizes(m, lam):
    """Jordan block sizes at lam, descending, from second differences of ranks."""
    n = m.rows
    seq = rank_power_sequence(m, lam, n)
    sizes = []
    for k in range(1, n + 1):
        nxt = seq[k + 1] if k + 1 <= n else seq[n]
        sizes.extend([k] * (seq[k - 1] - 2 * seq[k] + nxt))
    return sorted(sizes, reverse=True)


# -- the singular part by base changes, before annihilator rows, kept as the oracle


def reference_preimage(m, s):
    """{x : m x lies in the column span of s}, from the kernel of [m | -s]."""
    ker = kernel_basis(hstack(m, -s))
    return image_basis(ker.basis.submatrix(range(m.cols), range(ker.dim)))


def reference_wide_part(a2, a3):
    """Wide block indices and their domain V* cap W*, with V* as a basis."""
    w = kernel_basis(a2)
    if w.dim == 0:
        return (), w
    b = a2.cols
    v = Subspace.full(b)
    while True:
        nxt = reference_preimage(a3, a2 @ v.basis)
        if nxt.dim == v.dim:
            break
        v = nxt
    full = v.dim == b                          # then every W_i lies in V*
    caps = [0]
    while True:
        caps.append(w.dim if full else w.dim + v.dim - rank(hstack(w.basis, v.basis)))
        if caps[-1] == caps[-2]:
            break
        w = reference_preimage(a2, a3 @ w.basis)
    g = [caps[i] - caps[i - 1] for i in range(1, len(caps))]
    wide = tuple(e for e in range(len(g) - 1) for _ in range(g[e] - g[e + 1]))
    return wide, w if full else subspace_intersect(v, w)


def extend_to_basis(sub):
    """An invertible matrix whose first dim(sub) columns are sub's basis."""
    return image_basis(hstack(sub.basis, Matrix.identity(sub.ambient_dim))).basis


def reference_split_off(a2, a3, dom):
    """Quotient pencil read in the bases [dom | complement] and [cod | complement]."""
    a, b = a2.rows, a2.cols
    cod = image_basis(hstack(a2 @ dom.basis, a3 @ dom.basis)) if dom.dim else Subspace.zero(a)
    inv_cod = inverse(extend_to_basis(cod))
    dom_full = extend_to_basis(dom)
    q2, q3 = inv_cod @ a2 @ dom_full, inv_cod @ a3 @ dom_full
    for q in (q2, q3):
        assert q.submatrix(range(cod.dim, a), range(dom.dim)).is_zero
    rows, cols = range(cod.dim, a), range(dom.dim, b)
    return q2.submatrix(rows, cols), q3.submatrix(rows, cols)


def reference_normalizing_prime(a2, a3):
    """Smallest prime mu with mu*A2 + A3 invertible; det(mu*A2 + A3) is a
    nonzero polynomial in mu on a regular pencil, so the search ends."""
    return next(mu for mu in count(2)
                if sympy.isprime(mu) and is_invertible(a2.scale(mu) + a3))


def reference_kronecker_blocks(a2, a3):
    """`kronecker_blocks` with the singular part split off by base changes,
    the regular core normalized to S = (mu*A2 + A3)^-1 A2 and read off rank
    power sequences at the images 1/mu, 1/(mu+1) and 0 of lambda = 0, 1 and
    infinity under lambda -> 1/(mu + lambda), the remainder taken as the
    image of the product of (S - s0)^r and its invariant factors read off
    the Smith reduction."""
    a, b = a2.rows, a2.cols
    wide, dom = reference_wide_part(a2, a3)
    q2, q3 = reference_split_off(a2, a3, dom)
    tall, dom_t = reference_wide_part(q2.transpose(), q3.transpose())
    c2t, c3t = reference_split_off(q2.transpose(), q3.transpose(), dom_t)
    core2, core3 = c2t.transpose(), c3t.transpose()
    r = core2.rows
    if r == 0:
        return PencilBlocks((a, b), wide, tall, (), (), (), ())
    mu = reference_normalizing_prime(core2, core3)
    s = inverse(core2.scale(mu) + core3) @ core2
    jordans = []
    killer = Matrix.identity(r)
    for s0 in (Fraction(1, mu), Fraction(1, mu + 1), Fraction(0)):
        jordans.append(tuple(jordan_block_sizes(s, s0)))
        shift = s - Matrix.identity(r).scale(s0)
        for _ in range(r):
            killer = killer @ shift
    rest = image_basis(killer)
    factors = ()
    if rest.dim:
        coeff = solve_right(rest.basis, s @ rest.basis)
        x = inverse(coeff) - Matrix.identity(rest.dim).scale(mu)
        factors = tuple(reference_invariant_factors(x))
    return PencilBlocks((a, b), wide, tall, jordans[0], jordans[1], jordans[2], factors)


def jordan0(n):
    return Matrix(n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.data])


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
        m = Matrix(n, n, [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                          for _ in range(n * n)])
        for lam in (0, 1):
            seq = rank_power_sequence(m, lam, n)
            drops = [seq[k] - seq[k + 1] for k in range(n)]
            assert all(a >= b for a, b in zip(drops, drops[1:]))
            # the early stop pads with the settled rank: sympy ranks of all powers
            shifted = to_sympy(m) - lam * sympy.eye(n)
            assert seq == [(shifted ** k).rank() for k in range(n + 1)]


def test_image_chain_matches_rank_powers():
    # conjugated Jordan forms with repeated blocks at lam beside other eigenvalues
    rng = random.Random(11)
    for _ in range(20):
        lam = Fraction(rng.choice([0, 1, -1, 2]), rng.randint(1, 3))
        parts = [jordan(rng.randint(1, 3), lam) for _ in range(rng.randint(0, 4))]
        parts += [jordan(rng.randint(1, 2), lam + rng.randint(1, 3))
                  for _ in range(rng.randint(0, 2))]
        if not parts:
            continue
        p = random_invertible(rng, sum(x.rows for x in parts))
        m = p @ block_diag(*parts) @ inverse(p)
        n = m.rows
        sizes, rest = _image_chain(m - Matrix.identity(n).scale(lam),
                                   Subspace.full(n))
        assert list(sizes) == jordan_block_sizes(m, lam)
        assert rest.dim == n - sum(sizes)


def regular_heavy_pencil(rng, core):
    """A canonical pencil with a regular core of at least `core` rows, blocks
    repeated at 0, 1, infinity and elsewhere, and for small cores a few small
    singular blocks."""
    if core >= 20:
        blocks = [(kind, rng.randint(1, 3), None) for kind in ("j0", "j1", "jinf")] * 2
    else:
        blocks = [(rng.choice(("wide", "tall")), rng.randint(0, 2), None)
                  for _ in range(rng.randint(0, 2))]
    total = sum(n for kind, n, _ in blocks if kind not in ("wide", "tall"))
    while total < core:
        kind = rng.choice(("j0", "j1", "jinf", "reg"))
        n = rng.randint(1, 4 if core > 8 else 2)
        copies = rng.randint(1, 3)
        blocks += [(kind, n, rng.choice(REGULAR_ROOTS))] * copies
        total += n * copies
    return canonical_pencil(blocks)


def test_kronecker_blocks_match_rank_power_reference():
    rng = random.Random(8)
    cores = [rng.randint(1, 10) for _ in range(196)] + [20, 21, 22, 24]
    for core in cores:
        a2, a3, expected = regular_heavy_pencil(rng, core)
        if core >= 20:
            assert all(len(expected[k]) >= 2 for k in ("j0", "j1", "jinf"))
        pencil = scrambled(a2, a3, rng)
        assert kronecker_blocks(*pencil) == reference_kronecker_blocks(*pencil)


@st.composite
def singular_heavy_pencils(draw):
    """A scrambled canonical pencil with two to four wide and tall blocks
    each, zero-size ones among them, beside up to two infinite blocks of
    size up to 4 and a few small regular blocks: the infinite blocks share
    the growth of W with the wide ones and the fall of V with the tall ones."""
    sizes = st.lists(st.integers(0, 3), min_size=2, max_size=4)
    blocks = [("wide", n, None) for n in draw(sizes)]
    blocks += [("tall", n, None) for n in draw(sizes)]
    blocks += [("jinf", n, None) for n in draw(st.lists(st.integers(1, 4), max_size=2))]
    blocks += draw(st.lists(st.tuples(st.sampled_from(("j0", "j1", "jinf", "reg")),
                                      st.integers(1, 2), st.sampled_from(REGULAR_ROOTS)),
                            max_size=3))
    a2, a3, expected = canonical_pencil(draw(st.permutations(blocks)))
    return scrambled(a2, a3, random.Random(draw(st.integers(0, 2 ** 20)))), expected


# wide, tall and nilpotent blocks large enough that, in the scramble by
# random.Random(7), the annihilator of A2's columns in the first Wong step
# (18 x 18), ker A2 (18 x 18), the pivots of [dom | V*] (18 x 18) and the
# annihilator of A2 dom + A3 dom (16 x 18) are all taken modularly
LARGE_SINGULAR = canonical_pencil([("wide", 3, None), ("wide", 2, None), ("wide", 0, None),
                                   ("tall", 3, None), ("tall", 2, None), ("tall", 0, None),
                                   ("jinf", 3, None), ("j0", 2, None)])
# infinite blocks of sizes 3 and 4 beside wide blocks of index 2 and 3 and a
# tall block of index 3: W grows by blocks of both kinds for four steps and V
# falls by blocks of both kinds for three
LONG_INFINITE = canonical_pencil([("jinf", 4, None), ("wide", 2, None), ("tall", 3, None),
                                  ("jinf", 3, None), ("wide", 3, None), ("tall", 1, None),
                                  ("j1", 2, None)])


@settings(max_examples=60, deadline=None)
@given(singular_heavy_pencils())
@example(((zeros(2, 2), zeros(2, 2)), {"wide": [0, 0], "tall": [0, 0]}))
@example(((zeros(0, 3), zeros(0, 3)), {"wide": [0, 0, 0], "tall": []}))
@example(((zeros(3, 0), zeros(3, 0)), {"wide": [], "tall": [0, 0, 0]}))  # C_0^3
@example((scrambled(*LARGE_SINGULAR[:2], random.Random(7)), LARGE_SINGULAR[2]))
@example((scrambled(*LONG_INFINITE[:2], random.Random(3)), LONG_INFINITE[2]))
@example((canonical_pencil([("wide", 0, None), ("tall", 0, None), ("wide", 2, None),
                            ("tall", 3, None), ("wide", 0, None), ("tall", 1, None)])[:2],
          {"wide": [0, 0, 2], "tall": [0, 1, 3]}))
def test_kronecker_blocks_match_base_change_reference(drawn):
    pencil, expected = drawn
    blocks = kronecker_blocks(*pencil)
    assert blocks == reference_kronecker_blocks(*pencil)
    assert sorted(blocks.wide) == sorted(expected["wide"])
    assert sorted(blocks.tall) == sorted(expected["tall"])
    assert sorted(blocks.jordan_at_inf) == sorted(expected.get("jinf", []))
