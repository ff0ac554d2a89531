"""Exact Kronecker structure of a rational matrix pencil.

A pencil here is an ordered pair (A2, A3) of a x b rational matrices,
regarded as the family A3 - lambda*A2.  Its strict-equivalence invariants
are the wide singular blocks (epsilon x (epsilon+1), one polynomial right
kernel generator of degree epsilon each), the tall singular blocks
((eta+1) x eta, the transposed story), and a regular square core.  All of
them come out of one run of the Wong sequences V_0 = Q^b,
V_{i+1} = {x : A3 x in A2 V_i} and W_0 = 0, W_{i+1} = {x : A2 x in A3 W_i}
(Berger, Ilchmann and Trenn, "The quasi-Kronecker form for matrix pencils",
SIAM J. Matrix Anal. Appl. 33, 2012), with limits V* and W*:
- the growth of W_i cap V* counts the wide blocks by index, and V* cap W*
  is their domain;
- dim(V_{i-1} + W*) - dim(V_i + W*) tall blocks have eta >= i, and the
  rows no other block takes are tall blocks of index 0 (Berger and Trenn's
  2013 addendum on the minimal indices gives both rules);
- the regular core is the pencil induced on the subquotient
  (V* + W*) / (V* cap W*), in rows that annihilate A2 (V* cap W*) +
  A3 (V* cap W*).
Each preimage is the kernel of the annihilator rows of the subspace times
the map, and those rows keep V* as a kernel.  So no base change is made
and no Wong step runs on a transposed or quotient pencil.  Only spans
matter in the singular part, so it runs on primitive integer vectors, with
A2 and A3 brought over one common denominator.  The core is defined up to
strict equivalence, P (A2, A3) Q with P and Q invertible: scaling a row of
the annihilator (the same row of both core matrices), a basis vector of
the subquotient, or both matrices by one number, is one, so these
scalings leave every invariant below unchanged.

On the regular core, the smallest prime mu with mu*A2 + A3 invertible
normalizes the pencil to the single operator S = (mu*A2 + A3)^{-1} A2;
one elimination per prime tries mu and yields S.
Generalized eigenvalues transform by the Moebius map lambda -> 1/(mu +
lambda), so the structure at lambda in {0, 1, infinity} is that of S at
1/mu, 1/(mu+1) and 0.  At each of them one image chain R <- (S - s0) R
gives the Jordan block sizes from its dimensions and stops on the Fitting
complement, where the chain for the next eigenvalue starts.  After the
third, R is the regular remainder, recovered as the operator
X = S^{-1} - mu on R and reported through its invariant factors, which
`linalg.invariant_factors` reads off quotients by cyclic subspaces of X,
without a base change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .linalg import (
    Matrix, Subspace, _int_rank, _is_prime, _kernel_vectors, _pivots, _primitive,
    _solve_invertible, image_basis, inverse, invariant_factors, solve_right,
)
from .polynomials import Poly


@dataclass(frozen=True)
class PencilBlocks:
    """Kronecker data of a pencil: multisets of block sizes plus the regular remainder."""

    shape: Tuple[int, int]
    wide: Tuple[int, ...]              # epsilon values, one per wide block
    tall: Tuple[int, ...]              # eta values, one per tall block
    jordan_at_0: Tuple[int, ...]       # block sizes at lambda = 0
    jordan_at_1: Tuple[int, ...]       # block sizes at lambda = 1
    jordan_at_inf: Tuple[int, ...]     # block sizes at lambda = infinity
    regular_factors: Tuple[Poly, ...]  # invariant factor chain of the remainder
    mu: Optional[int] = None           # normalization prime used on the core

    def size_check(self) -> bool:
        a, b = self.shape
        ra = sum(self.wide) + sum(e + 1 for e in self.tall)
        rb = sum(e + 1 for e in self.wide) + sum(self.tall)
        reg = (sum(self.jordan_at_0) + sum(self.jordan_at_1)
               + sum(self.jordan_at_inf) + sum(f.degree for f in self.regular_factors))
        return (ra + reg, rb + reg) == (a, b)


def _dots(xs: Sequence[Sequence[int]], ys: Sequence[Sequence[int]]) -> List[List[int]]:
    """The products x . y, one row per x and one entry per y."""
    return [[sum(map(mul, x, y)) for y in ys] for x in xs]


def _preimage(m: List[List[int]],
              s: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """{x : m x lies in the span of the vectors s}, and rows whose kernel it is.

    `m` is a map Q^b -> Q^a given by its b >= 1 integer columns.  The kernel
    vectors n of the vectors s, stacked as rows, span the annihilator of
    their span, so the preimage is the kernel of the rows n m, returned too.
    """
    n = _kernel_vectors(_primitive(s), len(m[0]))
    rows = _primitive(_dots(n, m))
    return _kernel_vectors([list(r) for r in rows], len(m)), rows


def _meet(cut: List[List[int]], w: List[List[int]]) -> List[List[int]]:
    """The span of the vectors w intersected with the kernel of the rows cut
    (all of it for no rows): the combinations of w by the kernel of cut w."""
    if not cut or not w:
        return w
    t = _kernel_vectors(_primitive(_dots(cut, w)), len(w))
    return _primitive(_dots(t, list(zip(*w))))


def kronecker_blocks(a2: Matrix, a3: Matrix) -> PencilBlocks:
    """Full Kronecker block data of the pencil (A2, A3), exactly."""
    if a2.rows != a3.rows or a2.cols != a3.cols:
        raise ValueError("pencil matrices must share a shape")
    a, b = a2.rows, a2.cols
    den = lcm(a2.den, a3.den)
    nums = [m._num_over(den) for m in (a2, a3)]
    rows2, rows3 = ([list(num[i * b:(i + 1) * b]) for i in range(a)] for num in nums)
    cols2, cols3 = ([list(num[j::b]) for j in range(b)] for num in nums)

    # V_0 = Q^b, V_{i+1} = {x : A3 x in A2 V_i}, down to V*, whose rows
    # `cut` are those of the last preimage that shrank V (none for V* = Q^b)
    vs, image, cut = [[[int(i == j) for i in range(b)] for j in range(b)]], cols2, []
    while vs[-1]:
        nxt, rows = _preimage(cols3, image)
        if len(nxt) == len(vs[-1]):
            break
        vs.append(nxt)
        image, cut = _dots(nxt, rows2), rows
    # W_1 = ker A2, W_{i+1} = {x : A2 x in A3 W_i}, up to W*
    ws = [_kernel_vectors([list(r) for r in rows2], b)]
    while ws[-1]:
        nxt = _preimage(cols2, _dots(ws[-1], rows3))[0]
        if len(nxt) == len(ws[-1]):
            break
        ws.append(nxt)
    wstar = ws[-1]

    # wide: g_i = dim(W_i cap V*) - dim(W_{i-1} cap V*) blocks have
    # epsilon >= i-1; g_i never grows, so W_i cap V* is final, and equal to
    # V* cap W*, once it stops growing
    caps = [0]
    for w in ws:
        dom = _meet(cut, w)
        caps.append(len(dom))
        if caps[-1] == caps[-2]:
            break
    else:
        caps.append(caps[-1])
    g = [caps[i] - caps[i - 1] for i in range(1, len(caps))]
    wide = tuple(e for e in range(len(g) - 1) for _ in range(g[e] - g[e + 1]))

    # the regular core lives on (V* + W*) / (V* cap W*): the vectors of
    # V* and W* at the pivots of [dom | V* | W*] after dom
    stack = dom + vs[-1] + wstar
    pivots = _pivots([list(row) for row in zip(*stack)], len(stack))
    basis = [stack[j] for j in pivots[len(dom):]]
    r = len(basis)

    # tall: dim(V_{i-1} + W*) - dim(V_i + W*) blocks have eta >= i
    sums = [b] + [_int_rank([list(x) for x in v + wstar], b) if wstar else len(v)
                  for v in vs[1:-1]]
    if len(vs) > 1:
        sums.append(len(pivots))
    at_least = [x - y for x, y in zip(sums, sums[1:])] + [0]
    tall = tuple(i for i in range(1, len(at_least))
                 for _ in range(at_least[i - 1] - at_least[i]))
    zeros = a - sum(wide) - sum(e + 1 for e in tall) - r
    if zeros < 0:
        raise AssertionError("more block rows than pencil rows")
    tall = (0,) * zeros + tall

    # the core rows: annihilator rows n of A2 dom + A3 dom, on the r rows of
    # (n A2 B, n A3 B) that span its row space
    n2, n3 = rows2, rows3
    if dom:
        images = _dots(dom, rows2) + _dots(dom, rows3)
        n = _kernel_vectors(_primitive(images), a)
        if any(any(row) for row in _dots(n, images)):
            raise AssertionError("deflation subspace is not invariant")
        n2, n3 = _dots(n, cols2), _dots(n, cols3)
    core2, core3 = _dots(n2, basis), _dots(n3, basis)
    stacked = [x + y for x, y in zip(core2, core3)]
    keep = _pivots([list(c) for c in zip(*stacked)], len(stacked)) if r else []
    if len(keep) != r:
        raise AssertionError("regular core is not square")
    core2 = Matrix._ints(r, r, [v for i in keep for v in core2[i]])
    core3 = Matrix._ints(r, r, [v for i in keep for v in core3[i]])

    mu, jordans, factors = None, [(), (), ()], ()
    if r:
        mu, s = _normalizing_prime(core2, core3)
        eye = Matrix.identity(r)
        rest = Subspace._trusted(r, eye)
        for k, s0 in enumerate((Fraction(1, mu), Fraction(1, mu + 1), Fraction(0))):
            jordans[k], rest = _image_chain(s - eye.scale(s0), rest)
        if rest.dim:
            coeff = solve_right(rest.basis, s @ rest.basis)
            if coeff is None:
                raise AssertionError("remainder subspace is not invariant")
            x = inverse(coeff) - Matrix.identity(rest.dim).scale(mu)
            factors = tuple(invariant_factors(x))
            if any(f(0) == 0 or f(1) == 0 for f in factors):
                raise AssertionError("remainder touches a special eigenvalue")
    blocks = PencilBlocks((a, b), wide, tall, *jordans, factors, mu=mu)
    if not blocks.size_check():
        raise AssertionError("block sizes do not sum to the pencil shape")
    return blocks


def _image_chain(shift: Matrix, rest: Subspace) -> Tuple[Tuple[int, ...], Subspace]:
    """Jordan block sizes of S at s0, descending, and the Fitting complement.

    `shift` is S - s0 and `rest` an S-invariant subspace that holds the whole
    generalized eigenspace of S at s0.  The images R_k = shift^k rest have
    dimensions d_k that differ from the ranks of shift^k by a constant, so
    d_{k-1} - 2 d_k + d_{k+1} blocks have size k; once d_k stops falling,
    R_k is the Fitting complement of the eigenspace within rest.
    """
    dims = [rest.dim]
    while True:
        nxt = image_basis(shift @ rest.basis)
        dims.append(nxt.dim)
        if nxt.dim == rest.dim:
            break
        rest = nxt
    sizes = tuple(k for k in range(len(dims) - 2, 0, -1)
                  for _ in range(dims[k - 1] - 2 * dims[k] + dims[k + 1]))
    return sizes, rest


def _normalizing_prime(a2: Matrix, a3: Matrix) -> Tuple[int, Matrix]:
    """Smallest prime mu with mu*A2 + A3 invertible, and S = (mu*A2 + A3)^-1 A2
    from the same elimination."""
    for mu in islice(filter(_is_prime, count(2)), 2 * a2.rows + 8):
        s = _solve_invertible(a2.scale(mu) + a3, a2)
        if s is not None:
            return mu, s
    raise ValueError("pencil core is singular: no normalizing prime found")
