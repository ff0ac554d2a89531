"""Exact Kronecker structure of a rational matrix pencil.

A pencil here is an ordered pair (A2, A3) of a x b rational matrices,
regarded as the family A3 - lambda*A2.  Its strict-equivalence invariants
are the wide singular blocks (epsilon x (epsilon+1), one polynomial right
kernel generator of degree epsilon each), the tall singular blocks
((eta+1) x eta, the transposed story), the infinite Jordan blocks and a
finite regular core.  All of them come out of the dimensions of one run of
the Wong sequences V_0 = Q^b, V_{i+1} = {x : A3 x in A2 V_i} and W_0 = 0,
W_{i+1} = {x : A2 x in A3 W_i} (Berger, Ilchmann and Trenn, "The
quasi-Kronecker form for matrix pencils", SIAM J. Matrix Anal. Appl. 33,
2012), with limits V* and W*.  Both are additive over the blocks: W grows
by one per step for epsilon + 1 steps in a wide block and for k steps in
an infinite block of size k, V falls by one per step for eta steps in a
tall block and for k steps in that infinite block, and finite blocks lie
in V* and meet no W_i.  So:
- the growth g_i of W_i cap V* counts the wide blocks with
  epsilon >= i - 1, and V* cap W* is their domain;
- the rest of the growth of W counts the infinite blocks of size >= i,
  and the rest of the fall of V the tall blocks with eta >= i; the rows
  no other block takes are tall blocks of index 0;
- the finite core is the pencil induced on V* / (V* cap W*), in rows that
  annihilate A2 (V* cap W*) + A3 (V* cap W*).
Each preimage is the kernel of the annihilator rows of the subspace times
the map, and those rows keep V* as a kernel.  So no base change is made
and no Wong step runs on a transposed or quotient pencil.  Every integer
product is `linalg._dots`, and W_i cap V* is `linalg._meet`, the one span
meet.  Only spans matter in the singular part, so it runs on primitive
integer vectors, with A2 and A3 brought over one common denominator.  The
core is defined up to strict equivalence, P (A2, A3) Q with P and Q
invertible: scaling a row of the annihilator (the same row of both core
matrices), a basis vector of the subquotient, or both matrices by one
number, is one, so these scalings leave every invariant below unchanged.

A2 is invertible on the finite core, so one elimination gives X = A2^-1 A3
there.  At lambda = 0 and 1 an image chain R <- (X - lambda) R gives the
Jordan block sizes and stops on the Fitting complement, where the next
chain starts.  The last R is the regular remainder, reported through the
invariant factors of X on R (`linalg.invariant_factors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import lcm
from typing import List, Sequence, Tuple

from .linalg import (
    Matrix, Subspace, _dots, _kernel_vectors, _meet, _pivots, _primitive, _solve_invertible,
    image_basis, invariant_factors, solve_right,
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

    def size_check(self) -> bool:
        a, b = self.shape
        ra = sum(self.wide) + sum(e + 1 for e in self.tall)
        rb = sum(e + 1 for e in self.wide) + sum(self.tall)
        reg = (sum(self.jordan_at_0) + sum(self.jordan_at_1)
               + sum(self.jordan_at_inf) + sum(f.degree for f in self.regular_factors))
        return (ra + reg, rb + reg) == (a, b)


def _preimage(m: List[List[int]], s: Sequence[Sequence[int]],
              within: Sequence[Sequence[int]] = ()) -> Tuple[List[List[int]], List[List[int]]]:
    """{x : m x lies in the span of the vectors s}, and rows whose kernel it is.

    `m` is a map Q^b -> Q^a given by its b >= 1 integer columns.  The kernel
    vectors n of the vectors s, stacked as rows, span the annihilator of
    their span, so the preimage is the kernel of the rows n m, returned too.
    Independent vectors `within` that span a space known to hold the
    preimage are returned as they are when the rows vanish on them: they
    span the preimage then, and no kernel is taken.
    """
    n = _kernel_vectors(_primitive(s), len(m[0]))
    rows = _primitive(_dots(n, m))
    if within and not any(map(any, _dots(rows, within))):
        return list(within), rows
    return _kernel_vectors([list(r) for r in rows], len(m)), rows


def _sizes(at_least: Sequence[int], first: int) -> Tuple[int, ...]:
    """Block sizes, ascending, from at_least[j] = #{blocks of size >= first + j}."""
    drops = [x - y for x, y in zip(at_least, [*at_least[1:], 0])]
    if any(d < 0 for d in drops):
        raise AssertionError("block counts do not fall with the size")
    return tuple(first + j for j, d in enumerate(drops) for _ in range(d))


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
    # `cut` are those of the last preimage that shrank V (none for V* = Q^b);
    # V_{i+1} lies in V_i, so the step that finds V* takes no kernel
    vs, image, cut = [[[int(i == j) for i in range(b)] for j in range(b)]], cols2, []
    while vs[-1]:
        nxt, rows = _preimage(cols3, image, vs[-1])
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

    # wide: g_i = dim(W_i cap V*) - dim(W_{i-1} cap V*) blocks have
    # epsilon >= i-1; g_i never grows, so W_i cap V* is final, and equal to
    # V* cap W*, once it stops growing
    caps = [0]
    for w in ws:
        dom = _meet(cut, w)
        caps.append(len(dom))
        if caps[-1] == caps[-2]:
            break
    g = [y - x for x, y in zip(caps, caps[1:])]
    wide = _sizes(g, 0)
    # the rest of the growth of W counts the infinite blocks of size >= i,
    # and the rest of the fall of V, past them, the tall ones with eta >= i
    dims = [0] + [len(w) for w in ws]
    inf = [y - x - gi for x, y, gi in zip(dims, dims[1:], g + [0] * len(ws))]
    falls = [len(x) - len(y) for x, y in zip(vs, vs[1:])]
    jordan_inf = _sizes(inf, 1)[::-1]
    tall = _sizes([f - k for f, k in zip_longest(falls, inf, fillvalue=0)], 1)

    # the regular core is finite and lives on V* / (V* cap W*): the vectors
    # of V* at the pivots of [dom | V*] after dom, all of V*'s independent
    # vectors when there is no wide block
    basis = vs[-1]
    if dom:
        stack = dom + basis
        pivots = _pivots([list(row) for row in zip(*stack)], len(stack))
        basis = [stack[j] for j in pivots[len(dom):]]
    r = len(basis)
    zeros = a - sum(wide) - sum(e + 1 for e in tall) - sum(jordan_inf) - r
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
    keep = _pivots([list(c) for c in (*zip(*core2), *zip(*core3))], len(core2))
    if len(keep) != r:
        raise AssertionError("regular core is not square")
    core2, core3 = (Matrix._ints(r, r, [v for i in keep for v in m[i]]) for m in (core2, core3))

    # X = core2^-1 core3 exists, as A2 is invertible on the finite core
    jordan_0 = jordan_1 = factors = ()
    if r:
        x = _solve_invertible(core2, core3)
        if x is None:
            raise AssertionError("finite core is singular")
        eye = Matrix.identity(r)
        jordan_0, rest = _image_chain(x, Subspace._trusted(r, eye))
        jordan_1, rest = _image_chain(x - eye, rest)
        coeff = solve_right(rest.basis, x @ rest.basis)
        if coeff is None:
            raise AssertionError("remainder subspace is not invariant")
        factors = tuple(invariant_factors(coeff))
        if any(f(0) == 0 or f(1) == 0 for f in factors):
            raise AssertionError("remainder touches a special eigenvalue")
    blocks = PencilBlocks((a, b), wide, tall, jordan_0, jordan_1, jordan_inf, factors)
    if not blocks.size_check():
        raise AssertionError("block sizes do not sum to the pencil shape")
    return blocks


def _image_chain(shift: Matrix, rest: Subspace) -> Tuple[Tuple[int, ...], Subspace]:
    """Jordan block sizes of X at lambda, descending, and the Fitting complement.

    `shift` is X - lambda and `rest` an X-invariant subspace that holds the
    whole generalized eigenspace of X at lambda.  The images R_k = shift^k rest have
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

