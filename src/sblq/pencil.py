"""Exact Kronecker structure of a rational matrix pencil.

A pencil here is an ordered pair (A2, A3) of a x b rational matrices,
regarded as the family A3 - lambda*A2.  Its strict-equivalence invariants
are the wide singular blocks (epsilon x (epsilon+1), one polynomial right
kernel generator of degree epsilon each), the tall singular blocks
((eta+1) x eta, the transposed story), and a regular square core.  The
singular structure is read off the Wong sequences (Berger, Ilchmann and
Trenn, "The quasi-Kronecker form for matrix pencils", SIAM J. Matrix Anal.
Appl. 33, 2012), which need only preimages of subspaces of Q^b: their
limits V* and W* meet in the domain of the wide blocks, and the growth of
W_i cap V* counts the wide blocks by index (Berger and Trenn's 2013
addendum on the minimal indices).  Each preimage is the kernel of the
annihilator rows of the subspace times the map, and those rows keep V* as
a kernel.  That domain is split off by annihilator rows of its image and
unit columns off its pivots, which gives the quotient up to strict
equivalence without a base change; the quotient pencil is transposed, and
the same step yields the tall blocks and leaves the regular core.

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
from typing import Optional, Tuple

from .linalg import (
    Matrix, Subspace, _int_rows, _is_prime, _pivots, _solve_invertible, hstack, image_basis,
    inverse, invariant_factors, kernel_basis, rank, solve_right,
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


def _preimage(m: Matrix, s: Matrix) -> Tuple[Subspace, Matrix]:
    """{x : m x lies in the column span of s}, and rows whose kernel it is.

    The rows of n = kernel_basis(s^T)^T span the annihilator of the column
    span of s, so the preimage is the kernel of the rows n m, returned too.
    """
    rows = kernel_basis(s.transpose()).basis.transpose() @ m
    return kernel_basis(rows), rows


def _wide_part(a2: Matrix, a3: Matrix) -> Tuple[Tuple[int, ...], Subspace]:
    """Indices of the wide blocks, ascending, and the subspace they live on.

    Runs the Wong sequences V_0 = Q^b, V_{i+1} = {x : A3 x in A2 V_i} and
    W_0 = 0, W_{i+1} = {x : A2 x in A3 W_i}.  V* is kept as the rows `cut`
    of the last preimage that shrank V (none while V is Q^b), so
    W_i cap V* = W_i ker(cut W_i).  The increment
    g_i = dim(W_i cap V*) - dim(W_{i-1} cap V*) counts the wide blocks with
    epsilon >= i-1, and V* cap W* is their domain.  Since g_i never grows,
    W_i cap V* is final once it stops growing, before W_i itself may be.
    """
    w = kernel_basis(a2)                       # W_1
    if w.dim == 0:                             # g_1 = 0: no wide blocks
        return (), w
    b = a2.cols
    v, cut = Matrix.identity(b), Matrix.zeros(0, b)
    while True:
        nxt, rows = _preimage(a3, a2 @ v)
        if nxt.dim == v.cols:
            break
        v, cut = nxt.basis, rows
    caps = [0]
    while True:
        cw = cut @ w.basis
        caps.append(w.dim - rank(cw))
        if caps[-1] == caps[-2]:
            break
        w = _preimage(a2, a3 @ w.basis)[0]
    g = [caps[i] - caps[i - 1] for i in range(1, len(caps))]
    wide = tuple(e for e in range(len(g) - 1) for _ in range(g[e] - g[e + 1]))
    return wide, Subspace._trusted(b, w.basis @ kernel_basis(cw).basis)


def _split_off(a2: Matrix, a3: Matrix, dom: Subspace):
    """The pencil induced on Q^b / dom and Q^a / (A2 dom + A3 dom).

    The rows n annihilate A2 dom + A3 dom, and the unit columns c off the
    pivots of dom^T complete dom to a basis of Q^b.  (n A2 c, n A3 c) is
    the pencil read in complements of dom and of A2 dom + A3 dom, up to
    invertible factors on either side, so its Kronecker data are those of
    the quotient.
    """
    if dom.dim == 0:
        return a2, a3
    images = hstack(a2 @ dom.basis, a3 @ dom.basis)
    n = kernel_basis(images.transpose()).basis.transpose()
    if not (n @ images).is_zero:
        raise AssertionError("deflation subspace is not invariant")
    pivots = set(_pivots(_int_rows(dom.basis.transpose()), a2.cols))
    c = [j for j in range(a2.cols) if j not in pivots]
    return n @ a2.submatrix(range(a2.rows), c), n @ a3.submatrix(range(a2.rows), c)


def kronecker_blocks(a2: Matrix, a3: Matrix) -> PencilBlocks:
    """Full Kronecker block data of the pencil (A2, A3), exactly."""
    if a2.rows != a3.rows or a2.cols != a3.cols:
        raise ValueError("pencil matrices must share a shape")
    a, b = a2.rows, a2.cols

    wide, dom = _wide_part(a2, a3)
    q2, q3 = _split_off(a2, a3, dom)

    # the quotient holds the tall blocks: they are wide for the transpose
    tall, dom_t = _wide_part(q2.transpose(), q3.transpose())
    c2t, c3t = _split_off(q2.transpose(), q3.transpose(), dom_t)
    core2, core3 = c2t.transpose(), c3t.transpose()

    r = core2.rows
    if core2.cols != r:
        raise AssertionError("regular core is not square")
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
