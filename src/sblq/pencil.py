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
addendum on the minimal indices).  That domain is split off, the quotient
pencil is transposed, and the same step yields the tall blocks and leaves
the regular core.

On the regular core, the smallest prime mu with mu*A2 + A3 invertible
normalizes the pencil to the single operator S = (mu*A2 + A3)^{-1} A2.
Generalized eigenvalues transform by the Moebius map lambda -> 1/(mu +
lambda), so the structure at lambda in {0, 1, infinity} is that of S at
1/mu, 1/(mu+1) and 0.  At each of them one image chain R <- (S - s0) R
gives the Jordan block sizes from its dimensions and stops on the Fitting
complement, where the chain for the next eigenvalue starts.  After the
third, R is the regular remainder, recovered as the operator
X = S^{-1} - mu on R and reported through its invariant factors, which
`linalg.invariant_factors` reads off a cyclic decomposition of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .linalg import (
    Matrix, Subspace, extend_to_basis, hstack, image_basis, inverse,
    is_invertible, invariant_factors, kernel_basis, rank, solve_right,
    subspace_intersect,
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


def _preimage(m: Matrix, s: Matrix) -> Subspace:
    """{x : m x lies in the column span of s}."""
    ker = kernel_basis(hstack(m, -s))
    return image_basis(ker.basis.submatrix(range(m.cols), range(ker.dim)))


def _wide_part(a2: Matrix, a3: Matrix) -> Tuple[Tuple[int, ...], Subspace]:
    """Indices of the wide blocks, ascending, and the subspace they live on.

    Runs the Wong sequences V_0 = Q^b, V_{i+1} = {x : A3 x in A2 V_i} and
    W_0 = 0, W_{i+1} = {x : A2 x in A3 W_i}.  The increment
    g_i = dim(W_i cap V*) - dim(W_{i-1} cap V*) counts the wide blocks with
    epsilon >= i-1, and V* cap W* is their domain.  Since g_i never grows,
    W_i cap V* is final once it stops growing, before W_i itself may be.
    """
    w = kernel_basis(a2)                       # W_1
    if w.dim == 0:                             # g_1 = 0: no wide blocks
        return (), w
    b = a2.cols
    v = Subspace._trusted(b, Matrix.identity(b))
    while True:
        nxt = _preimage(a3, a2 @ v.basis)
        if nxt.dim == v.dim:
            break
        v = nxt
    full = v.dim == b                          # then every W_i lies in V*
    caps = [0]
    while True:
        caps.append(w.dim if full else w.dim + v.dim - rank(hstack(w.basis, v.basis)))
        if caps[-1] == caps[-2]:
            break
        w = _preimage(a2, a3 @ w.basis)
    g = [caps[i] - caps[i - 1] for i in range(1, len(caps))]
    wide = tuple(e for e in range(len(g) - 1) for _ in range(g[e] - g[e + 1]))
    return wide, w if full else subspace_intersect(v, w)


def _split_off(a2: Matrix, a3: Matrix, dom: Subspace):
    """Quotient pencil on complements of dom and of A2 dom + A3 dom."""
    a, b = a2.rows, a2.cols
    cod = image_basis(hstack(a2 @ dom.basis, a3 @ dom.basis)) if dom.dim else Subspace.zero(a)
    dom_full = extend_to_basis(dom)
    inv_cod = inverse(extend_to_basis(cod))
    q2 = inv_cod @ a2 @ dom_full
    q3 = inv_cod @ a3 @ dom_full
    rd, rc = dom.dim, cod.dim
    sub2 = q2.submatrix(range(rc, a), range(rd, b))
    sub3 = q3.submatrix(range(rc, a), range(rd, b))
    for m in (q2, q3):
        if not m.submatrix(range(rc, a), range(rd)).is_zero:
            raise AssertionError("deflation subspace is not invariant")
    return sub2, sub3


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
    if r == 0:
        blocks = PencilBlocks((a, b), wide, tall, (), (), (), ())
        if not blocks.size_check():
            raise AssertionError("block sizes do not sum to the pencil shape")
        return blocks

    mu = _normalizing_prime(core2, core3)
    s = solve_right(core2.scale(mu) + core3, core2)
    eye = Matrix.identity(r)
    rest = Subspace._trusted(r, eye)
    jordans = []
    for s0 in (Fraction(1, mu), Fraction(1, mu + 1), Fraction(0)):
        sizes, rest = _image_chain(s - eye.scale(s0), rest)
        jordans.append(sizes)
    factors: Tuple[Poly, ...] = ()
    if rest.dim:
        coeff = solve_right(rest.basis, s @ rest.basis)
        if coeff is None:
            raise AssertionError("remainder subspace is not invariant")
        x = inverse(coeff) - Matrix.identity(rest.dim).scale(mu)
        factors = tuple(invariant_factors(x))
        if any(f(0) == 0 or f(1) == 0 for f in factors):
            raise AssertionError("remainder touches a special eigenvalue")
    blocks = PencilBlocks((a, b), wide, tall, jordans[0], jordans[1], jordans[2],
                          factors, mu=mu)
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


def _normalizing_prime(a2: Matrix, a3: Matrix) -> int:
    """Smallest prime mu with mu*A2 + A3 invertible."""
    mu = 2
    for _ in range(2 * a2.rows + 8):
        if is_invertible(a2.scale(mu) + a3):
            return mu
        mu = _next_prime(mu)
    raise ValueError("pencil core is singular: no normalizing prime found")


def _next_prime(p: int) -> int:
    q = p + 1
    while True:
        if all(q % d for d in range(2, int(q ** 0.5) + 1)):
            return q
        q += 1
