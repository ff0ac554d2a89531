"""Decomposition of a datum's module into identified indecomposable summands.

The dispatch runs: try the pencil reduction that is available exactly
when the row space of the distribution map is a common complement of the
other three row spaces, reading the pencil off one b x b solve in those
row spaces; its Kronecker blocks name every summand, the kernel-only ones
(family C at size 0) as tall blocks of index 0.  Otherwise check the
image condition on ker Pi_0 and, for each case whose exponent constraint
is feasible, read the summands, C_0 among them, off Hom dimensions and
certify them with an isomorphism; by Krull-Schmidt the first multiset
certified is the module's only one, and it decides every later case
without another Hom solve.  Every exact read goes through one reduced
row echelon form R of the stacked slot bases [B0 | B1 | B2 | B3], cached
on the module (`FourModule.reduced`), and no kernel basis is computed:
the pencil exists when R's pivots are its first n columns, and is read
off the integer numerators of R's B2 and B3 columns with one solve,
C1_3^-1 C1_2, and no inverse, its base change too; Pi_i on ker Pi_0 is
the transpose of R's block i below slot 0, which gives the image
condition and the necessity lattice; the matcher runs on the module M'
whose slots are R's column blocks, where the Hom systems keep small
entries, and solves from each family in its own reduced frame, (g_X, X')
= build(X).reduced, where every axis is a slot column.  Its proven psi':
(+ X') -> M' becomes psi = g psi' (+ g_X^-1) with g M' = M, only when
read.  A classified datum passes the necessity screen, so its lattice is
built only for data that neither route classifies.  All decisions are
exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (
    EquivalenceMap, FourModule, SBLDatum, certificate_valid, direct_sum_all,
    hom_solver, module_to_datum, validate_datum,
)
from .linalg import (
    Matrix, _annihilator, _dots, _echelon_key, _int_rank, _pivots, _primitive, _rref,
    block_diag, companion_matrix, hstack, inverse, invariant_factors, rank, vstack,
)
from .pencil import kronecker_blocks
from .polynomials import Poly, sturm_real_roots
from .tables import FIXED_FAMILIES, FamilyTag, build


# -- necessity screening ------------------------------------------------------


@dataclass(frozen=True)
class LatticeEntry:
    """A subspace H' of ker Pi_0 with its image dimensions under Pi_1..Pi_3.

    Encodes the constraint dim H' <= q_1 d_1 + q_2 d_2 + q_3 d_3.
    """

    description: str
    dim: int
    image_dims: Tuple[int, int, int]

    @property
    def infeasible(self) -> bool:
        # even q_i = 1 cannot satisfy the inequality
        return self.dim > sum(self.image_dims)


@dataclass(frozen=True)
class NecessityReport:
    surjectivity_on_kernel: Tuple[bool, bool, bool, bool]  # slot 0 vacuous
    lattice_inequalities: Tuple[LatticeEntry, ...]
    equality_constraint: Tuple[int, int, int, int]  # d1, d2, d3, rhs

    def hard_failures(self) -> List[str]:
        out = [f"Pi_{i} ker Pi_0 != Pi_{i} H"
               for i in (1, 2, 3) if not self.surjectivity_on_kernel[i]]
        out.extend(f"dim {e.description} = {e.dim} > {sum(e.image_dims)}"
                   for e in self.lattice_inequalities if e.infeasible)
        return out

    @property
    def passed(self) -> bool:
        return not self.hard_failures()


def necessary_conditions(d: SBLDatum, lattice_depth: int = 3,
                         max_lattice: int = 64) -> NecessityReport:
    """Exact screen of the two necessary conditions for p-boundedness.

    The image condition is checked exactly.  The dimension inequalities
    are evaluated on the finite lattice generated from ker Pi_0 and its
    intersections with the other kernels, closed under pairwise sum and
    intersection to the given nesting depth; the screen is sound but not
    claimed complete.  `classify` runs it only for data that `_decompose`
    leaves unclassified: every datum either route classifies passes it.

    Everything is read off the module's cached reduced form R of the
    stacked slot bases (`FourModule.reduced`), as on both routes, and no
    kernel is computed.  The lattice lives in ker Pi_0, which in R's frame
    is spanned by unit vectors, so it is computed in their coordinates, on
    Q^b with b = dim ker Pi_0: with K_i the integer rows of Pi_i on it,
    the transposed blocks of `_kernel_maps` made primitive row by row (not
    before transposing, which would rescale the shared coordinates), ker
    Pi_0 ∩ ker Pi_i is ker K_i and the image dimension of a subspace X of
    Q^b is the rank of K_i X.  Each subspace is
    kept as its canonical echelon key and the key of its annihilator
    (`linalg._echelon_key`, `linalg._annihilator`): U + V is the key of the
    rows of both keys, U ∩ V the annihilator of the key of both
    annihilators, and a candidate is new exactly when its key is not in the
    set of keys found so far.  A comparable pair needs neither elimination
    (`_meet_join`): when U lies in V, U ∩ V and U + V are U and V
    themselves, keys and all.  Each round pairs only entries of which at
    least one was added in the round before: an older pair was formed in an
    earlier round, so its sum and intersection are already known, unless
    `max_lattice` cut that round short, and then no later round adds
    anything either.  Descriptions and order are those of the full pairwise
    closure.
    """
    blocks, surj, eqc = _kernel_maps(d)
    ranks, b = eqc[:3], eqc[3]
    maps = [_primitive(zip(*rows)) for rows in blocks]
    anns = [_echelon_key([row[::-1] for row in rows]) for rows in maps]
    # (description, key, annihilator key with reversed coordinates)
    found = [("ker Pi_0", _annihilator((), b), ())] + [
        (f"ker Pi_0 ∩ ker Pi_{i}", _annihilator(ann, b), ann) for i, ann in enumerate(anns, 1)]
    seen = {key for _, key, _ in found}
    start = 0
    for _ in range(lattice_depth):
        new = []
        total = len(found)
        for u in range(total):
            for v in range(max(u + 1, start), total):
                if total + len(new) >= max_lattice:
                    break
                du, dv = found[u][0], found[v][0]
                pair = _meet_join(found[u][1:], found[v][1:], b)
                for op, (key, ann) in zip(("∩", "+"), pair):
                    if key not in seen:
                        seen.add(key)
                        new.append((f"({du}) {op} ({dv})", key, ann))
        if not new:
            break
        start = total
        found.extend(new)

    # entry 0 is Q^b itself, and entry i, ker K_i, has image 0 under K_i
    entries = tuple(
        LatticeEntry(desc, len(key), ranks if n == 0 else tuple(
            0 if i == n else
            _int_rank(_dots(key, rows), len(rows))
            for i, rows in enumerate(maps, 1)))
        for n, (desc, key, _) in enumerate(found))
    return NecessityReport(surj, entries, eqc)


def _kernel_maps(d: SBLDatum) -> Tuple[List[List[Sequence[int]]], Tuple[bool, bool, bool, bool],
                                       Tuple[int, int, int, int]]:
    """([T_1, T_2, T_3], surjectivity flags, equality constraint) of
    `necessary_conditions`, read off the reduced form R of the stacked slot
    bases that the module caches (`FourModule.reduced`), with no kernel
    computed: T_i^T over a common denominator is Pi_i on ker Pi_0.

    In the coordinates y = g^T x of R's frame, with g M' = M, the datum's
    maps are the transposes of the slots of M', up to an injective map on
    each H_i, which changes no kernel or image dimension.  Slot 0 of M' is
    [I_a; 0], a = dim S_0, so ker Pi_0 is y[:a] = 0, and Pi_i on it is the
    transpose of the rows of R's block i below row a: T_i is their
    numerators.  Pi_i ker Pi_0 = H_i exactly when rank T_i = dim H_i, and
    the constraint is (rank T_1, rank T_2, rank T_3, n - a)."""
    reduced = d.module.reduced[1]
    n, a = d.dim_H, reduced.sub[0].dim
    blocks = [[s.basis.num[r * s.dim:(r + 1) * s.dim] for r in range(a, n)]
              for s in reduced.sub[1:]]
    ranks = tuple(_int_rank(_primitive(rows), s.dim) for rows, s in zip(blocks, reduced.sub[1:]))
    return blocks, (True, *(r == h for r, h in zip(ranks, d.dims[1:]))), (*ranks, n - a)


_Keyed = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]


def _meet_join(u: _Keyed, v: _Keyed, b: int) -> Tuple[_Keyed, _Keyed]:
    """(U ∩ V, U + V) for subspaces of Q^b, each given and returned as
    (echelon key, annihilator key with reversed coordinates).

    A comparable pair is returned as it is, without elimination: U lies in
    V exactly when every key row of U is orthogonal to every annihilator
    row of V read with its coordinates un-reversed.
    """
    def within(x: _Keyed, y: _Keyed) -> bool:
        return not any(sum(map(mul, k, reversed(a))) for a in y[1] for k in x[0])

    if within(u, v):
        return u, v
    if within(v, u):
        return v, u
    (ku, au), (kv, av) = u, v
    cap_ann = _echelon_key([list(r) for r in au + av])
    cup = _echelon_key([list(r) for r in ku + kv])
    return (_annihilator(cap_ann, b), cap_ann), (cup, _annihilator(cup, b))


# -- the Hoelder-case pencil reduction ---------------------------------------


@dataclass(frozen=True)
class PencilForm:
    """Normal form of a Hoelder-type datum: the a x b pencil (A2, A3) the
    Kronecker blocks are read off, A2 = C0_2 and A3 = C0_3 Y with Y =
    C1_3^-1 C1_2, both times d2 (`holder_normal_form`).  `base_change`,
    vstack(Pi_0, C1_2^T Pi_1) on H and (I, C1_2^T, I, Y^T) on the H_i, with
    C1_2 and the last two maps times d2, carries the datum onto the
    `pencil_datum` of (A2, A3); it is built only when read, with no
    inverse."""

    a: int
    b: int
    a2: Matrix
    a3: Matrix
    datum: SBLDatum
    c12: Matrix      # d2 C1_2, the numerators of R's slot 2 below row a
    y: Matrix        # d2 Y
    d2: int

    @cached_property
    def base_change(self) -> EquivalenceMap:
        pi, c12t = self.datum.pi, self.c12.transpose()
        return EquivalenceMap(vstack(pi[0], c12t @ pi[1]), (
            Matrix.identity(self.a), c12t, Matrix.identity(self.b).scale(self.d2),
            self.y.transpose()))


def pencil_datum(a: int, b: int, a2: Matrix, a3: Matrix) -> SBLDatum:
    """Datum with maps [I_a | 0], [0 | I_b], [A2^T | I_b], [A3^T | I_b]."""
    eye, eye_b = Matrix.identity(a + b), Matrix.identity(b)
    return SBLDatum(a + b, (a, b, b, b), (
        eye.submatrix(range(a), range(a + b)), eye.submatrix(range(a, a + b), range(a + b)),
        hstack(a2.transpose(), eye_b), hstack(a3.transpose(), eye_b)))


@lru_cache(maxsize=64)
def _unit_columns(n: int, lo: int, k: int) -> Tuple[int, ...]:
    """Row-major entries of the n x k matrix with columns e_lo, ..., e_(lo+k-1)."""
    return tuple(int(r == lo + c) for r in range(n) for c in range(k))


def holder_normal_form(d: SBLDatum) -> Optional[PencilForm]:
    """Pencil form of a Hoelder-type datum, or None.

    The rows of Pi_i span S_i.  None unless S_0 + S_i = Q^n is direct for
    i = 1, 2, 3, which forces dim H_i = n - dim H_0 = b, the image
    condition and the Hoelder line.  [Pi_0^T | Pi_1^T] C = [Pi_2^T | Pi_3^T]
    then has one solution; with C0_i the top a and C1_i the bottom b rows
    of the Pi_i block, Pi_i = C0_i^T Pi_0 + C1_i^T Pi_1, and S_0 + S_i =
    Q^n exactly when C1_i is invertible.

    C is read off the module's cached reduced form R of [B0 | B1 | B2 | B3]
    (`FourModule.reduced`), the one the non-Hoelder matcher runs in.  With
    every map surjective, B_i = Pi_i^T, so [Pi_0^T | Pi_1^T] is invertible
    exactly when R's pivots are its first n columns, that is when slots 0
    and 1 of the reduced module are [I_a; 0] and [0; I_b], and R is then
    [I_n | C]: C is its slot 2 and slot 3 columns, the integer numerators
    [top_i; bot_i] over d_i.  A map that is not surjective leaves one of
    S_0 + S_i short of Q^n, so such a datum has no form either.

    The pencil of the two solves, (C0_2 C1_2^-1, C0_3 C1_3^-1), times the
    invertible right factor d2 C1_2 is (top_2, top_3 Z) with Z = bot_3^-1
    bot_2 = (d2 / d3) Y; a right factor and a scalar change no Kronecker
    invariant.  One pivot pass proves bot_2 invertible, and [bot_3 | bot_2]
    reduces to [I | Z] exactly when bot_3 is (pivots, as a consistent
    singular system has solutions too).  The integer check bot_3 Z = bot_2,
    which survives `python -O`, proves the solve and with it
    `PencilForm.base_change`: [A3^T | I] phi = d2 Y^T Pi_3 as C1_3 Y = C1_2,
    and slots 0 to 2 read off phi directly.
    """
    n, a = d.dim_H, d.dims[0]
    b = n - a
    if any(d.dims[i] != b for i in (1, 2, 3)) or \
            any(s.dim != h for s, h in zip(d.module.sub, d.dims)):
        return None
    sub = [s.basis for s in d.module.reduced[1].sub]
    if sub[0].den != 1 or sub[1].den != 1 or sub[0].num != _unit_columns(n, 0, a) \
            or sub[1].num != _unit_columns(n, a, b):
        return None
    num2, num3 = sub[2].num, sub[3].num
    bot2 = [list(num2[r * b:(r + 1) * b]) for r in range(a, n)]
    top3, bot3 = ([list(num3[r * b:(r + 1) * b]) for r in rows] for rows in (range(a), range(a, n)))
    if len(_pivots([row[:] for row in bot2], b)) < b:
        return None
    pivots, _, z, dz = _rref(_primitive(r3 + r2 for r3, r2 in zip(bot3, bot2)), 2 * b)
    if pivots != list(range(b)):
        return None
    zcols = [z[j::b] for j in range(b)]
    if _dots(bot3, zcols) != [[dz * v for v in row] for row in bot2]:
        raise AssertionError("pencil reconstruction failed")
    a2 = Matrix._ints(a, b, num2[:a * b])
    a3 = Matrix._ints(a, b, [v for row in _dots(top3, zcols) for v in row], dz)
    c12 = Matrix._ints(b, b, num2[a * b:])
    y = Matrix._ints(b, b, [sub[3].den * v for v in z], dz)   # d3 Z = d2 Y
    return PencilForm(a, b, a2, a3, d, c12, y, sub[2].den)


# -- summands -----------------------------------------------------------------


@dataclass(frozen=True)
class IndecompSummand:
    tag: FamilyTag
    multiplicity: int
    note: str = ""

    def render(self) -> str:
        times = f" x{self.multiplicity}" if self.multiplicity != 1 else ""
        return f"{self.tag.render()}{times}"


_FAMILY_ORDER = {f: k for k, f in enumerate(
    ("N", "J1", "J2", "J3", "C", "T", "Y", "Z", "L", "B",
     "P1", "P2", "P3", "K1", "K2", "K3"))}


def _tag_sort_key(tag: FamilyTag):
    poly_key = tuple(tag.regular_poly.coeffs) if tag.regular_poly else ()
    return (_FAMILY_ORDER.get(tag.family, 99), tag.n, poly_key)


def collect_summands(tags: Sequence[FamilyTag], note: str) -> List[IndecompSummand]:
    counts: Dict[FamilyTag, int] = {}
    for t in tags:
        counts[t] = counts.get(t, 0) + 1
    return [IndecompSummand(t, c, note)
            for t, c in sorted(counts.items(), key=lambda kv: _tag_sort_key(kv[0]))]


def kronecker_decompose(p: PencilForm) -> List[IndecompSummand]:
    """Identified summands of a pencil-form datum, by exact block extraction."""
    blocks = kronecker_blocks(p.a2, p.a3)
    tags = [FamilyTag("T", eps) for eps in blocks.wide]
    tags += [FamilyTag("C", eta) for eta in blocks.tall]
    for fam, sizes in (("J2", blocks.jordan_at_0), ("J1", blocks.jordan_at_1),
                       ("J3", blocks.jordan_at_inf)):
        tags += [FamilyTag(fam, n) for n in sizes]
    regular = [FamilyTag("N", f.degree, regular_poly=f) for f in blocks.regular_factors]
    out = collect_summands(tags, "pencil block") + \
        collect_summands(regular, "invariant-factor granularity")
    return sorted(out, key=lambda s: _tag_sort_key(s.tag))


# -- non-Hoelder matching ------------------------------------------------------


# the families of the Hom table by name: C0, the kernel-only summand
# (family C at size 0), and the ten fixed families
_TABLE_TAGS = {"C0": FamilyTag("C", 0), **{f: FamilyTag(f) for f in FIXED_FAMILIES}}

_CASE_FAMILIES = {
    "i": ("C0", "P1", "P2", "P3", "K1", "K2", "K3"),
    "ii": ("C0", "Y", "Z", "P1", "P2", "P3", "K1", "K2", "K3"),
    "iii": ("C0", "L", "B", "P1", "P2", "P3", "K1", "K2", "K3"),
}


def _superscripts(families: Iterable[str]) -> set:
    return {f[1] for f in families if f[0] in "PK"}


def _case_counts_admissible(case_tag: str, counts: Dict[str, int]) -> bool:
    """Does the case list every counted family and admit their superscripts?"""
    counted = [f for f, c in counts.items() if c]
    limit = {"i": 2, "ii": 1}.get(case_tag, 3)
    return set(counted) <= set(_CASE_FAMILIES[case_tag]) and len(_superscripts(counted)) <= limit


# a lattice cap no family datum comes near: each closes within eight entries
_CLOSED_LATTICE = 10_000


def _check_family_lattices(mods: Iterable[FourModule]) -> None:
    """Raise unless each module's datum passes the necessity screen on its
    fully closed lattice.

    This is why a datum the non-Hoelder route certifies needs no lattice
    screen.  It is C0^k plus fixed family summands X_j, and kernels, sums
    and intersections of split subspaces split: each lattice entry is the
    sum of the same word w(X_j) in every summand, and its dimension and
    image dimensions add over the summands, as do the images of ker Pi_0.
    So the datum passes whenever every element of each summand's closed
    lattice does, and every image condition holds on each summand."""
    for m in mods:
        nec = necessary_conditions(module_to_datum(m), _CLOSED_LATTICE, _CLOSED_LATTICE)
        if len(nec.lattice_inequalities) >= _CLOSED_LATTICE or not nec.passed:
            raise AssertionError("a family datum fails its closed necessity lattice")


@lru_cache(maxsize=None)
def _fixed_table() -> Tuple[Dict[str, FourModule], Dict[str, List[List[int]]],
                            Dict[FamilyTag, Tuple[Matrix, Matrix]]]:
    """The modules X' of C0 and the ten fixed families, per case the
    integer inverse of H[X][Y] = dim Hom(X, Y) over the case's families,
    and per family tag (g_X, g_X^-1); first it checks that the built
    modules pass their closed necessity lattices.
    X' is build(X) in its own reduced frame, (g_X, X') = build(X).reduced
    with g_X X' = build(X): R's pivot columns are unit columns, one per
    ambient axis, so every axis is a slot column of X' and `hom_solver`
    confines every column of psi' to a slot.  Hom(X, C0) = 0 for every
    fixed family X, so each H is block triangular with dim Hom(C0, C0) = 1
    in its corner and keeps the integer inverse of its fixed-family block."""
    built = {f: build(t) for f, t in _TABLE_TAGS.items()}
    _check_family_lattices(built.values())
    mods = {f: m.reduced[1] for f, m in built.items()}
    solvers = {y: hom_solver(b) for y, b in mods.items()}
    hom = {(x, y): len(solvers[y](mods[x])) for x in mods for y in mods}
    inverses = {}
    for case_tag, families in _CASE_FAMILIES.items():
        block = Matrix.from_rows([[hom[x, y] for y in families] for x in families])
        hinv = inverse(block) if rank(block) == len(families) else None
        if hinv is None or hinv.den != 1:
            raise AssertionError(f"the case {case_tag} Hom table has no integer inverse")
        n = hinv.cols
        inverses[case_tag] = [list(hinv.num[i * n:(i + 1) * n]) for i in range(hinv.rows)]
    frames = {_TABLE_TAGS[f]: (m.reduced[0], inverse(m.reduced[0])) for f, m in built.items()}
    return mods, inverses, frames


_DRAWS = 32  # draw t seeds random.Random(t + 1); reports print this stream as seed 0
_CASE_ORDER = ("ii", "iii", "i")


def _fixed_matcher(m: FourModule, trials: int = _DRAWS, cases: Sequence[str] = _CASE_ORDER):
    """Non-Hoelder matching for one module: `match(case_tag)` gives the
    certified summand multiset for one case shape and the proven psi':
    candidate -> m, the candidate the direct sum of the families' modules
    X' of `_fixed_table` in report order, or None.  A module is fixed by
    its Hom dimensions from the indecomposables (Auslander), so the
    multiplicities of the case's families are exactly H^-1 h, with H[X][Y]
    = dim Hom(X, Y) and h_X = dim Hom(X, m); a negative entry, a wrong
    dimension vector or an empty Hom space of a counted family is a
    definite negative, and so is a multiset that neither this case nor a
    later one of `cases`, those still to be asked, admits
    (`_case_counts_admissible`): proven, it would match none of them.
    Otherwise each of up to `trials` draws stacks one element of Hom(X', m)
    per summand copy into psi', and the first that `certificate_valid`
    proves is kept, even when this case refuses it.

    By Krull-Schmidt m has exactly one multiset of indecomposables, so
    every later case is decided from the proven one without a Hom solve: it
    matches exactly when it admits the multiset.  A case that lists all
    its families computes the same multiplicities, as h = H x for the
    proven x; one that does not has no certified candidate, which would be
    a second multiset.  The proven psi' serves every case: C0, P and K keep
    their relative order in all three family lists, so the candidate is the
    same direct sum in the same order.  Until then each Hom(X', m) is
    solved once, by one `hom_solver(m)`, and nothing is mapped back to
    build(X): `DecompositionResult` does that once, when psi is read.

    `_decompose` passes M' of the reduced form (g, M') of the datum's
    module, whose slot columns are mostly unit columns with small entries;
    an isomorphic module gives the same multisets, since they are read off
    Hom dimensions.  det psi' is a polynomial of degree dim M in a draw's
    coefficients, not identically zero when m is isomorphic to the
    candidate, and each coefficient is uniform on 64 dim M + 1 integers: by
    Schwartz-Zippel one draw fails with probability at most
    dim M / (64 dim M + 1) < 1/64, and all 32 below 2^-192."""
    mods, inverses, _ = _fixed_table()
    solve = hom_solver(m)
    homs: Dict[str, List[Matrix]] = {}
    proven: Optional[Tuple[Dict[str, int], tuple]] = None

    def certify(names: List[str]) -> Optional[tuple]:
        candidate = direct_sum_all([mods[f] for f in names])
        for t in range(trials):
            rng = random.Random(t + 1)
            blocks = [_hom_combination(homs[f], rng) for f in names]
            psi = hstack(*blocks) if blocks else Matrix.zeros(0, 0)
            if certificate_valid(psi, candidate, m):
                return collect_summands([_TABLE_TAGS[f] for f in names], "certified iso"), psi
        return None

    def match(case_tag: str) -> Optional[tuple]:
        nonlocal proven
        families = _CASE_FAMILIES[case_tag]
        if proven is None:
            homs.update({f: solve(mods[f]) for f in families if f not in homs})
            h = [len(homs[f]) for f in families]
            mult = [sum(map(mul, row, h)) for row in inverses[case_tag]]
            counts = {f: c for f, c in zip(families, mult) if c}
            total = tuple(sum(c * mods[f].dim_vector[k] for f, c in counts.items())
                          for k in range(5))
            to_ask = cases[cases.index(case_tag):]
            if min(mult) < 0 or total != m.dim_vector or not all(homs[f] for f in counts) or \
                    not any(_case_counts_admissible(c, counts) for c in to_ask):
                return None
            found = certify([f for f, c in counts.items() for _ in range(c)])
            if found is None:
                return None
            proven = counts, found
        counts, found = proven
        return found if _case_counts_admissible(case_tag, counts) else None

    return match


def _hom_combination(basis: Sequence[Matrix], rng: random.Random) -> Matrix:
    """One seeded combination of a basis of Hom(X, M), its coefficients
    uniform on [-32 dim M, 32 dim M], summed on the integer numerators
    over the basis's common denominator."""
    bound = 32 * basis[0].rows
    coeffs = [rng.randint(-bound, bound) for _ in basis]
    den = lcm(*[b.den for b in basis])
    cells = zip(*[b._num_over(den) for b in basis])
    return Matrix._ints(basis[0].rows, basis[0].cols,
                        [sum(map(mul, coeffs, cell)) for cell in cells], den)


# -- full decomposition --------------------------------------------------------


@dataclass
class DecompositionResult:
    """The summands and how they were found.

    `equality_constraint` is that of `necessary_conditions(datum)`; the
    full report, `necessity`, is built only when read: a classified datum
    passes it, so only an unclassified one needs its lattice.  On the
    non-Hoelder path `psi` is the proven isomorphism candidate -> M, the
    candidate the direct sum of build(tag) over the listed summands in
    order, C0 copies first.  The matcher proves psi': (+ X') -> M' in the
    reduced frames g M' = M and g_X X' = build(X) (`_fixed_table`), kept as
    `frame` = (g, psi'), so psi = g psi' (+ g_X^-1), and `certificate`,
    its inverse (+ g_X) psi'^-1 g^-1, maps the user's M onto the candidate:
    each factor has smaller entries than psi, and no inverse larger than
    one family's g_X, at most 5 x 5, enters psi.  They and the real-root
    intervals of the regular summands are computed only when read, as a
    plain verdict reads none of them.
    """

    summands: List[IndecompSummand]
    status: str                       # "classified" or "unclassified"
    path: str                         # "pencil", "nonholder" or "none"
    datum: SBLDatum
    equality_constraint: Tuple[int, int, int, int]
    pencil: Optional[PencilForm] = None
    frame: Optional[Tuple[Matrix, Matrix]] = None
    diagnostics: List[str] = field(default_factory=list)

    @cached_property
    def necessity(self) -> NecessityReport:
        return necessary_conditions(self.datum)

    def _family_frames(self) -> List[Tuple[Matrix, Matrix]]:
        """(g_X, g_X^-1) of each summand copy, in report order."""
        return [_fixed_table()[2][t] for t in expand_tags(self.summands)]

    @cached_property
    def psi(self) -> Optional[Matrix]:
        if self.frame is None:
            return None
        g, psi = self.frame
        return g @ psi @ block_diag(*[inv for _, inv in self._family_frames()])

    @cached_property
    def certificate(self) -> Optional[Matrix]:
        if self.frame is None:
            return None
        g, psi = self.frame
        return block_diag(*[gx for gx, _ in self._family_frames()]) @ inverse(psi) @ inverse(g)

    @cached_property
    def real_root_refinements(self) -> Dict[str, List[Tuple[Fraction, Fraction]]]:
        """Certified isolating intervals of the real roots of each regular
        summand's polynomial, keyed by the summand's display tag."""
        return {s.tag.render(): sturm_real_roots(s.tag.regular_poly, Fraction(1, 10 ** 6))
                for s in self.summands if s.tag.regular_poly is not None}

    @property
    def classified(self) -> bool:
        return self.status == "classified"


def _case_feasible(case_tag: str, eqc: Tuple[int, int, int, int]) -> bool:
    """Can the case exponents meet the kernel equality constraint in [0,1]^3?"""
    *ds, k = eqc

    def plane_feasible(c: int) -> bool:
        # d . q - k at the vertices of the plane sum(q) = c inside [0, 1]^3
        vals = [ds[f] * (c - b1 - b2) + ds[o1] * b1 + ds[o2] * b2 - k
                for f, o1, o2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
                for b1 in (0, 1) for b2 in (0, 1) if 0 <= c - b1 - b2 <= 1]
        return bool(vals) and min(vals) <= 0 <= max(vals)

    if case_tag == "ii":
        return plane_feasible(2)
    if case_tag == "iii":
        return sum(ds) == 2 * k
    if case_tag == "iv":
        return plane_feasible(1)
    # case i: for some excluded index, q_excluded = 1 - s and the other two
    # are s; d . q - k runs from ds[ex] - k (s = 0) to the rest's sum - k
    return any(min(g) <= 0 <= max(g)
               for g in ((ds[ex] - k, sum(ds) - ds[ex] - k) for ex in range(3)))


def decompose(d: SBLDatum) -> DecompositionResult:
    """Decompose a datum's module into identified indecomposable summands.

    Dispatch: the pencil path when the Hoelder normal form exists,
    otherwise the image condition on ker Pi_0, then the non-Hoelder
    matchers whose exponent constraint is feasible.  Inputs outside the
    bounded taxonomy come back unclassified, in-taxonomy ones only with
    probability below 2^-192 (`_fixed_matcher`).
    """
    report = validate_datum(d)
    if not report.valid:
        raise ValueError(f"datum maps not surjective at {report.failures()}")
    return _decompose(d)


def _decompose(d: SBLDatum) -> DecompositionResult:
    """`decompose` of a validated datum.

    The pencil form of d itself comes first; the zero datum and pure
    kernel-only data have one too, with b = 0.  S_0 + S_i = Q^n is then
    direct, so each Pi_i is injective on ker Pi_0, of dimension b = d_i:
    every image condition holds and the equality constraint is (b, b, b, b),
    read without ker Pi_0.  Without a pencil form the image condition and
    the equality constraint are read off the same reduced form, still
    without a kernel (`_kernel_maps`).  A failed image condition ends the
    route, since every datum the matcher can certify meets it
    (`_check_family_lattices`); otherwise the matcher runs, C0 among its
    families, on M' of d's module's cached reduced form (g, M')
    (`FourModule.reduced`), the form `holder_normal_form` reads.  The cases
    whose exponent constraint is feasible are tried in the order ii, iii,
    i; the matcher is handed that list, draws only for a multiset one of
    them still accepts, and once one multiset is certified decides the
    later ones from it (`_fixed_matcher`).
    Its psi': (+ X') -> M' is proven by `certificate_valid`, and
    psi = g psi' (+ g_X^-1) is then proven for M and the candidate (+
    build(X)) themselves: g and each g_X are invertible and map each slot
    of M' onto that of M and of X' onto that of build(X) (g R_i = B_i, R
    exact), so psi is invertible and maps each slot of the candidate onto
    that of M."""
    form = holder_normal_form(d)
    if form is not None:
        return DecompositionResult(kronecker_decompose(form), "classified", "pencil",
                                   d, (form.b,) * 4, pencil=form)
    diags = ["no Hoelder normal form (kernel complement conditions failed)"]
    _, surj, eqc = _kernel_maps(d)
    if not all(surj):
        diags += [f"image condition fails: Pi_{i} ker Pi_0 != Pi_{i} H"
                  for i in (1, 2, 3) if not surj[i]]
        return DecompositionResult([], "unclassified", "none", d, eqc, diagnostics=diags)
    g, reduced = d.module.reduced
    feasible = [c for c in _CASE_ORDER if _case_feasible(c, eqc)]
    match = _fixed_matcher(reduced, cases=feasible)
    for case_tag in _CASE_ORDER:
        if case_tag not in feasible:
            diags.append(f"case {case_tag}: exponent constraint infeasible")
            continue
        found = match(case_tag)
        if found:
            tags, psi = found
            return DecompositionResult(tags, "classified", "nonholder", d, eqc,
                                       frame=(g, psi), diagnostics=diags)
        diags.append(f"case {case_tag}: no certified candidate")
    return DecompositionResult([], "unclassified", "none", d, eqc,
                               diagnostics=diags)


# -- canonical comparison of summand multisets ---------------------------------


def canonical_multiset(tags: Sequence[FamilyTag]) -> Tuple:
    """Hashable canonical form; regular summands at invariant-factor granularity.

    All regular polynomials are merged into the invariant factor chain of
    the block-diagonal companion operator, so two multisets describing the
    same module compare equal regardless of how the regular part was cut.
    """
    plain = []
    npolys: List[Poly] = []
    for t in tags:
        if t.family in ("N", "0"):
            npolys.append(t.regular_poly)
        else:
            plain.append((t.family, t.n))
    plain.sort()
    chain: Tuple[Poly, ...] = ()
    if npolys:
        op = block_diag(*[companion_matrix(p) for p in npolys])
        chain = tuple(invariant_factors(op))
    return (tuple(plain), tuple(tuple(p.coeffs) for p in chain))


def expand_tags(summands: Sequence[IndecompSummand]) -> List[FamilyTag]:
    out = []
    for s in summands:
        out.extend([s.tag] * s.multiplicity)
    return out
