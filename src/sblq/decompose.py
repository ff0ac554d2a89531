"""Decomposition of a datum's module into identified indecomposable summands.

The dispatch runs: split off the maximal trivial kernel-only power
(family C at size 0), then try the pencil reduction that is available
exactly when the kernel of the distribution map is a common complement
of the other three kernels; otherwise enumerate the non-Hoelder candidate
multisets compatible with the exponent constraint and certify the first
match with an isomorphism certificate.  All decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    EquivalenceMap, FourModule, SBLDatum, certificate_valid, datum_to_module,
    direct_sum, direct_sum_all, module_isomorphic, module_to_datum,
    validate_datum,
)
from .linalg import (
    Matrix, Subspace, block_diag, hstack, image_basis, inverse,
    invariant_factors, kernel_basis, rank, solve_right, subspace_intersect,
    subspace_sum,
)
from .pencil import kronecker_blocks
from .polynomials import Poly
from .tables import FamilyTag, build


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


def _image_dims(d: SBLDatum, sub: Subspace) -> Tuple[int, int, int]:
    return tuple(rank(d.pi[i] @ sub.basis) if sub.dim else 0 for i in (1, 2, 3))


def necessary_conditions(d: SBLDatum, lattice_depth: int = 3,
                         max_lattice: int = 64) -> NecessityReport:
    """Exact screen of the two necessary conditions for p-boundedness.

    The image condition is checked exactly.  The dimension inequalities
    are evaluated on the finite lattice generated from ker Pi_0 and its
    intersections with the other kernels, closed under pairwise sum and
    intersection to the given nesting depth; the screen is sound but not
    claimed complete.
    """
    k0 = d.kernel0()
    surj = [True]
    for i in (1, 2, 3):
        img = rank(d.pi[i] @ k0.basis) if k0.dim else 0
        surj.append(img == d.dims[i])
    found: List[Tuple[str, Subspace]] = [("ker Pi_0", k0)]
    for i in (1, 2, 3):
        cap = subspace_intersect(k0, kernel_basis(d.pi[i]))
        found.append((f"ker Pi_0 ∩ ker Pi_{i}", cap))

    def known(sub: Subspace) -> bool:
        return any(s.same_span(sub) for _, s in found)

    for _ in range(lattice_depth):
        new: List[Tuple[str, Subspace]] = []
        for a in range(len(found)):
            for b in range(a + 1, len(found)):
                if len(found) + len(new) >= max_lattice:
                    break
                (da, sa), (db, sb) = found[a], found[b]
                for op, sub in (("∩", subspace_intersect(sa, sb)),
                                ("+", subspace_sum(sa, sb))):
                    if not known(sub) and not any(s.same_span(sub) for _, s in new):
                        new.append((f"({da}) {op} ({db})", sub))
        if not new:
            break
        found.extend(new)

    entries = tuple(LatticeEntry(desc, sub.dim, _image_dims(d, sub))
                    for desc, sub in found)
    eq = entries[0]
    return NecessityReport(tuple(surj), entries,
                           (*eq.image_dims, eq.dim))


# -- the Hoelder-case pencil reduction ---------------------------------------


@dataclass(frozen=True)
class PencilForm:
    """Normal form of a Hoelder-type datum: the pair of a x b pencil matrices.

    The base change is an equivalence carrying the input datum exactly onto
    the normal-form datum rebuilt from (a, b, A2, A3); this is verified at
    construction time.
    """

    a: int
    b: int
    a2: Matrix
    a3: Matrix
    base_change: EquivalenceMap

    def normal_form_datum(self) -> SBLDatum:
        return pencil_datum(self.a, self.b, self.a2, self.a3)


def pencil_datum(a: int, b: int, a2: Matrix, a3: Matrix) -> SBLDatum:
    """Datum with maps [I_a | 0], [0 | I_b], [A2^T | I_b], [A3^T | I_b]."""
    eye_a, eye_b = Matrix.identity(a), Matrix.identity(b)
    pi0 = hstack(eye_a, Matrix.zeros(a, b))
    pi1 = hstack(Matrix.zeros(b, a), eye_b)
    pi2 = hstack(a2.transpose(), eye_b)
    pi3 = hstack(a3.transpose(), eye_b)
    return SBLDatum(a + b, (a, b, b, b), (pi0, pi1, pi2, pi3))


def holder_normal_form(d: SBLDatum) -> Optional[PencilForm]:
    """Pencil form of a Hoelder-type datum, or None.

    Returns None unless ker Pi_0 is a direct complement of each ker Pi_i
    and every H_i (i >= 1) has the kernel's dimension; those conditions
    already force the image condition and pin the exponent constraint to
    the Hoelder line.
    """
    k0 = d.kernel0()
    b = k0.dim
    a = d.dim_H - b
    if a != d.dims[0]:
        return None
    kernels = [kernel_basis(d.pi[i]) for i in (1, 2, 3)]
    for i, ki in enumerate(kernels, start=1):
        if d.dims[i] != b:
            return None
        if ki.dim + b != d.dim_H or rank(hstack(ki.basis, k0.basis)) != d.dim_H:
            return None
    u = kernels[0].basis               # complement basis, a columns
    v = k0.basis                       # kernel basis, b columns
    phi = inverse(hstack(u, v)) if d.dim_H else Matrix.zeros(0, 0)
    phi0 = inverse(d.pi[0] @ u) if a else Matrix.zeros(0, 0)
    phis = [phi0]
    gammas = []
    for i in (1, 2, 3):
        pv = d.pi[i] @ v
        phii = inverse(pv) if b else Matrix.zeros(0, 0)
        phis.append(phii)
        gammas.append(phii @ (d.pi[i] @ u))
    a2 = gammas[1].transpose()
    a3 = gammas[2].transpose()
    base = EquivalenceMap(phi, tuple(phis))
    form = PencilForm(a, b, a2, a3, base)
    # phi is invertible (EquivalenceMap checks it), so intertwining
    # pi'_i phi = phi_i pi_i is the same as pi'_i = phi_i pi_i phi^-1
    nf = form.normal_form_datum()
    if any(nf.pi[i] @ phi != phis[i] @ d.pi[i] for i in range(4)):
        raise AssertionError("pencil reconstruction failed")
    return form


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
    tags: List[Tuple[FamilyTag, str]] = []
    for eps in blocks.wide:
        tags.append((FamilyTag("T", eps), "pencil block"))
    for eta in blocks.tall:
        tags.append((FamilyTag("C", eta), "pencil block"))
    for fam, sizes in (("J2", blocks.jordan_at_0), ("J1", blocks.jordan_at_1),
                       ("J3", blocks.jordan_at_inf)):
        for n in sizes:
            tags.append((FamilyTag(fam, n), "pencil block"))
    for f in blocks.regular_factors:
        tags.append((FamilyTag("N", f.degree, regular_poly=f),
                     "invariant-factor granularity"))
    out: List[IndecompSummand] = []
    for note in ("pencil block", "invariant-factor granularity"):
        out.extend(collect_summands([t for t, nt in tags if nt == note], note))
    return sorted(out, key=lambda s: _tag_sort_key(s.tag))


# -- trivial kernel-only split -----------------------------------------------


def strip_c0(m: FourModule) -> Tuple[FourModule, int]:
    """Split off the maximal power of the kernel-only one-dimensional module.

    The split exists when the three function subspaces together with slot 0
    span the ambient space; the returned count is the codimension of the
    function span, and the complementary module is certified by rebuilding
    the direct sum and checking the basis-change certificate exactly.
    """
    span123 = subspace_sum(subspace_sum(m.sub[1], m.sub[2]), m.sub[3])
    k = m.dim_M - span123.dim
    if k == 0:
        return m, 0
    if subspace_sum(m.sub[0], span123).dim != m.dim_M:
        return m, 0
    cap = subspace_intersect(m.sub[0], span123)
    ext = image_basis(hstack(cap.basis, m.sub[0].basis)).basis
    w = ext.submatrix(range(m.dim_M), range(cap.dim, ext.cols))
    if w.cols != k:
        raise AssertionError("kernel-only complement has the wrong dimension")
    bs = span123.basis
    new_subs = [Subspace._trusted(span123.dim, solve_right(bs, cap.basis)
                                  if cap.dim else Matrix.zeros(span123.dim, 0))]
    for i in (1, 2, 3):
        coords = solve_right(bs, m.sub[i].basis) if m.sub[i].dim \
            else Matrix.zeros(span123.dim, 0)
        new_subs.append(Subspace._trusted(span123.dim, coords))
    rest = FourModule(span123.dim, tuple(new_subs))
    c0_power = direct_sum_all([build(FamilyTag("C", 0))] * k)
    rebuilt = direct_sum(rest, c0_power)
    psi = hstack(bs, w)
    if not certificate_valid(psi, rebuilt, m):
        return m, 0
    return rest, k


# -- non-Hoelder matching ------------------------------------------------------


_CASE_FAMILIES = {
    "i": ("P1", "P2", "P3", "K1", "K2", "K3"),
    "ii": ("Y", "Z", "P1", "P2", "P3", "K1", "K2", "K3"),
    "iii": ("L", "B", "P1", "P2", "P3", "K1", "K2", "K3"),
}


def _superscripts(counts: Dict[str, int]) -> set:
    return {f[1] for f, c in counts.items() if c and f[0] in "PK"}


def _case_counts_admissible(case_tag: str, counts: Dict[str, int]) -> bool:
    sups = _superscripts(counts)
    if case_tag == "i":
        return len(sups) <= 2
    if case_tag == "ii":
        return len(sups) <= 1
    return True


def module_invariants(m: FourModule) -> Tuple[int, ...]:
    """Additive isomorphism invariants: dimension vector and pairwise meets."""
    out = list(m.dim_vector)
    for i in range(4):
        for j in range(i + 1, 4):
            out.append(subspace_intersect(m.sub[i], m.sub[j]).dim)
    return tuple(out)


_FAMILY_INVARIANTS: Dict[str, Tuple[int, ...]] = {}


def _family_invariants(family: str) -> Tuple[int, ...]:
    if family not in _FAMILY_INVARIANTS:
        _FAMILY_INVARIANTS[family] = module_invariants(build(FamilyTag(family)))
    return _FAMILY_INVARIANTS[family]


def _enumerate_multiplicities(families: Sequence[str], target: Tuple[int, ...]):
    """Nonnegative solutions of the additive invariant system, lexicographic."""
    vecs = [_family_invariants(f) for f in families]

    def rec(idx: int, remaining: Tuple[int, ...], acc: List[int]):
        if idx == len(families):
            if all(r == 0 for r in remaining):
                yield tuple(acc)
            return
        vec = vecs[idx]
        bound = min((r // v for r, v in zip(remaining, vec) if v), default=0)
        if all(v == 0 for v in vec):
            bound = 0
        for n in range(bound + 1):
            rest = tuple(r - n * v for r, v in zip(remaining, vec))
            if any(x < 0 for x in rest):
                break
            acc.append(n)
            yield from rec(idx + 1, rest, acc)
            acc.pop()

    yield from rec(0, target, [])


def match_nonholder(m: FourModule, case_tag: str, trials: int = 32,
                    seed: int = 0):
    """Certified summand multiset for one non-Hoelder case shape, or None.

    Candidate multiplicities solve the integer system built from the
    dimension vector plus the pairwise intersection dimensions; candidates
    are tried in lexicographic order and the first certified isomorphism
    wins.  Returns (summands, certificate) or None.
    """
    families = _CASE_FAMILIES[case_tag]
    target = module_invariants(m)
    for counts_vec in _enumerate_multiplicities(families, target):
        counts = dict(zip(families, counts_vec))
        if not _case_counts_admissible(case_tag, counts):
            continue
        tags = [FamilyTag(f) for f in families for _ in range(counts[f])]
        candidate = direct_sum_all([build(t) for t in tags])
        res = module_isomorphic(m, candidate, trials=trials, seed=seed)
        if res:
            return collect_summands(tags, "certified iso"), res.certificate
    return None


# -- full decomposition --------------------------------------------------------


@dataclass
class DecompositionResult:
    summands: List[IndecompSummand]
    status: str                       # "classified" or "unclassified"
    path: str                         # "pencil", "nonholder", "empty"
    necessity: NecessityReport
    pencil: Optional[PencilForm] = None
    certificate: Optional[Matrix] = None
    diagnostics: List[str] = field(default_factory=list)
    real_root_refinements: Dict[str, List[Tuple[Fraction, Fraction]]] = field(default_factory=dict)

    @property
    def classified(self) -> bool:
        return self.status == "classified"

    def tag_multiset(self) -> Dict[FamilyTag, int]:
        out: Dict[FamilyTag, int] = {}
        for s in self.summands:
            out[s.tag] = out.get(s.tag, 0) + s.multiplicity
        return out


def _case_feasible(case_tag: str, eqc: Tuple[int, int, int, int]) -> bool:
    """Can the case exponents meet the kernel equality constraint in [0,1]^3?"""
    d1, d2, d3, k = (Fraction(x) for x in eqc)

    def plane_feasible(c: Fraction) -> bool:
        vals = []
        for free_axis in range(3):
            for b1 in (Fraction(0), Fraction(1)):
                for b2 in (Fraction(0), Fraction(1)):
                    q = [None, None, None]
                    others = [ax for ax in range(3) if ax != free_axis]
                    q[others[0]], q[others[1]] = b1, b2
                    q[free_axis] = c - b1 - b2
                    if not (0 <= q[free_axis] <= 1):
                        continue
                    vals.append(d1 * q[0] + d2 * q[1] + d3 * q[2] - k)
        return bool(vals) and min(vals) <= 0 <= max(vals)

    if case_tag == "ii":
        return plane_feasible(Fraction(2))
    if case_tag == "iii":
        return (d1 + d2 + d3) == 2 * k
    if case_tag == "iv":
        return plane_feasible(Fraction(1))
    # case i: for some excluded index, q_excluded = 1 - s, other two = s
    ds = (d1, d2, d3)
    for ex in range(3):
        rest = [ds[ax] for ax in range(3) if ax != ex]
        g0 = ds[ex] - k                   # s = 0
        g1 = rest[0] + rest[1] - k        # s = 1
        if min(g0, g1) <= 0 <= max(g0, g1):
            return True
    return False


def decompose(d: SBLDatum, trials: int = 32, seed: int = 0,
              refine_real: bool = False) -> DecompositionResult:
    """Decompose a datum's module into identified indecomposable summands.

    Dispatch: split off kernel-only summands, then the pencil path when the
    Hoelder normal form exists, otherwise the non-Hoelder matchers whose
    exponent constraint is feasible.  Inputs outside the bounded taxonomy
    come back unclassified.
    """
    report = validate_datum(d)
    if not report.valid:
        raise ValueError(f"datum maps not surjective at {report.failures()}")
    return _decompose(d, necessary_conditions(d), trials, seed, refine_real)


def _decompose(d: SBLDatum, nec: NecessityReport, trials: int, seed: int,
               refine_real: bool) -> DecompositionResult:
    """`decompose` of a validated datum whose necessity report is known."""
    m = datum_to_module(d)
    rest, c0_count = strip_c0(m)
    summands: List[IndecompSummand] = []
    if c0_count:
        summands.append(IndecompSummand(FamilyTag("C", 0), c0_count, "kernel-only split"))
    if rest.dim_M == 0:
        return DecompositionResult(summands, "classified", "empty", nec)
    d_rest = module_to_datum(rest)
    form = holder_normal_form(d_rest)
    if form is not None:
        summands.extend(kronecker_decompose(form))
        result = DecompositionResult(summands, "classified", "pencil", nec, pencil=form)
        if refine_real:
            _attach_real_roots(result)
        return result
    diags = ["no Hoelder normal form (kernel complement conditions failed)"]
    for case_tag in ("ii", "iii", "i"):
        if not _case_feasible(case_tag, nec.equality_constraint):
            diags.append(f"case {case_tag}: exponent constraint infeasible")
            continue
        found = match_nonholder(rest, case_tag, trials=trials, seed=seed)
        if found:
            tags, cert = found
            summands.extend(tags)
            return DecompositionResult(summands, "classified", "nonholder", nec,
                                       certificate=cert, diagnostics=diags)
        diags.append(f"case {case_tag}: no certified candidate")
    return DecompositionResult(summands, "unclassified", "none", nec,
                               diagnostics=diags)


def _attach_real_roots(result: DecompositionResult) -> None:
    from .polynomials import sturm_real_roots
    for s in result.summands:
        p = s.tag.regular_poly
        if p is not None and p.degree >= 1:
            result.real_root_refinements[s.tag.render()] = \
                sturm_real_roots(p, Fraction(1, 10 ** 6))


# -- canonical comparison of summand multisets ---------------------------------


def canonical_multiset(tags: Sequence[FamilyTag]) -> Tuple:
    """Hashable canonical form; regular summands at invariant-factor granularity.

    All regular polynomials are merged into the invariant factor chain of
    the block-diagonal companion operator, so two multisets describing the
    same module compare equal regardless of how the regular part was cut.
    """
    from .linalg import companion_matrix
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
