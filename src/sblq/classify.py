"""Boundedness verdicts for classified summand multisets.

A verdict lists every admissible (case, exponent-constraint) pair for the
certified multiset, then resolves a boundedness status against a fixed
fact table of literature results, closed under three rules: kernel-only
summands are dropped, sub-multisets of bounded multisets stay bounded,
and lowering a Jordan-type size parameter preserves known boundedness.
Statuses never widen the exponent range stated by the cited result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import SBLDatum, validate_datum
from .decompose import (
    DecompositionResult, IndecompSummand, _case_feasible, _decompose,
    _superscripts, expand_tags,
)
from .tables import FamilyTag

Item = Tuple[str, int]          # (family, n)
Multiset = Dict[Item, int]


HOLDER_LINE = "1/p1 + 1/p2 + 1/p3 = 1"
YOUNG_PLANE = "1/p1 + 1/p2 + 1/p3 = 2"
LW_POINT = "p = (2, 2, 2)"


@dataclass(frozen=True)
class CaseEntry:
    tag: str               # "i", "ii", "iii", "iv"
    constraint: str

    def render(self) -> str:
        return f"case {self.tag}: {self.constraint}"


@dataclass(frozen=True)
class StatusTag:
    """Boundedness status with its provenance.

    kind is one of Bounded, BoundedConditional, Open, OpenContainsT,
    NotPBounded, plus Unclassified for inputs outside the certified
    taxonomy (no claim is made for those).
    """

    kind: str
    citation: Optional[str] = None
    exponent_range: Optional[str] = None
    chain: Tuple[str, ...] = ()
    witness: Optional[str] = None

    def render(self) -> str:
        if self.kind == "Bounded":
            return f"Bounded({self.citation})"
        if self.kind == "BoundedConditional":
            return f"BoundedConditional({' <- '.join(self.chain)})"
        if self.kind == "NotPBounded":
            return f"NotPBounded({self.witness})"
        return self.kind


@dataclass
class Verdict:
    cases: List[CaseEntry]
    summands: List[IndecompSummand]
    status: StatusTag
    witnesses: List[str] = field(default_factory=list)
    decomposition: Optional[DecompositionResult] = None
    warnings: List[str] = field(default_factory=list)


# -- case detection -------------------------------------------------------------


def _to_multiset(tags: Sequence[FamilyTag]) -> Multiset:
    out: Multiset = {}
    for t in tags:
        key = (t.family, t.n)
        out[key] = out.get(key, 0) + 1
    return out


def _families(ms: Multiset) -> set:
    return {f for (f, _), c in ms.items() if c}


def case_detect(tags: Sequence[FamilyTag],
                equality_constraint: Optional[Tuple[int, int, int, int]] = None
                ) -> List[CaseEntry]:
    """Every case whose allowed-summand list contains the multiset.

    Overlapping multisets list all fitting cases.  When the kernel
    equality constraint is supplied, each emitted case is checked for
    exponent consistency against it.
    """
    ms = _to_multiset(tags)
    fams = _families(ms)
    entries: List[CaseEntry] = []
    if fams <= {"N", "J1", "J2", "J3", "C", "T"}:
        entries.append(CaseEntry("iv", HOLDER_LINE))
    pk = {"P1", "P2", "P3", "K1", "K2", "K3"}
    if fams <= pk:
        sups = _superscripts(fams)
        for excluded in ("1", "2", "3"):
            rest = sorted({"1", "2", "3"} - {excluded})
            if sups <= set(rest):
                j, k = rest
                entries.append(CaseEntry(
                    "i", f"1/p{j} = 1/p{k} = 1 - 1/p{excluded}"))
    if fams <= {"Y", "Z"}:
        entries.append(CaseEntry("ii", YOUNG_PLANE))
    else:
        for i in ("1", "2", "3"):
            if fams <= {"Y", "Z", f"P{i}", f"K{i}"} and fams & {f"P{i}", f"K{i}"}:
                entries.append(CaseEntry("ii", f"{YOUNG_PLANE}, p{i} = 1"))
    if fams <= ({"L", "B"} | pk):
        entries.append(CaseEntry("iii", LW_POINT))
    if equality_constraint is not None:
        entries = [e for e in entries
                   if _case_feasible(e.tag, equality_constraint)]
    return entries


# -- the fact table --------------------------------------------------------------


def _drop_c0(ms: Multiset) -> Multiset:
    return {k: c for k, c in ms.items() if k != ("C", 0)}


def _embeds_into_items(ms: Multiset, base: Multiset) -> bool:
    """Injective matching where a J item may land on a larger J of the same type."""
    remaining = dict(base)
    for (fam, n), count in sorted(ms.items(), key=lambda kv: -kv[0][1]):
        if fam in ("J1", "J2", "J3"):
            for _ in range(count):
                host = None
                for (bf, bn), bc in remaining.items():
                    if bf == fam and bn >= n and bc > 0 and \
                            (host is None or bn < host[1]):
                        host = (bf, bn)
                if host is None:
                    return False
                remaining[host] -= 1
        else:
            if remaining.get((fam, n), 0) < count:
                return False
            remaining[(fam, n)] -= count
    return True


@dataclass(frozen=True)
class Fact:
    key: str
    exponent_range: str
    direct: Callable[[Multiset], bool]
    embeds: Callable[[Multiset], bool]
    description: str


def _all_items_in(ms: Multiset, allowed: set) -> bool:
    return bool(ms) and all(k in allowed for k in ms)


def _is_single(ms: Multiset, item: Item) -> bool:
    return ms == {item: 1}


def _dt_bases() -> List[Multiset]:
    out = []
    for i in ("1", "2", "3"):
        out.append({(f"J{i}", 2): 1})
        out.append({("N", 1): 1, (f"J{i}", 1): 1})
        out.append({("C", 1): 1, (f"J{i}", 1): 1})
    return out


def _kovac_bases() -> List[Multiset]:
    out = []
    for i in ("1", "2", "3"):
        for j in ("1", "2", "3"):
            if i < j:
                out.append({(f"J{i}", 1): 1, (f"J{j}", 1): 1})
    return out


def _3twisted_direct(ms: Multiset) -> bool:
    keys = {("J1", 1), ("J2", 1), ("J3", 1), ("C", 1)}
    if set(ms) != keys:
        return False
    counts = {ms[k] for k in keys}
    return len(counts) == 1 and counts.pop() >= 1


FACT_TABLE: Tuple[Fact, ...] = (
    Fact("holder", HOLDER_LINE,
         lambda ms: _all_items_in(ms, {("C", 0), ("T", 0)}),
         lambda ms: _all_items_in(ms, {("C", 0), ("T", 0)}),
         "Hoelder's inequality (kernel-free and kernel-only trivial summands)"),
    Fact("coifman-meyer", HOLDER_LINE,
         lambda ms: _all_items_in(ms, {("C", 1)}),
         lambda ms: _all_items_in(ms, {("C", 1)}),
         "Coifman-Meyer multipliers: any power of the least singular summand"),
    Fact("lacey-thiele", HOLDER_LINE + ", 2 < p < infinity",
         lambda ms: _is_single(ms, ("N", 1)),
         lambda ms: _embeds_into_items(ms, {("N", 1): 1}),
         "bilinear Hilbert transform: the size-one regular summand"),
    Fact("demeter-thiele", HOLDER_LINE,
         lambda ms: any(ms == b for b in _dt_bases()),
         lambda ms: any(_embeds_into_items(ms, b) for b in _dt_bases()),
         "one-and-a-half dimensional time-frequency analysis cases"),
    Fact("kovac-twisted", HOLDER_LINE,
         lambda ms: any(ms == b for b in _kovac_bases()),
         lambda ms: any(_embeds_into_items(ms, b) for b in _kovac_bases()),
         "twisted paraproduct: two distinct size-one Jordan-type summands"),
    Fact("thm-3-twisted", HOLDER_LINE + ", 2 < p < infinity",
         _3twisted_direct,
         lambda ms: _all_items_in(
             ms, {("J1", 1), ("J2", 1), ("J3", 1), ("C", 1)}),
         "powers of the full three-twisted block"),
    Fact("thm-type-03", HOLDER_LINE + ", 2 < p < infinity",
         lambda ms: bool(ms) and all(f in ("N", "C") and n >= 1 for (f, n) in ms),
         lambda ms: bool(ms) and all(f in ("N", "C") and n >= 1 for (f, n) in ms),
         "direct sums of regular and staircase summands"),
)

FACT_DESCRIPTIONS: Dict[str, str] = {f.key: f.description for f in FACT_TABLE}
FACT_DESCRIPTIONS["thm-i-ii-iii"] = \
    "non-Hoelder cases i-iii: Hoelder/Young/Loomis-Whitney arguments"


def status_lookup(tags: Sequence[FamilyTag]) -> StatusTag:
    """Resolve the boundedness status of a certified Hoelder-type multiset."""
    ms_full = _to_multiset(tags)
    if any(f == "T" and n >= 1 for (f, n) in ms_full):
        return StatusTag("OpenContainsT")
    if not ms_full:
        return StatusTag("Bounded", "holder", HOLDER_LINE)
    for fact in FACT_TABLE:
        if fact.direct(ms_full):
            return StatusTag("Bounded", fact.key, fact.exponent_range)
    ms = _drop_c0(ms_full)
    if not ms:
        return StatusTag("Bounded", "holder", HOLDER_LINE)
    for fact in FACT_TABLE:
        if fact.direct(ms):
            return StatusTag("Bounded", fact.key, fact.exponent_range,
                             chain=(fact.key, "drop kernel-only summands"))
    for fact in FACT_TABLE:
        if fact.embeds(ms):
            return StatusTag("BoundedConditional", fact.key, fact.exponent_range,
                             chain=(fact.key, "drop summands / lower Jordan sizes"))
    return StatusTag("Open")


# -- the full pipeline ------------------------------------------------------------


def classify(d: SBLDatum) -> Verdict:
    """validate -> decompose -> necessity screen if unclassified -> case
    detection -> status, from the datum alone (see `_fixed_matcher`).

    A classified datum passes the necessity screen (see `_decompose`), so
    the screen runs only when the decomposition fails.  A hard necessity
    failure then gives NotPBounded with the failing conditions as
    witnesses, in the screen's order.  Otherwise an unclassified
    decomposition yields empty cases and an Unclassified status carrying
    diagnostics.
    """
    report = validate_datum(d)
    if not report.valid:
        raise ValueError(f"datum maps not surjective at indices {report.failures()}")
    dec = _decompose(d)
    if not dec.classified:
        failures = dec.necessity.hard_failures()
        if failures:
            return Verdict([], [], StatusTag("NotPBounded", witness=failures[0]),
                           witnesses=failures, warnings=report.warnings)
        status = StatusTag("Unclassified",
                           witness="; ".join(dec.diagnostics[-2:]))
        return Verdict([], dec.summands, status, decomposition=dec,
                       warnings=report.warnings)
    tags = expand_tags(dec.summands)
    cases = case_detect(tags, dec.equality_constraint)
    if not cases:
        status = StatusTag(
            "NotPBounded",
            witness="certified summand multiset fits no admissible case shape")
        return Verdict([], dec.summands, status, decomposition=dec,
                       warnings=report.warnings)
    non_holder = [c for c in cases if c.tag in ("i", "ii", "iii")]
    if not tags:
        status = StatusTag("Bounded", "holder", HOLDER_LINE)  # zero module
    elif non_holder:
        status = StatusTag("Bounded", "thm-i-ii-iii",
                           "; ".join(c.constraint for c in non_holder))
    else:
        status = status_lookup(tags)
    return Verdict(cases, dec.summands, status, decomposition=dec,
                   warnings=report.warnings)
