"""Seeded random inputs for round-trip audits.

Generates direct sums from the named-family constructors, each drawn from
one case's families (a cross-case mix is not p-bounded for any exponent and
is outside the certified taxonomy), then scrambles the datum with a seeded
rational equivalence.  Non-Hoelder bags may hold C_0 copies, which no case
shape lists: `classify` reports those NotPBounded.  Everything derives
deterministically from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .core import (
    SBLDatum, apply_equivalence, direct_sum_all, module_to_datum,
    random_equivalence,
)
from .polynomials import Poly
from .tables import FamilyTag, build, dim_vector


def _random_regular_poly(rng: random.Random):
    """Degree-1 parameter off {0, 1}, a rootless monic quadratic, or a square."""
    kind = rng.randrange(4)
    if kind == 3:
        lam = _nonexceptional_lambda(rng)
        return Poly.from_roots([lam, lam]), 2      # (t - lam)^2
    if kind == 2:
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        c = b * b / 4 + Fraction(rng.randint(1, 4), rng.randint(1, 3))
        p = Poly([c, b, 1])
        if p(0) == 0 or p(1) == 0:
            p = Poly([c + 1, b, 1])
        return p, 2
    lam = _nonexceptional_lambda(rng)
    return Poly.from_roots([lam]), 1


def _nonexceptional_lambda(rng: random.Random) -> Fraction:
    while True:
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if lam not in (0, 1):
            return lam


def _holder_bag(rng: random.Random, budget: int) -> List[FamilyTag]:
    tags: List[FamilyTag] = []
    while True:
        options = []
        if budget >= 2:
            options.extend(["N", "J", "C1", "T1"])
        if budget >= 1:
            options.append("C0")
        if budget >= 5:
            options.extend(["C2", "T2"])
        if not options:
            break
        if tags and rng.random() < 0.25:
            break
        pick = rng.choice(options)
        if pick == "N":
            poly, deg = _random_regular_poly(rng)
            if 2 * deg > budget:
                continue
            tag = FamilyTag("N", deg, regular_poly=poly)
        elif pick == "J":
            n = rng.randint(1, min(3, budget // 2))
            tag = FamilyTag(f"J{rng.randint(1, 3)}", n)
        elif pick == "C0":
            tag = FamilyTag("C", 0)
        elif pick == "C1":
            tag = FamilyTag("C", 1)
        elif pick == "C2":
            tag = FamilyTag("C", 2)
        elif pick == "T1":
            tag = FamilyTag("T", 1)
        else:
            tag = FamilyTag("T", 2)
        cost = dim_vector(tag).total
        if cost > budget:
            continue
        tags.append(tag)
        budget -= cost
    return tags


def _young_bag(rng: random.Random, budget: int) -> List[FamilyTag]:
    tags = [FamilyTag("Y") if rng.random() < 0.5 else FamilyTag("Z")]
    budget -= dim_vector(tags[0]).total
    while budget >= 2 and rng.random() < 0.6:
        choice = rng.choice(["Y", "Z", "C0"])
        tag = FamilyTag("C", 0) if choice == "C0" else FamilyTag(choice)
        cost = dim_vector(tag).total
        if cost > budget:
            break
        tags.append(tag)
        budget -= cost
    return tags


def _lw_bag(rng: random.Random, budget: int) -> List[FamilyTag]:
    tags = [FamilyTag("L") if rng.random() < 0.6 else FamilyTag("B")]
    budget -= dim_vector(tags[0]).total
    extras = ["L", "B", "P1", "P2", "P3", "K1", "K2", "K3", "C0"]
    while budget >= 1 and rng.random() < 0.6:
        choice = rng.choice(extras)
        tag = FamilyTag("C", 0) if choice == "C0" else FamilyTag(choice)
        cost = dim_vector(tag).total
        if cost > budget:
            continue
        tags.append(tag)
        budget -= cost
    return tags


def _bilinear_bag(rng: random.Random, budget: int) -> List[FamilyTag]:
    j, k = rng.sample(["1", "2", "3"], 2)
    allowed = [f"P{j}", f"K{j}", f"P{k}", f"K{k}"]
    tags = [FamilyTag(rng.choice(allowed))]
    budget -= dim_vector(tags[0]).total
    while budget >= 1 and rng.random() < 0.6:
        choice = rng.choice(allowed + ["C0"])
        tag = FamilyTag("C", 0) if choice == "C0" else FamilyTag(choice)
        cost = dim_vector(tag).total
        if cost > budget:
            continue
        tags.append(tag)
        budget -= cost
    return tags


def random_case(seed: int, max_total: int = 12) -> Tuple[List[FamilyTag], SBLDatum]:
    """A random in-taxonomy direct sum and its scrambled datum."""
    rng = random.Random(seed)
    budget = rng.randint(2, max_total)
    kind = rng.choices(["holder", "young", "lw", "bilinear"],
                       weights=[55, 15, 15, 15])[0]
    if kind == "holder":
        tags = _holder_bag(rng, budget)
    elif kind == "young":
        tags = _young_bag(rng, budget)
    elif kind == "lw":
        tags = _lw_bag(rng, budget)
    else:
        tags = _bilinear_bag(rng, budget)
    if not tags:
        tags = [FamilyTag("N", 1, regular_poly=Poly.from_roots([
            _nonexceptional_lambda(rng)]))]
    datum = module_to_datum(direct_sum_all([build(t) for t in tags]))
    scrambled = apply_equivalence(datum, random_equivalence(datum, seed + 10 ** 6))
    return tags, scrambled
