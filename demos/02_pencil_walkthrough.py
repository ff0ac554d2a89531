"""Walk through the exact decomposition of a scrambled Hoelder-type datum.

Builds J^(2)_2 + C_1 + a regular summand with parameter 1/3, hides the
block structure behind a random rational equivalence, and then shows each
stage: the necessity screen, the normal form (the pencil read off one
solve in the row spaces of the maps), its Kronecker block data, and the
identified summands.

Run:  python demos/02_pencil_walkthrough.py
"""

from fractions import Fraction

from sblq.core import (
    apply_equivalence, direct_sum_all, module_to_datum, random_equivalence,
)
from sblq.decompose import (
    decompose, holder_normal_form, necessary_conditions,
)
from sblq.pencil import kronecker_blocks
from sblq.polynomials import Poly, format_poly
from sblq.tables import FamilyTag, build


def main():
    tags = [
        FamilyTag("J2", 2),
        FamilyTag("C", 1),
        FamilyTag("N", 1, regular_poly=Poly([-Fraction(1, 3), 1])),
    ]
    print("input summands: ", " + ".join(t.render() for t in tags))
    datum = module_to_datum(direct_sum_all([build(t) for t in tags]))
    scrambled = apply_equivalence(datum, random_equivalence(datum, seed=42))
    print(f"scrambled datum: dim H = {scrambled.dim_H}, dims = {scrambled.dims}")

    nec = necessary_conditions(scrambled)
    d1, d2, d3, rhs = nec.equality_constraint
    print(f"necessity screen: passed={nec.passed}; "
          f"equality {d1}*q1 + {d2}*q2 + {d3}*q3 = {rhs}")

    form = holder_normal_form(scrambled)
    print(f"normal form: pencil is {form.a} x {form.b}")
    blocks = kronecker_blocks(form.a2, form.a3)
    print(f"  jordan sizes at 0:   {blocks.jordan_at_0}")
    print(f"  jordan sizes at 1:   {blocks.jordan_at_1}")
    print(f"  jordan sizes at inf: {blocks.jordan_at_inf}")
    print(f"  wide blocks:         {blocks.wide}")
    print(f"  tall blocks:         {blocks.tall}")
    print(f"  regular factors:     "
          f"{[format_poly(p) for p in blocks.regular_factors]}")

    result = decompose(scrambled)
    print("recovered summands:", " + ".join(s.render() for s in result.summands))


if __name__ == "__main__":
    main()
