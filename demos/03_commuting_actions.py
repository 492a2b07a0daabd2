"""Two commuting Clifford actions generate one orthogonal Lie algebra.

The running example is the pair (0,3) x (0,1) acting on C^2: the mixed
quadratic monomials complete the compact so(3) generators to so(3,1), and
the representation is a single half-spinor representation.  The same
machinery then handles the ten-dimensional pair (4,0) x (0,6) on C^32 and
the non-closure of three commuting families.
"""

import numpy as np

from cliffspin import (
    build_commuting,
    equivalence_even,
    equivalence_odd_odd,
    tensor_product_element,
    tensor_real_structure,
    three_action_closure_defect,
    verify_bracket_table,
)
from cliffspin.commuting import commutation_residual, real_structure_recipe

np.set_printoptions(precision=3, suppress=True, linewidth=100)

print("=== (0,3) x (0,1): commuting families on C^2 ===")
ca = build_commuting((0, 3), (0, 1))
print("cross-family commutators:", commutation_residual(ca))
print("combined metric diag:", ca.generators.eta, " (so(3,1))")
for (a, b), t in zip(ca.generators.pairs(), ca.generators.mats):
    print(f"T^{a}{b} =\n{t}")
print(verify_bracket_table(ca).summary_line())
print()

print("=== The tensor representation is one half-spinor representation ===")
print(equivalence_odd_odd(ca).summary_line())
prod = tensor_product_element(ca)
print("tensor product element (scalar):", prod[0, 0])
print("combined signature parameter s =", ca.s,
      "-> no antilinear structure:", tensor_real_structure(ca) is None)
print()

print("=== (4,0) x (0,6): the ten-dimensional case on C^32 ===")
ca10 = build_commuting((4, 0), (0, 6))
print("generator count:", len(ca10.generators.mats))
print(verify_bracket_table(ca10).summary_line())
print(equivalence_even(ca10).summary_line())
j = tensor_real_structure(ca10)
print("real structure recipe:", real_structure_recipe(ca10),
      "; J^2 sign:", j.square_sign())
print()

print("=== Structure-map recipes across factor parities ===")
for pair in [((2, 0), (0, 3)), ((2, 0), (0, 1)), ((0, 1), (2, 0)),
             ((0, 3), (0, 3)), ((0, 3), (0, 1))]:
    recipe = real_structure_recipe(build_commuting(*pair))
    print(f"{pair[0]} x {pair[1]}: {recipe or 'none'}")
print()

print("=== Three commuting families do not close ===")
for sigs in [((2, 0), (2, 0), (2, 0)), ((0, 3), (0, 3), (0, 1)),
             ((0, 1), (0, 1), (0, 1))]:
    defect = three_action_closure_defect(*sigs)
    note = "closes (degenerate scalars)" if defect < 1e-10 else "does not close"
    print(f"{sigs}: defect {defect:.3f}  -> {note}")
