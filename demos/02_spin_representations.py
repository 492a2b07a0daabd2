"""Spinor representations from quadratic gamma monomials.

Shows the bracket relation, the signature-flip isomorphism, the
Levi-Civita Casimir reproducing the gamma product, the chirality split
into half-spinor pieces, and equivalence testing with intertwiners.
"""

import numpy as np

from cliffspin import (
    bracket_residual,
    build_irrep,
    casimir_element,
    expected_structure,
    find_intertwiner,
    so_generators,
    weyl_pieces,
    weyl_projectors,
)
from cliffspin.liealg import flipped_representation, intertwiner_residual
from cliffspin.linalg import max_abs

np.set_printoptions(precision=3, suppress=True, linewidth=100)

print("=== so(0,3) from the (0,3) module ===")
rep = so_generators(build_irrep((0, 3)))
for (a, b), t in zip(rep.pairs(), rep.mats):
    print(f"T^{a}{b} =\n{t}")
print("bracket residual:", bracket_residual(rep))
print("negated generators with negated metric:",
      bracket_residual(flipped_representation(rep)))
print()

print("=== Casimir contraction equals the ordered gamma product ===")
for pq in ((0, 2), (4, 0), (0, 6)):
    m = build_irrep(pq)
    diff = max_abs(casimir_element(so_generators(m)) - m.P)
    print(f"signature {pq}: |casimir - P| = {diff:.2e}")
print()

print("=== Chirality split of the (4,0) module ===")
m = build_irrep((4, 0))
plus, minus = weyl_projectors(m)
print("projector ranks:", int(np.trace(plus).real), int(np.trace(minus).real))
piece_plus, piece_minus = weyl_pieces(m)
print("half-spinor bracket residuals:",
      bracket_residual(piece_plus), bracket_residual(piece_minus))
w = find_intertwiner(piece_plus, piece_minus)
print("intertwiner between the two halves:", "none" if w is None else "found (!)")
print()

print("=== The two branches of an odd module are equivalent ===")
rep_a = so_generators(build_irrep((0, 3), 1))
rep_b = so_generators(build_irrep((0, 3), -1))
w = find_intertwiner(rep_a, rep_b)
print("intertwiner:\n", w)
print("intertwining residual:", intertwiner_residual(w, rep_a, rep_b))
print()

print("=== Structure maps surviving on the irreducible representations ===")
for s in range(8):
    exp = expected_structure(s)
    maps = [name for name, present in (("J", exp.has_j), ("P", exp.has_p)) if present]
    print(f"s = {s}: {', '.join(maps)}")
