"""Tour of Clifford module construction and structure maps.

Builds a handful of modules, prints their gamma matrices, and measures the
sign table (epsilon, epsilon', epsilon'') from the modules: epsilon' from
which antilinear sign pattern has a solution, the rest from the closed-form
real structure.
"""

import numpy as np

from cliffspin import build_irrep, measure_sign_triple, sign_triple
from cliffspin.clifford import module_residuals

np.set_printoptions(precision=3, suppress=True, linewidth=100)

print("=== The two-generator module of signature (2,0) ===")
m = build_irrep((2, 0))
for a, g in enumerate(m.gammas):
    print(f"gamma_{a} =\n{g}")
print(f"product element P =\n{m.P}")
print(f"chirality =\n{m.chirality}")
print(f"real structure K =\n{m.J.matrix}")
print()

print("=== Anticommutation check by direct multiplication ===")
g0, g1 = m.gammas
print("g0 g1 + g1 g0 =\n", g0 @ g1 + g1 @ g0)
print()

print("=== The quaternionic module of signature (0,3) ===")
m = build_irrep((0, 3))
print("gammas square to -1; the real structure squares to", m.J.square_sign())
print("defining-relation residuals:", {k: f"{v:.1e}" for k, v in module_residuals(m).items()})
print()

print("=== Odd signatures come in two branches ===")
plus, minus = build_irrep((0, 3), 1), build_irrep((0, 3), -1)
print("last gamma, branch +1:\n", plus.gammas[-1])
print("last gamma, branch -1:\n", minus.gammas[-1])
print("chirality scalars:", plus.chirality[0, 0], minus.chirality[0, 0])
print()

print("=== Sign table, measured vs expected, for p+q <= 4 ===")
print(f"{'(p,q)':>8} {'s':>2} {'measured':>16} {'expected':>16}")
for n in range(5):
    for p in range(n + 1):
        m = build_irrep((p, n - p))
        measured, _ = measure_sign_triple(m)
        expected = sign_triple(m.s)
        flag = "" if measured == expected else "  <-- MISMATCH"
        print(f"{(p, n - p)!s:>8} {m.s:>2} {str(tuple(measured)):>16} "
              f"{str(tuple(expected)):>16}{flag}")
