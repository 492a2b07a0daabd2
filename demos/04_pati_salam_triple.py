"""The finite real spectral triple on C^4 x C^8.

Walks through the construction: the two-sided algebra action built from
the chirality projections, the order conditions, the measured sign rows of
both real-structure variants, the gauge action with its automatic
unimodularity, the Dirac family and its covariance, and the extension of
the gauge symmetry to all 45 combined generators.

The order conditions and the Spin(10) mixed minimum are checked exactly,
on the algebra's ten generators, and the gauge action, the Dirac covariance
and the Spin(10) block matches on the 21 gauge generators; nothing draws
random numbers.  One gauge element u = (exp X₁, exp X₂) shows the
group-level identities the generator checks decide: its adjoint image
l(u)·r(u*) is the exponential of the derived action of X.
"""

import numpy as np

from cliffspin import (
    AlgebraElement,
    build_pati_salam,
    check_order_conditions,
    expm,
    higgs_transform,
    ko_dimension,
    kron,
    spin10_action,
)
from cliffspin.spectral import chirality_exchange_residual, verify_gauge_action

np.set_printoptions(precision=3, suppress=True, linewidth=120)

print("=== Both real-structure variants and their sign rows ===")
for variant in ("plain", "hatted_second"):
    triple = build_pati_salam(variant)
    dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
    measured, s = ko_dimension(triple, dirac)
    marker = "  (default)" if variant == "hatted_second" else ""
    print(f"{variant:>14}: (eps, eps', eps'') = {tuple(measured)} -> table row s = {s}{marker}")
print()

triple = build_pati_salam()
dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])

print("=== Bimodule structure ===")
print("J pi+ = pi- J residual:", chirality_exchange_residual(triple))
print(check_order_conditions(triple, dirac).summary_line())
print()

print("=== Gauge action: factorization and unimodularity ===")
print(verify_gauge_action(triple).summary_line())
x = AlgebraElement(0.7 * triple.quadratics1[0], -0.4 * triple.quadratics2[3])
adj = expm(triple.derived_action(x))
print("|exp(l(X) + r(X*)) - exp(X1) x exp(X2)| =",
      float(np.max(np.abs(adj - kron(expm(x.a1), expm(x.a2))))))
print("det l(u) = exp(tr l(X)) =", np.linalg.det(expm(triple.left_action(x))))
print()

print("=== Dirac coefficients transform as a rotating 4-vector ===")
d = np.array([0.5, -1.0, 0.25, 2.0])
g = triple.dirac_operator(d).matrix
moved = adj @ g @ adj.conj().T
d_new = np.array([(np.trace(moved @ gamma) / triple.dim).real for gamma in triple.action.gamma1])
print("d          =", d)
print("d'         =", d_new)
print("|d| vs |d'|:", np.linalg.norm(d), np.linalg.norm(d_new))
print(higgs_transform(triple).summary_line())
print()

print("=== The gauge symmetry sits inside 45 combined generators ===")
report = spin10_action(triple)
print(report.summary_line())
print("least commutator of a mixed generator with the ten l(g):",
      report.details[0]["mixed_generator_min_commutator"])
print("(mixed-block generators move the algebra action: they are charged,")
print(" not gauge directions; the two factor blocks reproduce the adjoint action)")
