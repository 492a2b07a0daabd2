"""Clifford modules, commuting Clifford actions, the spinor representations
they generate, and a Pati-Salam finite real spectral triple, all exercised
through dense complex linear algebra with explicit residual checks."""

from .clifford import (
    CliffordModule,
    SignTriple,
    Signature,
    build_irrep,
    hatted_real_structure,
    measure_sign_triple,
    sign_triple,
    verify_module_signs,
)
from .commuting import (
    CommutingAction,
    build_commuting,
    equivalence_even,
    equivalence_odd_odd,
    tensor_hatted_real_structure,
    tensor_product_element,
    tensor_real_structure,
    three_action_closure_defect,
    verify_bracket_table,
)
from .liealg import (
    SoRepresentation,
    bracket_residual,
    casimir_element,
    expected_structure,
    find_intertwiner,
    so_generators,
    weyl_pieces,
    weyl_projectors,
)
from .linalg import (
    DEFAULT_TOL,
    AntilinearOp,
    expm,
    kron,
    max_abs,
    polar_unitary,
    solve_antilinear_commutant,
)
from .report import Report
from .spectral import (
    AlgebraElement,
    DiracData,
    GaugeElement,
    PatiSalamTriple,
    build_pati_salam,
    check_order_conditions,
    higgs_transform,
    ko_dimension,
    sample_gauge_element,
    spin10_action,
)

__version__ = "0.1.0"
