"""Acceptance suite.

Each test prints one PASS/FAIL line and enforces the stated tolerance.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

from cliffspin.cli import run
from cliffspin.clifford import build_irrep, module_residuals, measure_sign_triple, sign_triple
from cliffspin.commuting import (
    build_commuting,
    equivalence_even,
    equivalence_odd_odd,
    real_structure_commutation,
    real_structure_recipe,
    tensor_hatted_real_structure,
    tensor_product_element,
    tensor_real_structure,
    three_action_closure_defect,
    verify_bracket_table,
)
from cliffspin.liealg import (
    SoRepresentation,
    bracket_residual,
    casimir_element,
    find_intertwiner,
    flipped_representation,
    intertwiner_residual,
    so_generators,
    weyl_pieces,
)
from cliffspin.linalg import eye, max_abs
from cliffspin.spectral import (
    build_pati_salam,
    check_order_conditions,
    chirality_exchange_residual,
    higgs_transform,
    ko_dimension,
    verify_gauge_action,
)

ALL_SIGNATURES = [(p, n - p) for n in range(8) for p in range(n + 1)]


def emit(number, label, ok):
    print(f"acceptance {number:2d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed ({label})"


def all_modules():
    for pq in ALL_SIGNATURES:
        branches = (1,) if sum(pq) % 2 == 0 else (1, -1)
        for branch in branches:
            yield build_irrep(pq, branch)


def test_criterion_01_sign_table():
    ok = True
    for m in all_modules():
        measured, _ = measure_sign_triple(m, tol=1e-12)
        ok = ok and measured == sign_triple(m.s)
        ok = ok and max(module_residuals(m).values()) < 1e-12
    emit(1, "sign-table for p+q <= 7 incl. (4,0), (0,6)", ok)


def test_criterion_02_brackets_and_sign_flip():
    ok = True
    for m in all_modules():
        rep = so_generators(m)
        ok = ok and bracket_residual(rep) < 1e-12
        ok = ok and bracket_residual(flipped_representation(rep)) < 1e-12
    emit(2, "bracket relation and signature-flip isomorphism", ok)


def test_criterion_03_casimir_identity():
    ok = True
    for pq in ((0, 2), (4, 0), (0, 6)):
        m = build_irrep(pq)
        ok = ok and max_abs(casimir_element(so_generators(m)) - m.P) < 1e-10
    emit(3, "Levi-Civita Casimir equals the gamma product (n = 2, 4, 6)", ok)


def test_criterion_04_bracket_families_with_negative_control():
    pairs = [((0, 3), (0, 1)), ((4, 0), (0, 6)), ((1, 1), (2, 0)), ((0, 7), (3, 0))]
    ok = True
    for pair in pairs:
        ca = build_commuting(*pair)
        ok = ok and verify_bracket_table(ca, tol=1e-12).passed
        unflipped = np.concatenate([ca.mod1.eta, ca.mod2.eta])
        wrong = SoRepresentation(eta=unflipped, mats=ca.generators.mats)
        ok = ok and bracket_residual(wrong) >= 0.5
    emit(4, "five bracket families pass; unflipped metric fails", ok)


def test_criterion_05_even_identification():
    ok = True
    for pair in [((2, 0), (0, 1)), ((4, 0), (0, 6))]:
        report = equivalence_even(build_commuting(*pair), tol=1e-12)
        ok = ok and report.passed
    emit(5, "even-factor spinor identification with invariant product element", ok)


def test_criterion_06_odd_odd_identification():
    ok = True
    for pair in [((0, 3), (0, 1)), ((0, 7), (3, 0))]:
        ca = build_commuting(*pair)
        report = equivalence_odd_odd(ca, tol=1e-12)
        ok = ok and report.passed
        prod = tensor_product_element(ca)
        scalar = prod[0, 0]
        ok = ok and max_abs(prod - scalar * eye(ca.dim)) < 1e-12
        # both pairs land on s = 6, where the half-spinor eigenvalues are +-i
        expected = {1j, -1j} if ca.s in (2, 6) else {1, -1}
        ok = ok and min(abs(scalar - v) for v in expected) < 1e-12
    emit(6, "odd-odd half-spinor identification with unit scalar product element", ok)


def test_criterion_07_tensor_structure_maps():
    present = [((4, 0), (0, 6)), ((2, 0), (2, 0)), ((0, 3), (0, 3)),
               ((3, 0), (0, 1)), ((2, 0), (0, 3)), ((2, 0), (0, 1)),
               ((0, 1), (2, 0)), ((0, 3), (2, 0))]
    absent = [((0, 3), (0, 1)), ((0, 1), (0, 3))]
    ok = True
    recipes = set()
    for pair in present:
        ca = build_commuting(*pair)
        j = tensor_real_structure(ca)
        recipes.add(real_structure_recipe(ca))
        ok = ok and j is not None and real_structure_commutation(ca, j) < 1e-10
    ok = ok and recipes == {"J1xJ2", "Jhat1xJ2", "J1xJhat2"}
    for pair in absent:
        ok = ok and tensor_real_structure(build_commuting(*pair)) is None
    # even-even: J followed by the product element equals the signed hatted pair
    ca = build_commuting((4, 0), (0, 6))
    j = tensor_real_structure(ca)
    jhat = j.after_linear(tensor_product_element(ca))
    ok = ok and max_abs(jhat.matrix - tensor_hatted_real_structure(ca).matrix) < 1e-10
    emit(7, "tensor real structures commute with all generators; hatted identity", ok)


def test_criterion_08_three_action_defect():
    ok = three_action_closure_defect((2, 0), (2, 0), (2, 0)) > 0.1
    ok = ok and three_action_closure_defect((0, 3), (0, 3), (0, 1)) > 0.1
    emit(8, "three commuting families do not close (defect > 0.1)", ok)


def test_criterion_09_spectral_triple_identities():
    ok = True
    for variant in ("plain", "hatted_second"):
        triple = build_pati_salam(variant)
        rng = np.random.default_rng(100)
        dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
        ok = ok and check_order_conditions(triple, dirac).passed
        for _ in range(10):
            d = rng.standard_normal(4)
            ok = ok and check_order_conditions(triple, triple.dirac_operator(d)).passed
        ok = ok and chirality_exchange_residual(triple) < 1e-12
        for report in (verify_gauge_action(triple), higgs_transform(triple)):
            ok = ok and report.passed and report.max_residual < 1e-10
    emit(9, "order conditions, projections, gauge action, Dirac covariance", ok)


def test_criterion_10_ko_rows():
    plain = build_pati_salam("plain")
    hatted = build_pati_salam("hatted_second")
    default = build_pati_salam()
    d = plain.dirac_operator([1.0, 0.0, 0.0, 0.0])
    row_plain = ko_dimension(plain, d)
    row_hatted = ko_dimension(hatted, d)
    ok = tuple(row_plain[0]) == (-1, 1, -1) and row_plain[1] == 2
    ok = ok and tuple(row_hatted[0]) == (1, 1, -1) and row_hatted[1] == 6
    ok = ok and default.variant == "hatted_second"
    emit(10, "measured sign rows: plain -> s=2, hatted -> s=6 (default)", ok)


def test_criterion_11_branch_equivalence_and_weyl_inequivalence():
    ok = True
    for pq in ((0, 3), (1, 2)):
        rep_a = so_generators(build_irrep(pq, 1))
        rep_b = so_generators(build_irrep(pq, -1))
        w = find_intertwiner(rep_a, rep_b)
        ok = ok and w is not None
        if w is not None:
            svals = np.linalg.svd(w, compute_uv=False)
            ok = ok and svals[-1] > 1e-6 * svals[0]
            ok = ok and intertwiner_residual(w, rep_a, rep_b) < 1e-10
    for pq in ((0, 2), (4, 0)):
        plus, minus = weyl_pieces(build_irrep(pq))
        ok = ok and find_intertwiner(plus, minus) is None
    emit(11, "branch representations equivalent; half-spinor pieces are not", ok)


def test_criterion_12_cli_determinism(tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    codes = [run(["all", "--seed", "7", "--format", "json", "--out", str(p)])
             for p in paths]
    first, second = (p.read_bytes() for p in paths)
    ok = codes == [0, 0] and first == second and len(first) > 0
    emit(12, "seeded full-suite runs are byte-identical and pass", ok)
