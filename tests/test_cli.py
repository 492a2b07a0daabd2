"""CLI contract: subcommands, exit codes, JSON schema, export round trip
and byte-level determinism of seeded runs."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

from cliffspin import cli, clifford, commuting, liealg, spectral
from cliffspin.cli import run
from cliffspin.clifford import build_irrep
from cliffspin.linalg import AntilinearOp
from cliffspin.serialize import (
    matrix_from_lists,
    matrix_to_lists,
    module_from_dict,
    module_to_dict,
    module_to_json,
)
from dense_reference import loop_higgs_report


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def with_unit_projections(build):
    """``build`` with π₂⁺ = π₂⁻ = 1 on every triple it assembles, which
    breaks the factorization of the adjoint gauge action."""
    def faulted(*args, **kwargs):
        eye8 = np.eye(8, dtype=complex)
        return dataclasses.replace(build(*args, **kwargs), pi2_plus=eye8, pi2_minus=eye8)
    return faulted


class TestExport:
    def test_single_generator_schema(self):
        doc = module_to_dict(build_irrep((0, 1)))
        assert doc["p"] == 0 and doc["q"] == 1 and doc["branch"] == 1
        assert doc["dim"] == 1
        assert doc["gammas"] == [[[[0.0, 1.0]]]]
        assert "Jhat_matrix" not in doc  # odd s

    def test_trivial_module_schema(self):
        doc = module_to_dict(build_irrep((0, 0)))
        assert doc["gammas"] == []
        assert "Jhat_matrix" in doc  # s = 0

    def test_matrix_codec_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(matrix_from_lists(matrix_to_lists(m)), m)

    @pytest.mark.parametrize("pq", [(0, 1), (2, 0), (1, 2), (0, 4)])
    def test_file_round_trip_is_exact(self, tmp_path, pq):
        m = build_irrep(pq)
        path = tmp_path / "module.json"
        path.write_text(module_to_json(m), encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            back = module_from_dict(json.load(handle))
        assert back.signature == m.signature and back.branch == m.branch
        for a, b in zip(m.gammas, back.gammas):
            assert np.array_equal(a, b)
        assert np.array_equal(back.P, m.P)
        assert np.array_equal(back.chirality, m.chirality)
        assert np.array_equal(back.J.matrix, m.J.matrix)
        if m.Jhat is None:
            assert back.Jhat is None
        else:
            assert np.array_equal(back.Jhat.matrix, m.Jhat.matrix)

    def test_dict_round_trip(self):
        m = build_irrep((3, 0), -1)
        back = module_from_dict(module_to_dict(m))
        assert back.branch == -1
        assert np.array_equal(back.gammas[2], m.gammas[2])


class TestCliContract:
    def test_irrep_json(self, capsys):
        code, out = run_capture(capsys, ["irrep", "--p", "0", "--q", "0",
                                         "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 1 and doc["gammas"] == []

    def test_verify_signs_passes(self, capsys):
        code, out = run_capture(capsys, ["verify", "signs", "--max-n", "3"])
        assert code == 0
        assert "PASS" in out

    def test_verify_brackets_passes(self, capsys):
        code, out = run_capture(capsys, ["verify", "brackets", "--max-n", "3"])
        assert code == 0

    def test_commuting_pair(self, capsys):
        code, out = run_capture(capsys, ["commuting", "--sig1", "0,3",
                                         "--sig2", "0,1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        names = [c["check"] for c in doc["checks"]]
        assert any(name.startswith("bracket-families") for name in names)
        assert any(name.startswith("odd-odd-equivalence") for name in names)

    def test_three_actions_pass_and_fail(self, capsys):
        code, _ = run_capture(capsys, ["three-actions", "--sig1", "2,0",
                                       "--sig2", "2,0", "--sig3", "2,0"])
        assert code == 0
        # all-scalar factors genuinely commute, so the defect check fails
        code, _ = run_capture(capsys, ["three-actions", "--sig1", "0,1",
                                       "--sig2", "0,1", "--sig3", "0,1"])
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("max_n", ["-1", "0"])
    def test_brackets_below_one_generator_is_usage_error(self, capsys, max_n):
        # used to exit 0 with two PASS reports over an empty table
        assert run(["verify", "brackets", "--max-n", max_n]) == 2
        assert "max_n must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "signs", "--max-n", "1", "--tol", "nan"],
        ["verify", "brackets", "--max-n", "1", "--tol", "-1"],
        ["irrep", "--p", "0", "--q", "2", "--tol", "nan"],
        ["commuting", "--sig1", "0,3", "--sig2", "0,1", "--tol", "inf"],
        ["pati-salam", "--tol", "0"],
        ["three-actions", "--sig1", "2,0", "--sig2", "2,0", "--sig3", "2,0",
         "--min-defect", "nan"],
        ["three-actions", "--sig1", "2,0", "--sig2", "2,0", "--sig3", "2,0",
         "--min-defect", "-0.5"],
    ])
    def test_tolerance_must_be_finite_and_positive(self, capsys, argv):
        assert run(argv) == 2
        assert "must be finite and positive" in capsys.readouterr().err

    def test_all_builds_the_combined_generators_once_per_action(self, capsys):
        # one build per commuting action: four pairs and the Pati-Salam action
        spy = mock.Mock(wraps=commuting.combined_generators)
        with mock.patch.object(commuting, "combined_generators", spy):
            assert run(["all", "--seed", "7", "--format", "json"]) == 0
        capsys.readouterr()
        assert spy.call_count == 5

    def test_malformed_flag_is_usage_error(self, capsys):
        assert run(["irrep", "--p", "zero", "--q", "1"]) == 2
        assert run(["commuting", "--sig1", "nope", "--sig2", "0,1"]) == 2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["verify", "signs", "--max-n", "2", "--format", "json",
                    "--out", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["all_passed"] is True

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "missing" / "report.json"
        assert run(["verify", "signs", "--max-n", "1", "--out", str(bad)]) == 2

    def test_pati_salam_json_reports_both_variants(self, capsys):
        code, out = run_capture(capsys, ["pati-salam", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        rows = {c["check"]: c for c in doc["checks"] if c["check"].startswith("ko-signs")}
        assert rows["ko-signs(plain)"]["details"][0]["table_row"] == 2
        assert rows["ko-signs(hatted_second)"]["details"][0]["table_row"] == 6
        assert rows["ko-signs(hatted_second)"]["details"][0]["default"] is True

    def test_broken_adjoint_bound_is_a_failed_report(self, capsys):
        with mock.patch.object(spectral, "build_pati_salam",
                               with_unit_projections(spectral.build_pati_salam)):
            code = run(["pati-salam", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        doc = json.loads(captured.out)
        rows = {c["check"]: c for c in doc["checks"]}
        assert doc["all_passed"] is False
        for variant in spectral.VARIANTS:
            assert rows[f"gauge-action({variant})"]["passed"] is False
            assert rows[f"higgs-covariance({variant})"]["passed"] is False
        assert rows["spin10-extension"]["passed"] is False
        # every residual of the exact suite is 0.0, so it passes far below rounding
        assert run(["pati-salam", "--tol", "1e-18"]) == 0

    def test_oversized_irrep_is_refused(self, capsys):
        # (0,12) is measured in full; (0,30) is refused before any gamma exists
        code, out = run_capture(capsys, ["irrep", "--p", "0", "--q", "12"])
        assert code == 0
        assert out == "module (0,12) branch 1: dim 64, s = 4, signs (-1, 1, 1)\n"
        with mock.patch.object(clifford, "gamma_chain", side_effect=AssertionError("built")):
            code = run(["irrep", "--p", "0", "--q", "30"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "dimension 2^15" in captured.err and "limit 128" in captured.err

    def test_n_12_irrep_exports_as_json(self, capsys):
        # construction is closed-form; only the text form measures the signs
        code, out = run_capture(capsys, ["irrep", "--p", "0", "--q", "12",
                                         "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 64 and len(doc["gammas"]) == 12

    def test_oversized_sign_table_is_refused_at_once(self, capsys):
        for suite in ("signs", "brackets"):
            with mock.patch.object(clifford, "build_irrep",
                                   side_effect=AssertionError("built")):
                code = run(["verify", suite, "--max-n", "30"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "dimension 2^15" in captured.err and "limit 128" in captured.err

    def test_casimir_is_checked_at_every_even_n(self):
        report = cli.casimir_report(10)
        assert report.passed
        assert [(d["p"], d["q"]) for d in report.details] == [
            (0, 2), (4, 0), (0, 6), (0, 8), (0, 10)]
        assert len(cli.casimir_report(9).details) == 4
        assert len(cli.casimir_report(5).details) == 3

    def test_oversized_three_actions_are_refused(self, capsys):
        with mock.patch.object(commuting, "build_irrep", side_effect=AssertionError("built")):
            code = run(["three-actions", "--sig1", "0,6", "--sig2", "0,6",
                        "--sig3", "0,6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "dimension 512" in captured.err and "limit 256" in captured.err

    def test_oversized_commuting_pair_is_refused(self, capsys):
        # D = 64·64 = 4096 is above MAX_PRODUCT_DIM although each factor is admitted
        with mock.patch.object(commuting, "build_irrep", side_effect=AssertionError("built")):
            code = run(["commuting", "--sig1", "0,12", "--sig2", "0,12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "dimension 4096" in captured.err and "limit 256" in captured.err

    def test_pati_salam_suite_builds_the_commuting_action_once(self):
        with mock.patch.object(commuting, "build_irrep",
                               wraps=commuting.build_irrep) as build:
            reports = cli.pati_salam_suite(7, 1e-10)
        assert build.call_count == 2
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_higgs_reports_equal_the_per_sample_loop(self, seed):
        # the exact Higgs reports draw nothing and read 0.0 at every seed,
        # with the verdict of ten sampled (d, u) pairs, on the triple and
        # with π₂⁺ = π₂⁻ = 1
        for build in (spectral.build_pati_salam,
                      with_unit_projections(spectral.build_pati_salam)):
            with mock.patch.object(spectral, "build_pati_salam", build):
                reports = {r.name: r for r in cli.pati_salam_suite(seed, 1e-10)}
            for variant in spectral.VARIANTS:
                reference = loop_higgs_report(build(variant), 10,
                                              cli._rng_for(seed, f"higgs-{variant}"))
                report = reports[reference.name]
                assert report.passed == reference.passed
                assert report.passed == (build is spectral.build_pati_salam)
                if report.passed:
                    assert report.max_residual == 0.0

    def test_seeded_commuting_runs_are_identical(self, capsys):
        args = ["commuting", "--sig1", "2,0", "--sig2", "0,1", "--format", "json"]
        first_code, first = run_capture(capsys, args)
        second_code, second = run_capture(capsys, args)
        assert first_code == second_code == 0
        assert json.loads(first)["all_passed"] is True
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["verify", "signs", "--max-n", "1"], ["verify", "brackets", "--max-n", "1"],
        ["irrep", "--p", "0", "--q", "1"], ["commuting", "--sig1", "2,0", "--sig2", "0,1"],
        ["three-actions", "--sig1", "2,0", "--sig2", "2,0", "--sig3", "2,0"],
        ["pati-salam"], ["all"]])
    def test_only_sampled_suites_take_seed_and_samples(self, capsys, argv):
        # --samples is gone from every subcommand, the sampled ones included;
        # --seed stays only where something is drawn
        flags = ("--samples",) if argv[0] in ("pati-salam", "all") else ("--seed", "--samples")
        for flag in flags:
            assert run([*argv, flag, "3"]) == 2
            assert capsys.readouterr().out == ""
        if argv[0] not in ("irrep", "pati-salam", "all"):
            code, out = run_capture(capsys, [*argv, "--format", "json"])
            assert code == 0
            assert "seed" not in json.loads(out)

    def test_sampled_suites_report_their_seed(self, capsys):
        code, out = run_capture(capsys, ["pati-salam", "--seed", "4", "--format", "json"])
        assert code == 0
        assert list(json.loads(out))[:2] == ["command", "seed"]
        assert json.loads(out)["seed"] == 4


def nan_entry(m):
    g = np.array(m.gammas[0])
    g[0, 0] = np.nan
    return dataclasses.replace(m, gammas=(g, *m.gammas[1:]))


def times_i(m):
    return dataclasses.replace(m, gammas=(*m.gammas[:-1], 1j * m.gammas[-1]))


def swapped(m):
    # the first gamma squares to +1 and the last to −1 when p, q > 0
    gs = list(m.gammas)
    gs[0], gs[-1] = gs[-1], gs[0]
    return dataclasses.replace(m, gammas=tuple(gs))


def perturbed(m):
    noise = 1e-6 * np.cos(np.arange(m.dim * m.dim)).reshape(m.dim, m.dim)
    return dataclasses.replace(m, gammas=(m.gammas[0] + noise, *m.gammas[1:]))


#: gamma faults, injected into every module with both metric signs
GAMMA_FAULTS = {"nan-entry": nan_entry, "gamma-times-i": times_i,
                "swapped-gammas": swapped, "perturbed-1e-6": perturbed}


class TestFaultInjection:
    """A corrupted structure map must turn a CLI report into FAIL, exit 1."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, failed", [
        (["verify", "signs"], "sign-table(max_n=6)"),
        (["verify", "brackets", "--max-n", "4"], "so-brackets(max_n=4)"),
    ], ids=["signs", "brackets"])
    @pytest.mark.parametrize("fault", GAMMA_FAULTS)
    def test_faulted_gammas_fail_without_a_warning(self, capsys, fault, argv, failed):
        # a warning fails the test: the NaN gamma reaches the dense checks,
        # which must fail it quietly
        real = clifford.build_irrep

        def faulted(sig, branch=1):
            m = real(sig, branch)
            return GAMMA_FAULTS[fault](m) if m.signature.p and m.signature.q else m

        with mock.patch.object(clifford, "build_irrep", faulted):
            code = run([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["all_passed"] is False
        assert [c["check"] for c in doc["checks"] if not c["passed"]] == [failed]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sig1, sig2", [("4,0", "0,6"), ("0,3", "2,0")])
    def test_nan_gamma_fails_the_commuting_suite(self, capsys, sig1, sig2):
        real = commuting.build_commuting

        def faulted(*args, **kwargs):
            ca = real(*args, **kwargs)
            g = np.array(ca.gamma1[0])
            g[0, 0] = np.nan
            return dataclasses.replace(ca, gamma1=(g, *ca.gamma1[1:]))

        with mock.patch.object(commuting, "build_commuting", faulted):
            code = run(["commuting", "--sig1", sig1, "--sig2", sig2, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        brackets = json.loads(captured.out)["checks"][0]
        assert brackets["passed"] is False
        (commutation,) = [d for d in brackets["details"]
                          if d["family"] == "gamma-commutation"]
        assert math.isnan(commutation["residual"])

    @pytest.mark.filterwarnings("error")
    def test_nan_projection_fails_the_pati_salam_suite(self, capsys):
        real = spectral.build_pati_salam

        def faulted(*args, **kwargs):
            triple = real(*args, **kwargs)
            pi2_plus = np.array(triple.pi2_plus)
            pi2_plus[0, 0] = np.nan
            return dataclasses.replace(triple, pi2_plus=pi2_plus)

        with mock.patch.object(spectral, "build_pati_salam", faulted):
            code = run(["pati-salam", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        rows = {c["check"]: c for c in json.loads(captured.out)["checks"]}
        for variant in spectral.VARIANTS:
            order = rows[f"order-conditions({variant})"]
            assert order["passed"] is False and math.isnan(order["max_residual"])
        spin10 = rows["spin10-extension"]
        assert spin10["passed"] is False
        assert math.isnan(spin10["details"][0]["mixed_generator_min_commutator"])

    @pytest.mark.filterwarnings("error")
    def test_nan_real_structure_fails_the_pati_salam_suite(self, capsys):
        # J² of a NaN real structure is neither +1 nor -1: the KO signs fail
        # where the sign measurement used to raise and exit with 2
        real = spectral.build_pati_salam

        def faulted(*args, **kwargs):
            triple = real(*args, **kwargs)
            k = np.array(triple.J.matrix)
            k[0, 0] = np.nan
            return dataclasses.replace(triple, J=AntilinearOp(k))

        with mock.patch.object(spectral, "build_pati_salam", faulted):
            code = run(["pati-salam", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        rows = {c["check"]: c for c in json.loads(captured.out)["checks"]}
        for variant in spectral.VARIANTS:
            ko = rows[f"ko-signs({variant})"]
            assert ko["passed"] is False and ko["details"][0]["eps"] is None
            assert rows[f"gauge-action({variant})"]["passed"] is False

    def test_hatted_module_structure_fails_the_sign_table(self, capsys):
        def hatted_irrep(*args, **kwargs):
            m = build_irrep(*args, **kwargs)
            return dataclasses.replace(m, J=m.Jhat) if m.Jhat is not None else m

        with mock.patch.object(clifford, "build_irrep", hatted_irrep):
            code, out = run_capture(capsys, ["verify", "signs", "--max-n", "2",
                                             "--format", "json"])
        assert code == 1
        (report,) = json.loads(out)["checks"]
        assert report["check"] == "sign-table(max_n=2)"
        assert report["passed"] is False

    def test_plain_structure_for_the_hatted_variant_fails_its_ko_signs(self, capsys):
        with mock.patch.object(spectral, "hatted_real_structure", lambda m: m.J):
            code = run(["pati-salam", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        rows = {c["check"]: c for c in json.loads(captured.out)["checks"]}
        hatted = rows["ko-signs(hatted_second)"]
        assert hatted["passed"] is False
        assert hatted["details"][0]["table_row"] == 2

    def test_nan_flipped_brackets_fail_the_bracket_report(self):
        def nan_flipped(rep):
            return dataclasses.replace(rep, generators={
                key: np.full_like(g, np.nan) for key, g in rep.generators.items()})

        with mock.patch.object(liealg, "flipped_representation", nan_flipped):
            brackets, _ = cli.brackets_suite(2, 1e-10)
        assert not brackets.passed
        assert math.isnan(brackets.max_residual)

    def test_nan_gamma_fails_the_three_action_report(self, capsys):
        # one NaN entry in one gamma of the first factor: the span has no
        # projector, and the NaN defect must survive the fold
        real = commuting.build_irrep
        built = []

        def one_nan(sig, branch=1):
            m = real(sig, branch)
            if not built:
                g = np.array(m.gammas[0])
                g[0, 0] = np.nan
                m = dataclasses.replace(m, gammas=(g, *m.gammas[1:]))
            built.append(m)
            return m

        with mock.patch.object(commuting, "build_irrep", one_nan):
            code, out = run_capture(capsys, ["three-actions", "--sig1", "0,3", "--sig2", "0,3",
                                             "--sig3", "0,1", "--format", "json"])
        assert len(built) == 3
        assert code == 1
        (report,) = json.loads(out)["checks"]
        assert report["passed"] is False
        assert math.isnan(report["max_residual"])
        assert math.isnan(report["details"][0]["defect"])

    def test_nan_casimir_fails_the_casimir_report(self):
        with mock.patch.object(liealg, "casimir_element",
                               lambda rep: np.full((rep.dim, rep.dim), np.nan)):
            report = cli.casimir_report(2)
        assert not report.passed
        assert math.isnan(report.max_residual)

    def test_nan_higgs_residual_is_the_higgs_report_residual(self):
        # one NaN entry in one lifted gamma of the plain triple only
        real = spectral.build_pati_salam

        def one_nan(variant="hatted_second", action=None):
            triple = real(variant, action=action)
            if variant != "plain":
                return triple
            gamma = np.array(triple.action.gamma1[2])
            gamma[3, 1] = np.nan
            action = dataclasses.replace(triple.action,
                                         gamma1=(*triple.action.gamma1[:2], gamma,
                                                 *triple.action.gamma1[3:]))
            return dataclasses.replace(triple, action=action)

        with mock.patch.object(spectral, "build_pati_salam", one_nan):
            reports = {r.name: r for r in cli.pati_salam_suite(0, 1e-10)}
        higgs = reports["higgs-covariance(plain)"]
        assert not higgs.passed
        assert math.isnan(higgs.max_residual)
        assert math.isnan(higgs.details[0]["covariance"])
        assert reports["higgs-covariance(hatted_second)"].passed

    @pytest.mark.filterwarnings("error")
    def test_nan_lifted_gamma_fails_the_pati_salam_suite(self, capsys):
        # the Spin(10) block match used to exponentiate the NaN combined
        # generators, and expm refused them with exit 2
        real = commuting.build_commuting

        def faulted(*args, **kwargs):
            ca = real(*args, **kwargs)
            gamma = np.array(ca.gamma1[0])
            gamma[0, 0] = np.nan
            return dataclasses.replace(ca, gamma1=(gamma, *ca.gamma1[1:]))

        with mock.patch.object(commuting, "build_commuting", faulted):
            code = run(["pati-salam", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        rows = {c["check"]: c for c in json.loads(captured.out)["checks"]}
        failed = [name for name, row in rows.items() if not row["passed"]]
        assert failed == ["order-conditions(plain)", "higgs-covariance(plain)",
                          "order-conditions(hatted_second)",
                          "higgs-covariance(hatted_second)", "spin10-extension"]
        for name in failed:
            assert math.isnan(rows[name]["max_residual"])
