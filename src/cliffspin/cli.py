"""Command-line front end: verification suites and module export.

Exit codes: 0 when every check passes, 1 when some check fails, 2 for
usage or I/O errors.  Identical invocations produce byte-identical output;
only ``pati-salam`` and ``all`` take ``--seed``.  It drives only the
generic algebra element of the Spin(10) mixed-generator minimum: the order
conditions, the gauge action, the Higgs covariance and the Spin(10) block
matches are checked exactly on generators and draw nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zlib

import numpy as np

from . import clifford, commuting, liealg, spectral
from .linalg import DEFAULT_TOL, fold_max, max_abs
from .report import Report
from .serialize import module_to_json

#: fixed signature pairs exercised by the bundled commuting suites
DEFAULT_PAIRS = (((0, 3), (0, 1)), ((4, 0), (0, 6)), ((1, 1), (2, 0)), ((0, 7), (3, 0)))
DEFAULT_TRIPLES = (((2, 0), (2, 0), (2, 0)), ((0, 3), (0, 3), (0, 1)))


def _rng_for(seed: int, label: str) -> np.random.Generator:
    """Deterministic per-check generator derived from the seed and label."""
    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])


def _parse_sig(text: str):
    try:
        p, q = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"signature must look like P,Q (got {text!r})") from exc
    if p < 0 or q < 0:
        raise argparse.ArgumentTypeError("signature counts must be nonnegative")
    return (p, q)


def _parse_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number (got {text!r})") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive (got {text!r})")
    return value


def signs_suite(max_n: int, tol: float) -> list:
    return [clifford.verify_module_signs(max_n, tol)]


def brackets_suite(max_n: int, tol: float) -> list:
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    clifford.check_module_dim(max_n)
    worst = flip_worst = 0.0
    details = []
    for n in range(max_n + 1):
        for p in range(n + 1):
            m = clifford.build_irrep((p, n - p))
            rep = liealg.so_generators(m)
            res = liealg.bracket_residual(rep)
            flip = liealg.bracket_residual(liealg.flipped_representation(rep))
            worst = fold_max(worst, res)
            flip_worst = fold_max(flip_worst, flip)
            details.append({"p": p, "q": n - p, "bracket": res, "sign_flip": flip})
    overall = fold_max(worst, flip_worst)
    brackets = Report(
        name=f"so-brackets(max_n={max_n})",
        passed=overall < tol,
        max_residual=overall,
        tolerance=tol,
        details=details,
    )
    return [brackets, casimir_report(max_n)]


def casimir_report(max_n: int) -> Report:
    """The Casimir identity at (0,2), (4,0), (0,6) and at (0,n) for every
    even n from 8 up to ``max_n``."""
    details = []
    worst = 0.0
    for sig in ((0, 2), (4, 0), (0, 6)) + tuple((0, n) for n in range(8, max_n + 1, 2)):
        m = clifford.build_irrep(sig)
        res = max_abs(liealg.casimir_element(liealg.so_generators(m)) - m.P)
        worst = fold_max(worst, res)
        details.append({"p": sig[0], "q": sig[1], "residual": res})
    return Report(
        name="casimir-product",
        passed=worst < 1e-10,
        max_residual=worst,
        tolerance=1e-10,
        details=details,
    )


def commuting_suite(sig1, sig2, branch1: int, branch2: int, tol: float) -> list:
    ca = commuting.build_commuting(sig1, sig2, branch1, branch2)
    label = f"({sig1[0]},{sig1[1]})x({sig2[0]},{sig2[1]})"
    reports = [commuting.verify_bracket_table(ca, tol)]
    if ca.n1 % 2 == 0:
        reports.append(commuting.equivalence_even(ca, tol))
    elif ca.n2 % 2 == 0:
        swapped = commuting.swap_factors(ca)
        reports.append(commuting.equivalence_even(swapped, tol))
    else:
        reports.append(commuting.equivalence_odd_odd(ca, tol))

    recipe = commuting.real_structure_recipe(ca)
    j = commuting.tensor_real_structure(ca)
    if j is None:
        reports.append(Report(
            name=f"tensor-real-structure{label}",
            passed=recipe is None,
            max_residual=0.0,
            tolerance=tol,
            details=[{"formula": None,
                      "note": "no antilinear structure for this case"}],
        ))
    else:
        resid = commuting.real_structure_commutation(ca, j)
        reports.append(Report(
            name=f"tensor-real-structure{label}",
            passed=resid < tol,
            max_residual=resid,
            tolerance=tol,
            details=[{"formula": recipe, "commutation": resid}],
        ))
    return reports


def three_actions_report(sigs, min_defect: float = 0.1) -> Report:
    defect = commuting.three_action_closure_defect(*sigs)
    label = "x".join(f"({p},{q})" for p, q in sigs)
    return Report(
        name=f"three-action-defect{label}",
        passed=defect > min_defect,
        max_residual=defect,
        tolerance=min_defect,
        details=[{"defect": defect, "min_defect": min_defect,
                  "note": "pass requires the defect to EXCEED the threshold"}],
    )


def pati_salam_suite(seed: int, tol: float) -> list:
    expected_rows = {"plain": 2, "hatted_second": 6}
    ca = commuting.build_commuting((4, 0), (0, 6))
    triples = {}
    reports = []
    for variant in spectral.VARIANTS:
        triple = triples[variant] = spectral.build_pati_salam(variant, action=ca)
        dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
        measured, s = spectral.ko_dimension(triple, dirac)
        reports.append(Report(
            name=f"ko-signs({variant})",
            passed=s == expected_rows[variant],
            max_residual=0.0,
            tolerance=tol,
            details=[{"eps": measured.eps, "eps_prime": measured.eps_prime,
                      "eps_double_prime": measured.eps_double_prime,
                      "table_row": s, "default": variant == "hatted_second"}],
        ))
        exch = spectral.chirality_exchange_residual(triple)
        reports.append(Report(
            name=f"chirality-exchange({variant})",
            passed=exch < tol,
            max_residual=exch,
            tolerance=tol,
            details=[],
        ))
        reports.append(spectral.check_order_conditions(triple, dirac, tol))
        reports.append(spectral.verify_gauge_action(triple, tol))
        reports.append(spectral.higgs_transform(triple, tol))
    reports.append(spectral.spin10_action(
        triples["hatted_second"], _rng_for(seed, "spin10"), tol))
    return reports


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render(reports: list, args, command: str) -> tuple[str, bool]:
    all_passed = all(r.passed for r in reports)
    if args.format == "json":
        seed = {"seed": args.seed} if "seed" in args else {}
        doc = {"command": command, **seed, "tol": args.tol, "all_passed": all_passed,
               "checks": [r.to_dict() for r in reports]}
        return json.dumps(doc, indent=2) + "\n", all_passed
    lines = [r.summary_line() for r in reports]
    lines.append(f"{'ALL CHECKS PASSED' if all_passed else 'SOME CHECKS FAILED'} "
                 f"({sum(r.passed for r in reports)}/{len(reports)})")
    return "\n".join(lines) + "\n", all_passed


def _add_shared(parser: argparse.ArgumentParser, seeded: bool = False) -> None:
    parser.add_argument("--tol", type=_parse_positive, default=DEFAULT_TOL,
                        help="residual tolerance (default 1e-10)")
    if seeded:
        parser.add_argument("--seed", type=int, default=0,
                            help="seed of the Spin(10) mixed-generator draw "
                                 "(default 0); every other check is exact and "
                                 "draws nothing")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffspin",
        description="Construct and verify Clifford modules, commuting actions "
                    "and the Pati-Salam spectral triple.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_irrep = sub.add_parser("irrep", help="construct one irreducible module")
    p_irrep.add_argument("--p", type=int, required=True)
    p_irrep.add_argument("--q", type=int, required=True)
    p_irrep.add_argument("--branch", type=int, choices=(1, -1), default=1)
    _add_shared(p_irrep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    verify_sub = p_verify.add_subparsers(dest="suite", required=True)
    for suite_name, help_text in (("signs", "sign-table reproduction"),
                                  ("brackets", "bracket relations and Casimir")):
        p_suite = verify_sub.add_parser(suite_name, help=help_text)
        p_suite.add_argument("--max-n", type=int, default=6, dest="max_n")
        _add_shared(p_suite)

    p_comm = sub.add_parser("commuting", help="commuting-action suite for one pair")
    p_comm.add_argument("--sig1", type=_parse_sig, required=True)
    p_comm.add_argument("--sig2", type=_parse_sig, required=True)
    p_comm.add_argument("--branch1", type=int, choices=(1, -1), default=1)
    p_comm.add_argument("--branch2", type=int, choices=(1, -1), default=1)
    _add_shared(p_comm)

    p_three = sub.add_parser("three-actions", help="non-closure defect for a triple")
    p_three.add_argument("--sig1", type=_parse_sig, required=True)
    p_three.add_argument("--sig2", type=_parse_sig, required=True)
    p_three.add_argument("--sig3", type=_parse_sig, required=True)
    p_three.add_argument("--min-defect", type=_parse_positive, default=0.1,
                         dest="min_defect")
    _add_shared(p_three)

    p_ps = sub.add_parser("pati-salam", help="spectral-triple suite, both variants")
    _add_shared(p_ps, seeded=True)

    p_all = sub.add_parser("all", help="every bundled suite")
    _add_shared(p_all, seeded=True)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "irrep":
            module = clifford.build_irrep((args.p, args.q), args.branch)
            if args.format == "json":
                text = module_to_json(module)
            else:
                measured, _ = clifford.measure_sign_triple(module, args.tol)
                text = (f"module ({args.p},{args.q}) branch {args.branch}: "
                        f"dim {module.dim}, s = {module.s}, "
                        f"signs {tuple(measured)}\n")
            _emit(text, args.out)
            return 0

        if args.command == "verify" and args.suite == "signs":
            reports = signs_suite(args.max_n, args.tol)
        elif args.command == "verify" and args.suite == "brackets":
            reports = brackets_suite(args.max_n, args.tol)
        elif args.command == "commuting":
            reports = commuting_suite(args.sig1, args.sig2,
                                      args.branch1, args.branch2, args.tol)
        elif args.command == "three-actions":
            reports = [three_actions_report((args.sig1, args.sig2, args.sig3),
                                            args.min_defect)]
        elif args.command == "pati-salam":
            reports = pati_salam_suite(args.seed, args.tol)
        elif args.command == "all":
            reports = []
            reports += signs_suite(6, args.tol)
            reports += brackets_suite(5, args.tol)
            for sig1, sig2 in DEFAULT_PAIRS:
                reports += commuting_suite(sig1, sig2, 1, 1, args.tol)
            for sigs in DEFAULT_TRIPLES:
                reports.append(three_actions_report(sigs))
            reports += pati_salam_suite(args.seed, args.tol)
        else:
            parser.error(f"unknown command {args.command!r}")
            return 2

        text, all_passed = _render(reports, args, args.command)
        _emit(text, args.out)
        return 0 if all_passed else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
