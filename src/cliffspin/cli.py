"""Command-line front end: verification suites and module export.

It parses arguments, lists the checks of each command and renders their
reports; the layer that measures a check builds its report: ``clifford``
for ``verify signs``, ``liealg`` for ``verify brackets``, ``commuting``
for ``commuting`` and ``three-actions``, ``spectral`` for ``pati-salam``.

Exit codes: 0 when every check passes, 1 when some check fails, 2 for
usage or I/O errors.  Identical invocations produce byte-identical output.
Every check is exact on generators and draws nothing; ``pati-salam`` and
``all`` still parse ``--seed``, which has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import clifford, commuting, liealg, spectral
from .commuting import three_actions_report
from .linalg import DEFAULT_TOL
from .serialize import module_to_json

#: fixed signature pairs exercised by the bundled commuting suites
DEFAULT_PAIRS = (((0, 3), (0, 1)), ((4, 0), (0, 6)), ((1, 1), (2, 0)), ((0, 7), (3, 0)))
DEFAULT_TRIPLES = (((2, 0), (2, 0), (2, 0)), ((0, 3), (0, 3), (0, 1)))


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
    return [liealg.verify_brackets(max_n, tol), liealg.verify_casimir(max_n, tol)]


def commuting_suite(sig1, sig2, branch1: int, branch2: int, tol: float) -> list:
    ca = commuting.build_commuting(sig1, sig2, branch1, branch2)
    return [commuting.verify_bracket_table(ca, tol), commuting.verify_equivalence(ca, tol),
            commuting.verify_tensor_real_structure(ca, tol)]


def pati_salam_suite(tol: float) -> list:
    ca = commuting.build_commuting((4, 0), (0, 6))
    triples = {}
    reports = []
    for variant in spectral.VARIANTS:
        triple = triples[variant] = spectral.build_pati_salam(variant, action=ca)
        dirac = triple.dirac_operator([1.0, 0.0, 0.0, 0.0])
        reports += [spectral.verify_ko_signs(triple, dirac, tol),
                    spectral.verify_chirality_exchange(triple, tol),
                    spectral.check_order_conditions(triple, dirac, tol),
                    spectral.verify_gauge_action(triple, tol),
                    spectral.higgs_transform(triple, tol)]
    reports.append(spectral.spin10_action(triples["hatted_second"], tol))
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
        doc = {"command": command, "tol": args.tol, "all_passed": all_passed,
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
        parser.add_argument("--seed", type=int,
                            help="no effect: every check is exact and draws "
                                 "nothing; kept so that existing invocations "
                                 "still parse")
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
            reports = pati_salam_suite(args.tol)
        elif args.command == "all":
            reports = signs_suite(6, args.tol) + brackets_suite(5, args.tol)
            for sig1, sig2 in DEFAULT_PAIRS:
                reports += commuting_suite(sig1, sig2, 1, 1, args.tol)
            reports += [three_actions_report(sigs) for sigs in DEFAULT_TRIPLES]
            reports += pati_salam_suite(args.tol)
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
