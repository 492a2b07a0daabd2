"""Print sha256 fingerprints of cliffspin's deterministic outputs.

    python3 scripts/fingerprints.py

Run from the root of a source checkout; the package is imported from
``src/`` of the checkout the script sits in.  Running the script on two
checkouts on the same machine shows whether a change keeps the output
byte-identical.  One line per output, ``<sha256>  <exit code>  <label>``:

* the JSON output of fifteen CLI invocations, run in-process: among them
  ``verify signs --max-n 10``, whose module checks at d = 32 run in
  blocks of eight gammas, ``verify signs --max-n 12``, whose sign
  measurements at d = 64 check their precondition on Pauli strings,
  ``pati-salam`` (every check is exact and draws
  nothing, so ``--seed`` would change nothing), ``three-actions``,
  ``commuting`` on (0,3) x (2,0), whose odd first and even second factor
  send the even identification through the second factor's chirality,
  ``commuting`` on (2,0) x (0,1) and on (0,1) x (2,0), the two pairs
  whose tensor real structure takes the even factor's Ĵ (recipes
  ``Jhat1xJ2`` and ``J1xJhat2``), and ``commuting`` at the product
  dimension limit D = 256, where the block sizes of the stacked checks
  matter: (0,8) x (0,8) (about 1.2 s
  and 190 MB), (0,9) x (0,8), the second-factor identification there
  (about 1.3 s and 205 MB), and (0,9) x (0,9), the odd-odd identification,
  whose doubled module at 2D = 512 is compared one matrix per block
  (about 2.4 s and 290 MB); these pin paths that ``all`` does not take;
* one hash over ``module_to_json`` of every module in the benchmark's
  ``signature_sweep`` list (``bench/workloads.SWEEP``), in list order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from cliffspin import cli, clifford  # noqa: E402
from cliffspin.serialize import module_to_json  # noqa: E402
from workloads import SWEEP  # noqa: E402

COMMANDS = (
    ["all"],
    ["verify", "signs", "--max-n", "8"],
    ["verify", "signs", "--max-n", "10"],
    ["verify", "signs", "--max-n", "12"],
    ["verify", "brackets", "--max-n", "8"],
    ["verify", "brackets", "--max-n", "10"],
    ["commuting", "--sig1", "4,0", "--sig2", "0,6"],
    ["commuting", "--sig1", "0,3", "--sig2", "2,0"],
    ["commuting", "--sig1", "2,0", "--sig2", "0,1"],
    ["commuting", "--sig1", "0,1", "--sig2", "2,0"],
    ["commuting", "--sig1", "0,8", "--sig2", "0,8"],
    ["commuting", "--sig1", "0,9", "--sig2", "0,8"],
    ["commuting", "--sig1", "0,9", "--sig2", "0,9"],
    ["pati-salam"],
    ["three-actions", "--sig1", "0,3", "--sig2", "0,3", "--sig3", "0,3"],
)


def cli_fingerprint(argv: list) -> tuple[str, int]:
    """sha256 of the JSON that ``cliffspin ARGV --format json`` prints, and
    its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([*argv, "--format", "json"])
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def sweep_fingerprint() -> str:
    """One sha256 over the exported JSON of every ``SWEEP`` module."""
    digest = hashlib.sha256()
    for p, q, branch in SWEEP:
        digest.update(module_to_json(clifford.build_irrep((p, q), branch)).encode("utf-8"))
    return digest.hexdigest()


def main() -> None:
    for argv in COMMANDS:
        sha, code = cli_fingerprint(argv)
        print(f"{sha}  {code}  {' '.join(argv)}", flush=True)
    print(f"{sweep_fingerprint()}  -  module_to_json of bench/workloads.SWEEP")


if __name__ == "__main__":
    main()
