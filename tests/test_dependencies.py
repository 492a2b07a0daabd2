"""The package runs on numpy alone: no command loads SciPy, no module of the
package imports it anywhere, and a warm ``cliffspin all`` pass keeps to one
core.  SciPy is a test dependency only, the reference of the matrix
exponential's tests.  The package draws nothing, so no command loads
``numpy.random``.  Only ``linalg`` names the phased-permutation form, so
the choice between gathers and dense code is made in one module, and only
one function there names the pair-residual kernels of the three tiers.  The
CLI builds no report and takes only ``DEFAULT_TOL`` from ``linalg``."""

import ast
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cliffspin"

#: run in a fresh interpreter, because the test process has SciPy loaded
#: already; argv[1] is the source directory to import the package from
CHILD = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import cliffspin
from cliffspin import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)

assert "scipy" not in sys.modules, "loaded by import cliffspin"
for argv in (["irrep", "--p", "0", "--q", "6"],
             ["verify", "signs", "--max-n", "3"],
             ["verify", "brackets", "--max-n", "3"],
             ["commuting", "--sig1", "0,3", "--sig2", "0,1"],
             ["three-actions", "--sig1", "0,3", "--sig2", "0,3", "--sig3", "0,3"],
             ["pati-salam"],
             ["all"]):
    code = run(argv)
    assert code == 0, (argv, code)
    assert "scipy" not in sys.modules, f"loaded by {' '.join(argv)}"
print("ok")
"""

#: in a fresh interpreter, the commands of argv[2:] (separated by ``--``)
#: in turn; prints, for each, whether ``numpy.random`` was loaded after it
RANDOM_CHILD = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import cliffspin
from cliffspin import cli

print("import", "numpy.random" in sys.modules)
for argv in " ".join(sys.argv[2:]).split(" -- "):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv.split())
    assert code == 0, (argv, code)
    print(argv, "numpy.random" in sys.modules)
"""

#: two ``all`` passes in a fresh interpreter; prints the wall and
#: process CPU time (all threads) of the second, warm, pass
CPU_CHILD = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from cliffspin import cli

for _ in range(2):
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["all"])
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert code == 0, code
print(wall, cpu)
"""


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def scipy_imports(source: str, filename: str) -> list:
    """``file:line`` of every import of SciPy anywhere in the source: any
    ``import scipy…``, ``from scipy… import`` or ``__import__`` /
    ``importlib.import_module`` call on a literal SciPy name, at module
    level, in blocks, class bodies and function bodies alike."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and (isinstance(node.func, ast.Name) and node.func.id == "__import__"
                   or isinstance(node.func, ast.Attribute)
                   and node.func.attr == "import_module")):
            names = [node.args[0].value]
        else:
            names = []
        if any(map(_is_scipy, names)):
            found.append(node.lineno)
    return [f"{filename}:{line}" for line in sorted(found)]


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += scipy_imports(path.read_text(encoding="utf-8"),
                               str(path.relative_to(ROOT)))
    assert not found, "SciPy imported by the package: " + ", ".join(found)


def test_the_guard_sees_every_import():
    source = ("import numpy as np\n"
              "import scipy.linalg\n"
              "from scipy import sparse\n"
              "try:\n"
              "    from scipy.linalg import expm\n"
              "except ImportError:\n"
              "    pass\n"
              "from . import linalg\n"
              "class Holder:\n"
              "    import scipy\n"
              "def f():\n"
              "    import scipy.linalg\n"
              "    def g():\n"
              "        from scipy.special import comb\n"
              "    return scipy.linalg\n"
              "import importlib, scipyx\n"
              "from .scipy import helper\n"
              "mod = importlib.import_module('scipy.linalg')\n"
              "other = __import__('scipy')\n"
              "fine = importlib.import_module('numpy.linalg')\n")
    assert scipy_imports(source, "m.py") == [
        "m.py:2", "m.py:3", "m.py:5", "m.py:10", "m.py:12", "m.py:14",
        "m.py:18", "m.py:19"]


def phased_names(source: str, filename: str) -> list:
    """``file:line`` of every name in the code (not in strings or comments)
    that is ``PhasedForm`` or a ``phased_*`` or ``_phased_*`` function,
    ``phased_permutations`` among them: an import, a call, an attribute or
    a def."""
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME and (
                token.string == "PhasedForm" or re.match(r"_?phased_", token.string)):
            found.append(f"{filename}:{token.start[0]}")
    return found


def test_only_linalg_picks_the_phased_path():
    # callers hand linalg plain matrices, and linalg alone decides between
    # the gathers and the dense code
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "linalg.py":
            found += phased_names(path.read_text(encoding="utf-8"),
                                  str(path.relative_to(ROOT)))
    assert not found, "phased form named outside linalg: " + ", ".join(found)


def test_the_phased_guard_sees_every_name():
    source = ("from .linalg import pair_residuals, phased_permutations\n"
              "from . import linalg\n"
              "# phased_permutations in a comment is prose\n"
              "form = linalg.phased_permutations(mats, dim) or mats\n"
              "def f(x: 'PhasedForm'):\n"
              "    return linalg.PhasedForm(*x)\n"
              "def _phased_rows(cols):\n"
              "    \"\"\"phased_compose in a docstring is prose\"\"\"\n"
              "    return phased_inverse(cols)\n"
              "phased = unphased_count = 0\n")
    assert phased_names(source, "m.py") == ["m.py:1", "m.py:4", "m.py:6", "m.py:7", "m.py:9"]


#: the pair-residual kernels of the three tiers, and the one function that
#: picks among them
PAIR_TIERS = ("_string_pair_residuals", "_phased_pair_residuals", "_dense_pair_residuals")
PAIR_DISPATCH = "_form_pair_residuals"


def pair_tier_names(source: str, filename: str) -> list:
    """``file:line`` of every name in the code (not in strings or comments)
    that is one of ``PAIR_TIERS``, outside the top-level function
    ``PAIR_DISPATCH``; the name after a ``def`` does not count."""
    found, scope, previous, top_def = [], None, None, False
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.NAME:
            continue
        if token.start[1] == 0:
            # a top-level statement ends the function before it
            scope, top_def = None, token.string == "def"
        if previous == "def" and top_def:
            scope, top_def = token.string, False
        elif token.string in PAIR_TIERS and previous != "def" and scope != PAIR_DISPATCH:
            found.append(f"{filename}:{token.start[0]}")
        previous = token.string
    return found


def test_one_function_picks_a_pair_tier():
    # pair_residuals and the precondition of fixed_spaces both hand their
    # detector answer to the one dispatch
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += pair_tier_names(path.read_text(encoding="utf-8"),
                                 str(path.relative_to(ROOT)))
    assert not found, "pair tier picked outside the dispatch: " + ", ".join(found)
    linalg = (PACKAGE / "linalg.py").read_text(encoding="utf-8")
    assert all(f"def {name}(" in linalg for name in (PAIR_DISPATCH, *PAIR_TIERS))


def test_the_pair_tier_guard_sees_every_name():
    source = ("from .linalg import _dense_pair_residuals\n"
              "def _form_pair_residuals(form, mats):\n"
              "    \"\"\"_string_pair_residuals in a docstring is prose\"\"\"\n"
              "    def _phased_pair_residuals():\n"
              "        return _string_pair_residuals\n"
              "    return _dense_pair_residuals(mats)\n"
              "def _string_pair_residuals(strings):\n"
              "    # _phased_pair_residuals in a comment is prose\n"
              "    return linalg._phased_pair_residuals(strings)\n"
              "_dense_pair_residuals = None\n"
              "class Kernels:\n"
              "    def _form_pair_residuals(self):\n"
              "        return _string_pair_residuals\n")
    assert pair_tier_names(source, "m.py") == ["m.py:1", "m.py:9", "m.py:10", "m.py:13"]


def after_linear_names(source: str, filename: str) -> list:
    """``file:line:scope`` of every name ``after_linear`` in the code (not in
    strings or comments), a call or a reference, where scope is the
    top-level function around it, or ``-`` outside any; the name after a
    ``def`` does not count."""
    found, scope, previous, top_def = [], None, None, False
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.NAME:
            continue
        if token.start[1] == 0:
            scope, top_def = None, token.string == "def"
        if previous == "def" and top_def:
            scope, top_def = token.string, False
        elif token.string == "after_linear" and previous != "def":
            found.append(f"{filename}:{token.start[0]}:{scope or '-'}")
        previous = token.string
    return found


def test_only_build_irrep_forms_jhat():
    # Ĵ = J∘P is formed once, when the module is built; every consumer reads
    # the module's Jhat
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += after_linear_names(path.read_text(encoding="utf-8"),
                                    str(path.relative_to(ROOT)))
    places = [(entry.split(":")[0], entry.split(":")[2]) for entry in found]
    assert places == [("src/cliffspin/clifford.py", "build_irrep")], \
        "after_linear outside build_irrep: " + ", ".join(found)


def test_the_after_linear_guard_sees_every_name():
    source = ("from .linalg import AntilinearOp\n"
              "def build_irrep(sig):\n"
              "    \"\"\"j.after_linear(prod) in a docstring is prose\"\"\"\n"
              "    jhat = j.after_linear(prod)\n"
              "    def helper(p):\n"
              "        return j.after_linear(p)\n"
              "    return jhat\n"
              "# m.J.after_linear(m.P) in a comment is prose\n"
              "def hatted(m):\n"
              "    return m.J.after_linear(m.P)\n"
              "class AntilinearOp:\n"
              "    def after_linear(self, m):\n"
              "        return self\n"
              "formed = AntilinearOp.after_linear\n")
    assert after_linear_names(source, "m.py") == [
        "m.py:4:build_irrep", "m.py:6:build_irrep", "m.py:10:hatted", "m.py:14:-"]


def cli_builder_names(source: str, filename: str) -> list:
    """``file:line`` of every name in the code (not in strings or comments)
    that is ``Report``, or that the code takes from ``linalg`` other than
    ``DEFAULT_TOL``: a name or alias of a ``from …linalg import``, or
    ``linalg`` itself anywhere else."""
    found, line = [], []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NAME, tokenize.OP):
            line.append(token)
        if token.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
            continue
        words = [t.string for t in line]
        from_linalg = (words[:1] == ["from"] and "import" in words
                       and words[words.index("import") - 1] == "linalg")
        for t in line:
            if t.type != tokenize.NAME:
                continue
            if from_linalg:
                taken = (words.index("import") < line.index(t)
                         and t.string not in ("DEFAULT_TOL", "as"))
            else:
                taken = t.string == "linalg"
            if t.string == "Report" or taken:
                found.append(f"{filename}:{t.start[0]}")
        line = []
    return found


def test_the_cli_builds_no_report():
    # each report is built in the layer that measures it; the CLI parses,
    # lists the checks of each command and renders
    cli = PACKAGE / "cli.py"
    found = cli_builder_names(cli.read_text(encoding="utf-8"), str(cli.relative_to(ROOT)))
    assert not found, "report built or linalg used in the CLI: " + ", ".join(found)


def test_the_cli_guard_sees_every_name():
    source = ("from .linalg import DEFAULT_TOL, fold_max\n"
              "from .linalg import (\n"
              "    DEFAULT_TOL,\n"
              "    max_abs as m,\n"
              ")\n"
              "from .report import Report\n"
              "from . import linalg\n"
              "import cliffspin.linalg\n"
              "# Report and linalg.max_abs in a comment are prose\n"
              "def f(tol=DEFAULT_TOL):\n"
              "    \"\"\"returns a Report\"\"\"\n"
              "    return report.Report(linalg.max_abs(tol), three_actions_report)\n"
              "from .commuting import three_actions_report\n")
    assert cli_builder_names(source, "m.py") == [
        "m.py:1", "m.py:4", "m.py:4", "m.py:6", "m.py:7", "m.py:8", "m.py:12", "m.py:12"]


def test_no_command_loads_scipy():
    done = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_a_warm_all_pass_keeps_to_one_core():
    # idle BLAS worker threads that spin show as process CPU time beyond
    # the wall time of the single-threaded pass
    done = subprocess.run([sys.executable, "-c", CPU_CHILD, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    wall, cpu = map(float, done.stdout.split())
    assert cpu <= 1.25 * wall + 0.05, f"cpu {cpu:.3f} s for wall {wall:.3f} s"


def random_loaded(*commands) -> list:
    """Run the commands in turn in one fresh interpreter; return, after the
    import and after each command, whether ``numpy.random`` was loaded."""
    argv = " -- ".join(commands).split()
    done = subprocess.run([sys.executable, "-c", RANDOM_CHILD, str(ROOT / "src"), *argv],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [line.rsplit(" ", 1)[1] == "True" for line in done.stdout.splitlines()]


def test_only_seeded_draws_load_numpy_random():
    # the fixed-space probes come from the standard library's generator,
    # and no check draws
    assert random_loaded("irrep --p 0 --q 6",
                         "verify signs --max-n 6",
                         "verify brackets",
                         "commuting --sig1 4,0 --sig2 0,6",
                         "commuting --sig1 0,3 --sig2 2,0",
                         "three-actions --sig1 0,3 --sig2 0,3 --sig3 0,3",
                         "pati-salam") == [False] * 8
    assert random_loaded("all") == [False, False]
