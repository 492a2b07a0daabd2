"""The package runs on numpy alone: no command loads SciPy, no module of the
package imports it anywhere, and a warm ``cliffspin all`` pass keeps to one
core.  SciPy is a test dependency only, the reference of the matrix
exponential's tests.  Only the commands that make seeded draws load
``numpy.random``.  Only ``linalg`` names the phased-permutation form, so
the choice between gathers and dense code is made in one module."""

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

#: two ``all --seed 7`` passes in a fresh interpreter; prints the wall and
#: process CPU time (all threads) of the second, warm, pass
CPU_CHILD = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from cliffspin import cli

for _ in range(2):
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["all", "--seed", "7"])
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
    # the fixed-space probes come from the standard library's generator
    assert random_loaded("irrep --p 0 --q 6",
                         "verify signs --max-n 6",
                         "verify brackets",
                         "commuting --sig1 4,0 --sig2 0,6",
                         "commuting --sig1 0,3 --sig2 2,0",
                         "three-actions --sig1 0,3 --sig2 0,3 --sig3 0,3",
                         "pati-salam") == [False] * 7 + [True]
    assert random_loaded("all") == [False, True]
