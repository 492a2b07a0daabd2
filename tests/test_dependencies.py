"""SciPy is loaded only by the matrix exponential: the commands that never
exponentiate run on numpy alone, and no module of the package imports SciPy
when it is itself imported."""

import ast
import subprocess
import sys
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
             ["three-actions", "--sig1", "0,3", "--sig2", "0,3", "--sig3", "0,3"]):
    code = run(argv)
    assert code == 0, (argv, code)
    assert "scipy" not in sys.modules, f"loaded by {' '.join(argv)}"
code = run(["pati-salam", "--samples", "1"])
assert code == 0, ("pati-salam", code)
assert "scipy.linalg" in sys.modules, "pati-salam did not exponentiate"
print("ok")
"""


def eager_scipy_imports(source: str, filename: str) -> list:
    """``file:line`` of every import of SciPy that runs when the module is
    imported: any ``import scipy…`` or ``from scipy… import`` outside a
    function body (module level, or inside a module-level block or class)."""
    found = []
    stack = list(ast.parse(source, filename=filename).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return [f"{filename}:{line}" for line in sorted(found)]


def test_no_module_imports_scipy_eagerly():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += eager_scipy_imports(path.read_text(encoding="utf-8"),
                                     str(path.relative_to(ROOT)))
    assert not found, ("SciPy imported at module level (move it into the function "
                       "that calls it): " + ", ".join(found))


def test_the_guard_sees_module_level_imports_only():
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
              "    return scipy.linalg\n")
    assert eager_scipy_imports(source, "m.py") == ["m.py:2", "m.py:3", "m.py:5", "m.py:10"]


def test_only_the_exponential_loads_scipy():
    done = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
