"""Every imported name is used in the module that imports it, and the
package does not import scipy.optimize.

An AST scan of src/, tests/ and bench/.  Package __init__.py files (which
re-export) and names listed in a module's __all__ are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_no_unused_imports():
    assert FILES
    unused = [entry for path in FILES for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


# decoherence._brent writes out scipy.optimize.brentq because importing
# scipy.optimize adds ~20 MB of resident memory to every process that imports
# the package.  A fresh interpreter shows what an import loads.
def test_package_does_not_load_scipy_optimize():
    code = ("import sys, oqho_memory, oqho_memory.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
