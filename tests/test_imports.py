"""Imports: every module uses each name it imports; the solver layer names its scipy floor."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    imported = {alias.asname or alias.name.split(".")[0]: node.lineno
                for node in imports for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]
    modules = [*(ROOT / "src" / "edgeplan").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text(encoding="utf-8"))
              for p in sorted(modules) if p.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_missing_highs_binding_names_the_scipy_floor():
    # without scipy's bundled HiGHS binding the solver layer refuses to import
    code = ("import sys; sys.modules['scipy.optimize._highspy._core'] = None; "
            "import edgeplan.milp")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    floor = re.search(r'"(scipy>=[0-9.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    assert proc.returncode != 0
    assert f"ImportError: edgeplan needs {floor} " in proc.stderr
