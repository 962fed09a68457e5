"""Imports: every module uses each name it imports; the solver layer names its scipy floor
and every binding method it calls; the package loads neither networkx nor scipy.stats."""

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


def test_scipy_floor_check_names_every_highs_method_the_package_calls():
    # the solver layer is the one HiGHS call site; each binding method it
    # calls is listed, so an older scipy fails on import and names the method
    from scipy.optimize._highspy import _core

    from edgeplan import milp

    binding = {name for name in dir(_core._Highs) if not name.startswith("_")}
    tree = ast.parse((ROOT / "src" / "edgeplan" / "milp.py").read_text(encoding="utf-8"))
    called = {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr in binding}
    assert called == set(milp._HIGHS_METHODS)
    code = ("from scipy.optimize._highspy import _core; del _core._Highs.addRows; "
            "import edgeplan.milp")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    floor = re.search(r'"(scipy>=[0-9.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    assert proc.returncode != 0
    assert f"ImportError: edgeplan needs {floor} " in proc.stderr
    assert proc.stderr.rstrip().endswith(", without _Highs.addRows")


def test_no_networkx_or_scipy_stats_is_loaded():
    # a module set to None in sys.modules fails on import, a lazy one included
    code = ("import sys; sys.modules['networkx'] = None; sys.modules['scipy.stats'] = None\n"
            "import edgeplan.cli\n"
            "from edgeplan.evaluation import DISTRIBUTIONS, EvaluationConfig, "
            "generate_test_scenarios\n"
            "from edgeplan.topology import generate_instance\n"
            "inst = generate_instance(6, 6, seed=0)\n"
            "for d in DISTRIBUTIONS:\n"
            "    cfg = EvaluationConfig(num_scenarios=5, distribution=d)\n"
            "    print(d, len(generate_test_scenarios(inst, cfg)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "lognormal 5\nnormal 5\nuniform 5\n"
