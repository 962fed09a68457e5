"""Every package module and test module uses each name it imports."""

import ast
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
