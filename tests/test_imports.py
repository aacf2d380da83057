"""Every module under src/ and tests/ uses each name it imports, modules
under src/ import only at module top level, and the CLI runs on numpy
alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    unused = {}
    for path in files:
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def test_src_imports_only_at_top_level():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    nested = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(map(id, tree.body))
        nested += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency: the tests use it as an oracle
    code = ("import sys, catagg.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
