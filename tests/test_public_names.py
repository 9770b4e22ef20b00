"""Every public top-level name in the package has a caller outside its own tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covis"


def _defined(tree):
    """(name, first line, last line) of each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _used(tree):
    """(name, line) of each identifier a module reads, attribute or import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {path: list(_used(tree)) for path, tree in trees.items()}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    unused = []
    for path, tree in trees.items():
        for name, first, last in _defined(tree):
            if name in imported:
                continue
            if not any(
                used == name and not (other == path and first <= line <= last)
                for other, refs in uses.items()
                for used, line in refs
            ):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []
