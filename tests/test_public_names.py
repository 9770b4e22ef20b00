"""Every public name in the package has a caller outside its own tests."""

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


def _methods(tree):
    """(class, name, first line, last line) of each public method or property."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield node.name, item.name, item.lineno, item.end_lineno


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


def _attributes(tree):
    """(name, line) of each attribute a module reaches."""
    return [(node.attr, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _package():
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _acceptance():
    return ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())


def _reached_elsewhere(name, path, first, last, uses):
    """Whether a module reaches ``name`` outside lines first..last of ``path``."""
    return any(
        used == name and not (other == path and first <= line <= last)
        for other, refs in uses.items()
        for used, line in refs
    )


def test_every_public_name_has_a_caller():
    trees = _package()
    uses = {path: list(_used(tree)) for path, tree in trees.items()}
    imported = {alias.name for node in ast.walk(_acceptance()) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    unused = [
        f"{path.name}:{first} {name}"
        for path, tree in trees.items()
        for name, first, last in _defined(tree)
        if name not in imported and not _reached_elsewhere(name, path, first, last, uses)
    ]
    assert unused == []


def test_every_public_method_has_a_caller():
    trees = _package()
    uses = {path: _attributes(tree) for path, tree in trees.items()}
    reached = {name for name, _ in _attributes(_acceptance())}
    unused = [
        f"{path.name}:{first} {cls}.{name}"
        for path, tree in trees.items()
        for cls, name, first, last in _methods(tree)
        if name not in reached and not _reached_elsewhere(name, path, first, last, uses)
    ]
    assert unused == []
