"""Every public name in the package has a caller outside its own tests, and
every private top-level name a reference in the package outside its own
definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covis"


def _defined(tree, private=False):
    """(name, first line, last line) of each public (or private) top-level
    definition; dunder names such as ``__all__`` are neither."""
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
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name.startswith("_") == private:
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


def _scoped_attributes(tree, classes):
    """(name, line, class, named) of each attribute a module reaches. class names
    the top-level class whose body holds the reach, or is None outside any class;
    named is the class of ``classes`` whose bare name the attribute is read from
    (``RunConfig`` in ``RunConfig.from_dict``), or None."""
    for node in tree.body:
        cls = node.name if isinstance(node, ast.ClassDef) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                value = sub.value
                named = value.id if isinstance(value, ast.Name) and value.id in classes else None
                yield sub.attr, sub.lineno, cls, named


def _classes(trees):
    """Per top-level class: the function names its body defines, and the class
    with all of its ancestors in the package."""
    nodes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}

    def lineage(name):
        bases = [b.id for b in nodes[name].bases if isinstance(b, ast.Name) and b.id in nodes]
        return {name}.union(*map(lineage, bases))

    defines = {
        name: {item.name for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for name, node in nodes.items()
    }
    return defines, {name: lineage(name) for name in nodes}


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


def test_every_private_name_is_referenced():
    trees = _package()
    uses = {path: list(_used(tree)) for path, tree in trees.items()}
    unused = [
        f"{path.name}:{first} {name}"
        for path, tree in trees.items()
        for name, first, last in _defined(tree, private=True)
        if not _reached_elsewhere(name, path, first, last, uses)
    ]
    assert unused == []


def test_every_public_method_has_a_caller():
    # A reach inside a class body that itself defines the name (``self.dot`` in
    # ``Vec3``) counts only for that class and its subclasses, so a base class
    # calling its own hook still reaches each subclass's override. A reach
    # through a class's bare name (``RunConfig.from_dict``) counts only for that
    # class and its ancestors, here and in the acceptance tests.
    trees = _package()
    defines, lineage = _classes(trees)
    uses = {path: list(_scoped_attributes(tree, lineage)) for path, tree in trees.items()}
    accepted = [(used, named) for used, _, _, named in _scoped_attributes(_acceptance(), lineage)]

    def reaches(cls, name, used, named):
        return used == name and (named is None or cls in lineage[named])

    def reached_elsewhere(cls, name, path, first, last):
        return any(
            reaches(cls, name, used, named)
            and not (other == path and first <= line <= last)
            and (owner is None or name not in defines[owner] or owner in lineage[cls])
            for other, refs in uses.items()
            for used, line, owner, named in refs
        )

    unused = [
        f"{path.name}:{first} {cls}.{name}"
        for path, tree in trees.items()
        for cls, name, first, last in _methods(tree)
        if not any(reaches(cls, name, used, named) for used, named in accepted)
        and not reached_elsewhere(cls, name, path, first, last)
    ]
    assert unused == []
