"""Every error type in errors.py is raised somewhere in the package.

Each src/slimquant/*.py is parsed with ast. SlimQuantError and each class
in errors.py derived from it must appear in at least one `raise`
statement, so a type whose last raise is deleted goes with it.
"""

import ast
from pathlib import Path

import slimquant

SOURCES = sorted(Path(slimquant.__file__).parent.glob("*.py"))


def error_classes(tree: ast.Module) -> set[str]:
    """SlimQuantError and the classes of the module derived from it."""
    found = {"SlimQuantError"}
    for node in tree.body:  # a class follows its bases in errors.py
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in found for b in node.bases
        ):
            found.add(node.name)
    return found


def raised_names(tree: ast.Module) -> set[str]:
    """Names of the classes the module raises, called or bare."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    raised = set().union(*map(raised_names, trees.values()))
    assert sorted(error_classes(trees["errors"]) - raised) == []
