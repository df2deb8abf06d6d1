"""No module of the package imports a name it does not use, and the
package exports only its entry points.

Each src/slimquant/*.py is parsed with ast. A name an import binds counts
as used if the module reads it anywhere, lists it in __all__, or is one of
the benchmark tracer's dead entries (DEAD in test_trace_spans_fire.py): the
modules keep those imports only so that the tracer's entries resolve.
"""

import ast
from pathlib import Path

import pytest

import slimquant
from test_trace_spans_fire import DEAD

SOURCES = sorted(Path(slimquant.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, __future__ ones aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.partition(".")[0])
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, plus the strings listed in its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = {name for module, _, name in (d.partition(".") for d in DEAD) if module == path.stem}
    assert sorted(imported_names(tree) - used_names(tree) - kept) == []


# quantize a layer, store it packed, multiply through it: every other name
# is imported from its module
ENTRY_POINTS = [
    "PipelineConfig",
    "QuantizationResult",
    "SlimQuantError",
    "dense_reference",
    "pack",
    "packed_matmul",
    "quantize_layer",
    "read_packed",
    "read_tensor",
    "write_packed",
    "write_tensor",
]


def test_package_exports_only_its_entry_points():
    assert sorted(slimquant.__all__) == sorted([*ENTRY_POINTS, "__version__"])
    init = Path(slimquant.__file__)
    assert imported_names(ast.parse(init.read_text(), filename=str(init))) == set(ENTRY_POINTS)
