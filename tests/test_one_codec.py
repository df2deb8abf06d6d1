"""packfmt.py packs a row's fields one way at each width.

packfmt.py is parsed with ast. pack_fields and unpack_fields move whole
runs of fields with the _SPREAD steps (or packbits at 1 bit), a row's
last partial run included, so no loop in either function may run over the
row's fields: no loop's iterable may name count, and none may call a
function of the module, as a per-field helper would be. A second path for
the fields after the last whole run would pack them its own way and hold
its own memory (ROADMAP aim 2: one code path per stage).
"""

import ast
from pathlib import Path

import slimquant
from test_one_product import called_name

PACKFMT = Path(slimquant.__file__).parent / "packfmt.py"
AIM = "pack_fields and unpack_fields must not loop over a row's fields (ROADMAP aim 2: one code path per stage)"


def field_loops(tree: ast.Module, function: str) -> list[int]:
    """Lines of the loops in function whose iterable names count or calls
    a function defined in the module."""
    helpers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
    iterables = [node.iter for node in ast.walk(fn) if isinstance(node, (ast.For, ast.comprehension))]
    return [
        it.lineno
        for it in iterables
        if any(isinstance(n, ast.Name) and n.id == "count" for n in ast.walk(it))
        or any(isinstance(n, ast.Call) and called_name(n) in helpers for n in ast.walk(it))
    ]


def test_codec_has_no_per_field_loop():
    tree = ast.parse(PACKFMT.read_text(), filename=str(PACKFMT))
    assert field_loops(tree, "pack_fields") == [], AIM
    assert field_loops(tree, "unpack_fields") == [], AIM
