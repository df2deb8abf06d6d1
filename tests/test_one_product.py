"""sba.py forms every layer output one way.

sba.py is parsed with ast. Every product with the token rows (the exact
outputs, a whole-layer score and each width update) goes through
_add_product, so the module may call dgemm once, there, and may not
multiply matrices any other way: no np.matmul, np.dot or @. A second
product rule would round in another order and let the search and the
scores drift apart (ROADMAP aim 2: one code path per stage).
"""

import ast
from pathlib import Path

import slimquant

SBA = Path(slimquant.__file__).parent / "sba.py"
AIM = "sba.py must form layer outputs only through _add_product (ROADMAP aim 2: one code path per stage)"


def called_name(node: ast.Call) -> str | None:
    """The last name of what node calls: dgemm for scipy.linalg.blas.dgemm(...)."""
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None


def enclosing_functions(tree: ast.Module) -> dict[ast.AST, str]:
    """Each node of tree mapped to the name of the function it is in."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner[node] = fn.name  # an inner function is walked later, so it wins
    return owner


def test_sba_forms_outputs_only_through_add_product():
    tree = ast.parse(SBA.read_text(), filename=str(SBA))
    owner = enclosing_functions(tree)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    dgemm = [owner.get(c) for c in calls if called_name(c) == "dgemm"]
    assert dgemm == ["_add_product"], AIM
    assert not [c.lineno for c in calls if called_name(c) in ("matmul", "dot")], AIM
    matmul = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert matmul == [], AIM
